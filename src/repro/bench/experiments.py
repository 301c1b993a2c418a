"""Per-experiment runners: one function per paper table/figure.

Each ``run_*`` function regenerates one artifact of the paper's
evaluation and returns an
:class:`~repro.bench.harness.ExperimentRecord` carrying the rendered
table(s) plus a reproduced/diverged verdict against the paper's claim.
:data:`repro.bench.EXPERIMENTS` binds each runner to its id and the
parameters the committed EXPERIMENTS.md was measured at.
"""

from __future__ import annotations

import random

from repro.arch.vmsa import VMSAConfig
from repro.bench.figures import BarChart
from repro.bench.harness import ExperimentRecord
from repro.errors import KernelPanic
from repro.inject import ATTACKS, InjectionCampaign, profile_rows
from repro.inject.scenarios import (
    cross_thread_replay_accepted,
    expected_guesses,
    guess_f_ops_pac,
    replay_profile,
    success_probability,
)
from repro.trace.report import TextTable
from repro.workloads.callbench import figure2_series
from repro.workloads.lmbench import run_suite
from repro.workloads.userspace import run_userspace

__all__ = [
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_gadget_census",
    "run_key_switch",
    "run_survey",
    "run_security_matrix",
    "run_replay_matrix",
    "run_bruteforce",
    "run_vmsa_tables",
    "run_compat",
]


def run_fig2(iterations=200):
    """Figure 2: function-call overhead of the three modifier schemes."""
    series = figure2_series(iterations)
    table = TextTable(
        "Figure 2 — function call overhead",
        ["scheme", "cycles/call", "overhead (cycles)", "overhead (ns)"],
    )
    by_name = {}
    for cost in series:
        table.add_row(
            cost.scheme, cost.cycles_per_call, cost.overhead_cycles,
            cost.overhead_ns,
        )
        by_name[cost.scheme] = cost
    ordered = (
        by_name["sp-only"].overhead_ns
        < by_name["camouflage"].overhead_ns
        < by_name["parts"].overhead_ns
    )
    chart = BarChart("Figure 2 — per-call overhead", unit=" ns")
    for scheme in ("camouflage", "parts", "sp-only"):
        chart.add_bar(scheme, by_name[scheme].overhead_ns)
    return ExperimentRecord(
        experiment_id="E1 / Figure 2",
        paper_claim=(
            "proposed modifier slightly slower than plain SP (Clang), "
            "faster than PARTS"
        ),
        measured=(
            f"sp-only {by_name['sp-only'].overhead_ns:.2f} ns < "
            f"camouflage {by_name['camouflage'].overhead_ns:.2f} ns < "
            f"parts {by_name['parts'].overhead_ns:.2f} ns per call"
        ),
        reproduced=ordered,
        tables=[table, chart],
    )


def run_fig3(iterations=20):
    """Figure 3: lmbench relative latencies (none/backward/full)."""
    rows = run_suite(iterations=iterations)
    table = TextTable(
        "Figure 3 — lmbench latencies (relative to unprotected)",
        ["benchmark", "none (cyc)", "backward", "full", "full overhead %"],
    )
    overheads = []
    for row in rows:
        rel = row.relative()
        pct = row.overhead_pct("full")
        overheads.append(pct)
        table.add_row(
            row.name, row.cycles["none"], rel["backward"], rel["full"], pct
        )
    double_digit = all(10.0 <= pct < 100.0 for pct in overheads)
    monotone = all(
        row.cycles["none"] <= row.cycles["backward"] <= row.cycles["full"]
        for row in rows
    )
    chart = BarChart("Figure 3 — relative latency (1.0 = unprotected)", unit="x")
    for row in rows:
        rel = row.relative()
        chart.add_group(
            row.name,
            [("backward", rel["backward"]), ("full", rel["full"])],
        )
    return ExperimentRecord(
        experiment_id="E2 / Figure 3",
        paper_claim=(
            "double-digit percentual overhead at system call level; "
            "backward-edge-only strictly between none and full"
        ),
        measured=(
            f"full overhead {min(overheads):.1f}%..{max(overheads):.1f}% "
            f"across {len(rows)} micro-benchmarks; ordering none <= "
            f"backward <= full {'holds' if monotone else 'violated'}"
        ),
        reproduced=double_digit and monotone,
        tables=[table, chart],
    )


def run_fig4(iterations=10):
    """Figure 4: user-space workload overheads and the <4% geomean."""
    rows, geomeans = run_userspace(iterations=iterations)
    table = TextTable(
        "Figure 4 — user-space performance",
        ["workload", "none (cyc)", "backward %", "full %"],
    )
    for row in rows:
        table.add_row(
            row.name,
            row.cycles["none"],
            row.overhead_pct("backward"),
            row.overhead_pct("full"),
        )
    geo_pct = 100.0 * (geomeans["full"] - 1.0)
    table.add_row("geometric mean", "-",
                  100.0 * (geomeans["backward"] - 1.0), geo_pct)
    user_heavy = rows[0].overhead_pct("full")
    kernel_heavy = rows[-1].overhead_pct("full")
    chart = BarChart("Figure 4 — user-space overhead", unit=" %")
    for row in rows:
        chart.add_group(
            row.name,
            [
                ("backward", row.overhead_pct("backward")),
                ("full", row.overhead_pct("full")),
            ],
        )
    chart.add_group(
        "geometric mean",
        [
            ("backward", 100.0 * (geomeans["backward"] - 1.0)),
            ("full", geo_pct),
        ],
    )
    return ExperimentRecord(
        experiment_id="E3 / Figure 4",
        paper_claim="geometric mean of user-space overhead below 4%",
        measured=(
            f"geomean {geo_pct:.2f}%; user-heavy {user_heavy:.2f}% "
            f"< kernel-heavy {kernel_heavy:.2f}%"
        ),
        reproduced=geo_pct < 4.0 and user_heavy < kernel_heavy,
        tables=[table, chart],
    )


def run_key_switch(iterations=40):
    """Section 6.1.1: ~9 cycles per key per switch.

    The backward profile switches one key, the full profile three; the
    marginal cost between them, divided by the two extra keys and the
    two switch directions per syscall, is the pure per-key cost —
    exactly how the paper isolates the key-register writes from the
    surrounding entry code.
    """
    rows = run_suite(profiles=("none", "backward", "full"),
                     iterations=iterations)
    null = next(r for r in rows if r.name == "null_call")
    marginal = null.cycles["full"] - null.cycles["backward"]
    per_key = marginal / (2 * 2)  # two extra keys, two directions
    table = TextTable(
        "Key switching cost (null syscall)",
        ["profile", "keys switched", "cycles/iter"],
    )
    table.add_row("none", 0, null.cycles["none"])
    table.add_row("backward", 1, null.cycles["backward"])
    table.add_row("full", 3, null.cycles["full"])
    table.add_row("per key per switch", "-", per_key)
    return ExperimentRecord(
        experiment_id="E4 / Section 6.1.1",
        paper_claim="9 cycles per key (measured average 8.88)",
        measured=f"{per_key:.2f} cycles per key per switch direction",
        reproduced=abs(per_key - 9.0) <= 1.5,
        tables=[table],
    )


def run_survey():
    """Section 5.3: the Coccinelle survey and the semantic patch."""
    from repro.analysis.corpus import (
        PAPER_MEMBER_COUNT,
        PAPER_MULTI_COUNT,
        PAPER_TYPE_COUNT,
        generate_linux_like_corpus,
    )
    from repro.analysis.semanticpatch import SemanticPatch
    from repro.analysis.survey import survey_function_pointers

    corpus = generate_linux_like_corpus()
    report = survey_function_pointers(corpus)
    patch = SemanticPatch()
    result = patch.apply(corpus)
    patch.verify_complete(corpus, result)

    table = TextTable(
        "Section 5.3 — function-pointer survey (Linux-5.2-calibrated corpus)",
        ["quantity", "paper", "measured"],
    )
    table.add_row("fn-ptr members assigned at run time",
                  PAPER_MEMBER_COUNT, report.member_count)
    table.add_row("compound types containing them",
                  PAPER_TYPE_COUNT, report.type_count)
    table.add_row("types with more than one (convert to ops)",
                  PAPER_MULTI_COUNT, report.multi_member_types)
    table.add_row("lone pointers (PAuth-protect)",
                  PAPER_TYPE_COUNT - PAPER_MULTI_COUNT,
                  report.single_member_types)
    table.add_row("access sites rewritten by the patch", "-",
                  result.rewrite_count)
    ok = (
        report.member_count == PAPER_MEMBER_COUNT
        and report.type_count == PAPER_TYPE_COUNT
        and report.multi_member_types == PAPER_MULTI_COUNT
    )
    return ExperimentRecord(
        experiment_id="E5 / Section 5.3",
        paper_claim="1285 members / 504 types / 229 multi-pointer types",
        measured=report.summary(),
        reproduced=ok,
        tables=[table],
    )


def run_security_matrix(profiles=("none", "backward", "full")):
    """Section 6.2: the attack-detection matrix."""
    matrices = [
        InjectionCampaign(
            profile=profile,
            trials=1,
            invariants=False,
            sites=[s.name for s in ATTACKS],
        ).run()
        for profile in profiles
    ]
    table = TextTable(
        "Section 6.2 — security evaluation",
        ["attack"] + list(profiles),
    )
    for name, cells in profile_rows(matrices):
        table.add_row(name, *cells)
    # The full profile must stop every attack but the documented
    # residuals (same-function replay, the Section 8 frame gap).
    by_profile = {m.profile: m for m in matrices}
    full = by_profile.get("full")
    full_ok = full is None or not full.unexpected_escapes()
    none_broken = bool(
        "none" in by_profile and by_profile["none"].escaped
    )
    return ExperimentRecord(
        experiment_id="E6+E10 / Section 6.2",
        paper_claim=(
            "all pointer-injection attacks detected under the full "
            "design; key material unreachable; only same-type/"
            "same-address replay remains"
        ),
        measured=(
            f"full profile stopped all non-residual attacks: {full_ok}; "
            f"unprotected kernel exploitable: {none_broken} (residuals: "
            f"same-type/same-address replay, and the Section 8 "
            f"exception-frame gap closed by the frame_mac extension)"
        ),
        reproduced=full_ok and none_broken,
        tables=[table],
    )


def run_replay_matrix():
    """Sections 4.2/7: replay windows by modifier scheme."""
    table = TextTable(
        "Replay windows by modifier scheme",
        ["scenario", "sp-only", "camouflage", "parts"],
    )
    in_sim = {}
    for variant in ("same-function", "cross-function"):
        row = []
        for scheme in ("sp-only", "camouflage", "parts"):
            (result,) = InjectionCampaign(
                profile=replay_profile("backward", scheme),
                trials=1,
                invariants=False,
                sites=[f"replay-{variant}"],
            ).run().results
            row.append(result.outcome)
            in_sim[(variant, scheme)] = result.outcome
        table.add_row(f"{variant} (in-sim)", *row)
    for stride in (4096, 65536):
        row = [
            "escaped" if cross_thread_replay_accepted(s, stride)
            else "detected"
            for s in ("sp-only", "camouflage", "parts")
        ]
        table.add_row(f"cross-thread stride {stride}", *row)
    ok = (
        in_sim[("cross-function", "sp-only")] == "escaped"
        and in_sim[("cross-function", "camouflage")] == "detected"
        and in_sim[("cross-function", "parts")] == "detected"
        and cross_thread_replay_accepted("parts", 65536)
        and not cross_thread_replay_accepted("camouflage", 65536)
    )
    return ExperimentRecord(
        experiment_id="E6b / Sections 4.2, 7",
        paper_claim=(
            "SP-only replays across functions; PARTS replays across "
            "threads 64 KiB apart; Camouflage rejects both"
        ),
        measured="; ".join(
            f"{k[0]}/{k[1]}={v}" for k, v in sorted(in_sim.items())
        ),
        reproduced=ok,
        tables=[table],
    )


def run_bruteforce(threshold=8):
    """Section 5.4: PAC size, brute-force cost, panic threshold."""
    from repro.kernel.system import System

    config = VMSAConfig()
    pac_bits = config.pac_size(kernel=True)
    expectation = expected_guesses(pac_bits)
    # The guessing order is seeded for reproducibility.
    unlimited = System(profile="full")
    unlimited.faults.panic_on_threshold = False
    guesses = guess_f_ops_pac(unlimited, random.Random(1))
    limited = System(profile="full", fault_threshold=threshold)
    try:
        guess_f_ops_pac(limited, random.Random(1))
        limited_outcome = "escaped"
    except KernelPanic:
        limited_outcome = "detected"
    faults = limited.faults
    probability = success_probability(threshold, pac_bits)
    table = TextTable(
        "Section 5.4 — PAC brute force",
        ["quantity", "value"],
    )
    table.add_row("kernel PAC size (48-bit VA, TBI off)", f"{pac_bits} bits")
    table.add_row("expected guesses (no mitigation)", expectation)
    table.add_row(
        "unmitigated attack",
        f"PAC guessed after {guesses} attempts (2^{pac_bits} space)",
    )
    table.add_row(
        f"with threshold {threshold}",
        f"system panicked after {faults.pauth_failures} failed guesses "
        f"(threshold {faults.threshold})",
    )
    table.add_row(
        f"P[success before panic], k={threshold}", f"{probability:.2e}"
    )
    return ExperimentRecord(
        experiment_id="E7 / Section 5.4",
        paper_claim=(
            "15-bit PACs are brute-forceable; limiting consecutive "
            "failures defeats the attack"
        ),
        measured=(
            f"{pac_bits}-bit PAC; unlimited: escaped; "
            f"with threshold: {limited_outcome} "
            f"(P[success] ~= {probability:.1e})"
        ),
        reproduced=pac_bits == 15 and limited_outcome == "detected",
        tables=[table],
    )


def run_vmsa_tables():
    """Tables 1 and 2: address ranges and pointer layouts."""
    config = VMSAConfig()
    table1 = TextTable(
        "Table 1 — VMSAv8 address ranges (48-bit VA)",
        ["range", "bit 55", "usage"],
    )
    for low, high, bit55, usage in config.address_ranges():
        table1.add_row(
            f"{high:#018x} - {low:#018x}",
            "-" if bit55 is None else bit55,
            usage,
        )
    table2 = TextTable(
        "Table 2 — AArch64 pointer layout on Linux",
        ["pointer class", "field", "bits"],
    )
    for kernel, label in ((False, "user (TBI on)"), (True, "kernel (TBI off)")):
        for name, high, low in config.layout(kernel).describe():
            table2.add_row(label, name, f"{high}-{low}")
    ranges = config.address_ranges()
    ok = (
        ranges[0][3] == "Kernel"
        and ranges[2][3] == "User"
        and config.pac_size(kernel=True) == 15
        and config.pac_size(kernel=False) == 7
    )
    return ExperimentRecord(
        experiment_id="E8+E9 / Tables 1-2",
        paper_claim=(
            "bit 55 selects kernel/user; 15 usable PAC bits for kernel "
            "pointers, 7 for tagged user pointers"
        ),
        measured=(
            f"kernel PAC {config.pac_size(kernel=True)} bits, user PAC "
            f"{config.pac_size(kernel=False)} bits"
        ),
        reproduced=ok,
        tables=[table1, table2],
    )


def run_compat(iterations=100):
    """Section 5.5: one binary for ARMv8.3 and ARMv8.0.

    Builds the SP-only-instrumented callee in compat (HINT-space) mode
    and runs the identical code on a PAuth core and on a v8.0 core: it
    must execute correctly on both, with the PAuth instructions costing
    nothing but NOPs on the old core.
    """
    from repro.workloads.callbench import cycles_per_call

    with_pauth = cycles_per_call(
        "sp-only", iterations, compat=True, features=("pauth",)
    )
    without = cycles_per_call(
        "sp-only", iterations, compat=True, features=()
    )
    baseline = cycles_per_call(None, iterations, features=())
    table = TextTable(
        "Section 5.5 — backwards compatibility (same binary)",
        ["core", "cycles/call"],
    )
    table.add_row("ARMv8.3 (PAuth active)", with_pauth)
    table.add_row("ARMv8.0 (HINT-space NOPs)", without)
    table.add_row("ARMv8.0 uninstrumented", baseline)
    ok = without < with_pauth and (without - baseline) <= 4

    # Whole-kernel compat: the same compat-built kernel image booted on
    # both cores, measured on the null syscall.
    from repro.bench.ablations import null_syscall_cycles
    from repro.cfi.policy import ProtectionProfile
    from repro.kernel.system import System

    def compat_profile():
        return ProtectionProfile(
            name="compat-full", backward_scheme="camouflage",
            forward=True, dfi=True, compat=True,
        )

    kernel_v83 = null_syscall_cycles(
        System(profile=compat_profile(), features=frozenset({"pauth"})),
        iterations=20,
    )
    kernel_v80 = null_syscall_cycles(
        System(profile=compat_profile(), features=frozenset()),
        iterations=20,
    )
    kernel_table = TextTable(
        "Section 5.5 — whole compat kernel, null syscall",
        ["core", "cycles/syscall"],
    )
    kernel_table.add_row("ARMv8.3 (protection active)", kernel_v83)
    kernel_table.add_row("ARMv8.0 (NOP slide)", kernel_v80)
    ok = ok and kernel_v80 < kernel_v83
    return ExperimentRecord(
        experiment_id="E11 / Section 5.5",
        paper_claim=(
            "PACIB1716/AUTIB1716 behave as NOPs on older processors, "
            "keeping one binary compatible"
        ),
        measured=(
            f"per call: v8.3 {with_pauth:.2f} cyc, v8.0 {without:.2f}, "
            f"uninstrumented {baseline:.2f}; whole kernel null syscall: "
            f"v8.3 {kernel_v83:.1f} vs v8.0 {kernel_v80:.1f} cyc"
        ),
        reproduced=ok,
        tables=[table, kernel_table],
    )


def run_gadget_census():
    """E18: the ROP/JOP gadget census (Sections 2.2, 6.2 quantified).

    Counts usable ``RET``/``BLR``/``BR`` gadget windows in three builds
    of the same kernel: unprotected, fully instrumented (native PAuth
    encodings) and compat (HINT-space only).  Two metrics: usable
    windows, and *attackable terminators* (an indirect transfer with at
    least one window free of AUT* — the instrumented epilogue's AUT
    directly before RET kills every window through that return).  The
    compat build's X17 shuttle (``mov lr, x17`` after ``AUTIB1716``)
    measurably re-opens a one-instruction window per return — the
    binary-compatibility trade-off made visible.
    """
    from repro.analysis.gadgets import census
    from repro.cfi.policy import ProtectionProfile
    from repro.kernel.system import System

    builds = (
        ("unprotected", "none"),
        ("instrumented", "full"),
        (
            "compat",
            ProtectionProfile(
                name="compat-full", backward_scheme="camouflage",
                forward=True, dfi=True, compat=True,
            ),
        ),
    )
    table = TextTable(
        "E18 — gadget census over the same kernel",
        [
            "build", "instructions", "windows", "usable", "rop", "jop",
            "attackable terminators",
        ],
    )
    results = {}
    for label, profile in builds:
        system = System(profile=profile)
        count = census(system.kernel_image)
        results[label] = count
        table.add_row(
            label,
            count.instructions,
            len(count.gadgets),
            count.usable_count,
            count.count("rop", usable=True),
            count.count("jop", usable=True),
            f"{count.usable_terminators}/{count.terminator_count}",
        )
    none, full = results["unprotected"], results["instrumented"]
    compat = results["compat"]
    ok = (
        full.usable_count < none.usable_count
        and full.usable_terminators < none.usable_terminators
    )
    return ExperimentRecord(
        experiment_id="E18 / Sections 2.2, 6.2 — gadget census",
        paper_claim=(
            "signing return addresses and code pointers removes the "
            "raw RET/BLR gadget surface an attacker can use without "
            "the key"
        ),
        measured=(
            f"usable windows none {none.usable_count} vs full "
            f"{full.usable_count}; attackable terminators none "
            f"{none.usable_terminators}/{none.terminator_count} vs full "
            f"{full.usable_terminators}/{full.terminator_count}; compat "
            f"keeps {compat.usable_terminators}/"
            f"{compat.terminator_count} attackable (the HINT-space "
            f"X17 shuttle re-opens a 1-instruction window per return)"
        ),
        reproduced=ok,
        tables=[table],
    )

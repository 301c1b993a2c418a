"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's published tables: they quantify the
arguments the paper makes in prose (XOM vs. EL2-trap key management,
Section 7; interrupt-path key switching, Section 2.3) and evaluate the
Section 8 future-work extension (exception-frame MAC) implemented in
this reproduction.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.vmsa import VMSAConfig
from repro.bench.harness import ExperimentRecord
from repro.cfi.policy import frame_mac_profile
from repro.hyp.hypervisor import EL2_TRAP_ROUND_TRIP_CYCLES
from repro.inject import InjectionCampaign
from repro.inject.scenarios import expected_guesses, success_probability
from repro.kernel.system import System
from repro.trace.report import TextTable
from repro.workloads.guest import (
    DATA_BASE,
    BareMachine,
    emit_call_loop,
    run_el0,
    syscall,
    syscall_cycles,
)

__all__ = [
    "run_key_mgmt_ablation",
    "run_frame_mac_ablation",
    "run_irq_overhead",
    "run_ctx_switch",
    "run_pac_size_sweep",
    "run_hardened_abi",
    "run_canary_ablation",
    "null_syscall_cycles",
]


def null_syscall_cycles(system, iterations=30):
    """Cycles per ``getpid`` round trip on a freshly booted system."""
    system.map_user_stack()
    return syscall_cycles(system, "getpid", iterations)


def run_key_mgmt_ablation(iterations=30):
    """Key-management strategies (paper Sections 5.1, 7 and 8).

    Three designs for keeping the kernel keys both secret and cheap to
    activate:

    * the paper's **XOM setter** — immediates in execute-only code;
    * the related-work **EL2 trap** (Ferri et al.) — keys live at the
      hypervisor, one costly trap per kernel entry;
    * the paper's **proposed ISA extension** (Section 8) — banked key
      registers with a select flag, so switching is one MSR and no key
      material ever exists outside the registers.
    """
    xom = null_syscall_cycles(
        System(profile="full", key_management="xom"), iterations
    )
    trap = null_syscall_cycles(
        System(profile="full", key_management="el2-trap"), iterations
    )
    banked = null_syscall_cycles(
        System(profile="full", key_management="banked-isa"), iterations
    )
    baseline = null_syscall_cycles(System(profile="none"), iterations)
    table = TextTable(
        "Ablation — key management strategy (null syscall)",
        ["strategy", "cycles/syscall", "key overhead vs none"],
    )
    table.add_row("no protection", baseline, 0.0)
    table.add_row("XOM setter (paper)", xom, xom - baseline)
    table.add_row("EL2 trap (related work)", trap, trap - baseline)
    table.add_row("banked keys (Section 8 proposal)", banked, banked - baseline)
    table.add_row(
        "modelled trap round trip", EL2_TRAP_ROUND_TRIP_CYCLES, "-"
    )
    return ExperimentRecord(
        experiment_id="A1 / Sections 5.1, 7, 8 — key-management ablation",
        paper_claim=(
            "XOM conceals kernel keys without the costly EL2 switch of "
            "trap-based management; a banked-keys ISA extension would "
            "remove even the XOM cost"
        ),
        measured=(
            f"extra cycles/syscall: XOM {xom - baseline:.0f}, EL2-trap "
            f"{trap - baseline:.0f}, banked {banked - baseline:.0f}"
        ),
        reproduced=trap > xom > banked > baseline,
        tables=[table],
    )


def run_frame_mac_ablation(iterations=30):
    """The Section 8 future-work extension: cost and coverage.

    Demonstrates the gap (saved-ELR tampering succeeds against the full
    published design), the fix (the PACGA frame MAC detects it) and its
    price (extra cycles per syscall).
    """
    full = null_syscall_cycles(System(profile="full"), iterations)
    mac = null_syscall_cycles(System(profile=frame_mac_profile()), iterations)
    against_full, against_mac = (
        InjectionCampaign(
            profile=profile,
            trials=1,
            invariants=False,
            sites=["exception-frame-tamper"],
        ).run().results[0]
        for profile in ("full", frame_mac_profile())
    )
    table = TextTable(
        "Ablation — exception-frame MAC (future work, Section 8)",
        ["configuration", "cycles/syscall", "frame-tamper outcome"],
    )
    table.add_row("full (paper design)", full, against_full.outcome)
    table.add_row("full + frame MAC", mac, against_mac.outcome)
    table.add_row("MAC cost per syscall", mac - full, "-")
    ok = (
        against_full.outcome == "escaped"
        and against_mac.outcome == "detected"
        and mac > full
    )
    return ExperimentRecord(
        experiment_id="A2 / Section 8 — exception-frame MAC",
        paper_claim=(
            "future work: attacks targeting the interrupt handler could "
            "modify or replace kernel register content"
        ),
        measured=(
            f"saved-ELR tampering vs full: {against_full.outcome}; vs "
            f"frame MAC: {against_mac.outcome}; MAC costs "
            f"{mac - full:.0f} cycles/syscall"
        ),
        reproduced=ok,
        tables=[table],
    )


def run_irq_overhead(ticks=8, tick_period=2_000):
    """Key-switching cost on the *interrupt* path (Section 2.3).

    A syscall-free user workload runs under a periodic timer; the
    per-tick cycle delta between the unprotected and full kernels is
    the interrupt-path protection cost (entry/exit key switching plus
    the instrumented handler).
    """
    results = {}
    for profile in ("none", "full"):
        system = System(profile=profile)
        system.map_user_stack()
        system.enable_timer(tick_period)
        cycles = run_el0(
            system,
            lambda user: user.emit(isa.Work(38)),
            ticks * tick_period // 40,
        )
        results[profile] = (cycles, system.cpu.irqs_delivered, system.jiffies)
    table = TextTable(
        "Ablation — interrupt-path protection cost",
        ["profile", "total cycles", "irqs", "cycles/tick overhead"],
    )
    none_cycles, none_irqs, _ = results["none"]
    full_cycles, full_irqs, _ = results["full"]
    per_tick = (
        (full_cycles - none_cycles) / full_irqs if full_irqs else float("nan")
    )
    table.add_row("none", none_cycles, none_irqs, 0.0)
    table.add_row("full", full_cycles, full_irqs, per_tick)
    ok = full_irqs > 0 and none_irqs > 0 and per_tick > 0
    return ExperimentRecord(
        experiment_id="A3 / Section 2.3 — interrupt-path key switching",
        paper_claim=(
            "keys must also be switched when an asynchronous interrupt "
            "is encountered while a user thread is running"
        ),
        measured=(
            f"{full_irqs} timer ticks; protection adds "
            f"{per_tick:.0f} cycles per tick"
        ),
        reproduced=ok,
        tables=[table],
    )


def run_ctx_switch(rounds=6):
    """lat_ctx-style context-switch cost: signed saved-SP ablation."""
    results = {}
    for profile in ("none", "full"):
        system = System(profile=profile)
        other = system.spawn_process("pong")
        landing = system.cpu._landing_pad()
        other.kobj.raw_write("cpu_context_pc", landing)
        if system.profile.dfi:
            other.kobj.set_protected(
                "cpu_context_sp", other.stack_top,
                system.cpu.pac, system.kernel_keys, "db",
            )
        else:
            other.kobj.raw_write("cpu_context_sp", other.stack_top)
        start = system.cpu.cycles
        first = system.tasks.current
        current, target = first, other
        for _ in range(rounds):
            system.scheduler.switch_to(target)
            current, target = target, current
        results[profile] = (system.cpu.cycles - start) / rounds
    table = TextTable(
        "Ablation — context switch (cpu_switch_to)",
        ["profile", "cycles/switch"],
    )
    table.add_row("none", results["none"])
    table.add_row("full (signed saved SP)", results["full"])
    table.add_row("pointer-integrity cost", results["full"] - results["none"])
    return ExperimentRecord(
        experiment_id="A4 / Section 5.2 — cpu_switch_to SP signing",
        paper_claim=(
            "cpu_switch_to additionally signs the switched-from task's "
            "SP and authenticates the switched-to task's SP"
        ),
        measured=(
            f"{results['full'] - results['none']:.0f} extra cycles per "
            f"context switch"
        ),
        reproduced=results["full"] > results["none"],
        tables=[table],
    )


def run_pac_size_sweep(threshold=8):
    """PAC size vs. brute-force economics across VA configurations.

    Appendix A: "PACs can have up to 31 bits, but with typical Linux
    page and virtual address configurations the space remaining for
    the PACs is 15 bits" — this sweep shows how the guessing cost and
    the threshold mitigation scale with the configuration.
    """
    table = TextTable(
        "PAC size sweep — brute-force economics",
        [
            "va_bits",
            "kernel TBI",
            "PAC bits",
            "expected guesses",
            f"P[success] at k={threshold}",
        ],
    )
    rows = []
    for va_bits, tbi in ((36, True), (39, False), (42, False), (48, False), (48, True), (52, False)):
        config = VMSAConfig(va_bits=va_bits, tbi_kernel=tbi)
        bits = config.pac_size(kernel=True)
        rows.append(bits)
        table.add_row(
            va_bits,
            "on" if tbi else "off",
            bits,
            expected_guesses(bits),
            f"{success_probability(threshold, bits):.2e}",
        )
    default = VMSAConfig()
    ok = default.pac_size(kernel=True) == 15 and max(rows) <= 31
    return ExperimentRecord(
        experiment_id="A5 / Appendix A — PAC size sweep",
        paper_claim=(
            "up to 31 PAC bits architecturally; 15 bits in the typical "
            "configuration, within practical brute-force reach"
        ),
        measured=(
            f"typical config 15 bits (expected 2^14 guesses); sweep "
            f"range {min(rows)}..{max(rows)} bits"
        ),
        reproduced=ok,
        tables=[table],
    )


def run_hardened_abi(iterations=20):
    """The Section 8 hardened syscall ABI on banked keys.

    User space signs a buffer pointer with its DA key; the kernel
    authenticates it under the caller's bank before dereferencing.
    Measures acceptance of honest calls, rejection of raw and foreign
    pointers, and the per-call cost of the cross-privilege check.
    """
    from repro.cfi.hardened_abi import (
        SECURE_WRITE_SYSCALL,
        build_secure_syscall,
        emit_user_sign,
    )
    from repro.kernel.fault import TaskKilled
    from repro.kernel.syscalls import SyscallSpec

    def fresh_system():
        system = System(
            profile="full",
            key_management="banked-isa",
            syscalls=[
                SyscallSpec(SECURE_WRITE_SYSCALL, build_secure_syscall)
            ],
        )
        system.map_user_stack()
        return system

    def attempt(system, sign, loop=1):
        buffer = system.map_user_data()
        system.mmu.write_u64(buffer, 0xFEED_FACE, 1)
        number = system.syscall_numbers[SECURE_WRITE_SYSCALL]

        def body(user):
            user.mov_imm(0, buffer)
            if sign:
                emit_user_sign(user, 0)
            syscall(user, number)

        try:
            cycles = run_el0(system, body, loop)
            return "accepted", cycles / loop, system.cpu.regs.read(0)
        except TaskKilled:
            return "rejected", 0.0, 0

    honest_outcome, secure_cycles, value = attempt(
        fresh_system(), sign=True, loop=iterations
    )
    raw_outcome, _, _ = attempt(fresh_system(), sign=False)
    plain = null_syscall_cycles(
        System(profile="full", key_management="banked-isa"), iterations
    )
    table = TextTable(
        "Ablation — hardened syscall ABI (banked keys)",
        ["case", "outcome", "cycles/call"],
    )
    table.add_row("user-signed pointer", honest_outcome, secure_cycles)
    table.add_row("raw pointer (attack)", raw_outcome, "-")
    table.add_row("plain getpid (reference)", "-", plain)
    table.add_row("cross-privilege check cost", "-", secure_cycles - plain)
    ok = (
        honest_outcome == "accepted"
        and value == 0xFEED_FACE
        and raw_outcome == "rejected"
    )
    return ExperimentRecord(
        experiment_id="A6 / Section 8 — integrity-protected syscall ABI",
        paper_claim=(
            "future work: maintain PAuth guarantees across privilege "
            "boundaries, given a flag selecting the active key set"
        ),
        measured=(
            f"signed pointers {honest_outcome}, raw pointers "
            f"{raw_outcome}; check costs "
            f"{secure_cycles - plain:.0f} cycles/call"
        ),
        reproduced=ok,
        tables=[table],
    )


def run_canary_ablation(iterations=60):
    """Stack canaries: classic global guard vs. PACed (related work [26]).

    Measures the per-call cost of each canary discipline on a
    buffer-carrying function and mounts the canary-leak-replay attack
    against each: the global guard falls to a single arbitrary read,
    the per-frame PACGA canary does not.
    """
    from repro.arch.registers import PAuthKey
    from repro.cfi.canary import CanaryKind, emit_canary_function
    from repro.inject.scenarios import canary_leak_replay

    def measure(kind):
        machine = BareMachine()
        machine.cpu.regs.keys.ga = PAuthKey(0x6A6A, 0x7B7B)
        machine.cpu.mmu.write_u64(DATA_BASE, 0x5EED, 1)
        asm = machine.assembler()
        emit_canary_function(
            asm, "fn", kind,
            body=lambda a: a.emit(isa.Work(3)),
            guard_address=DATA_BASE,
        )
        emit_call_loop(asm, "fn", iterations)
        _, cycles = machine.run(
            asm.assemble(), entry="bench", iterations=iterations
        )
        return cycles / iterations

    table = TextTable(
        "Ablation — stack canaries (related work [26])",
        ["canary", "cycles/call", "leak-replay attack"],
    )
    outcomes = {}
    costs = {}
    for kind in CanaryKind.ALL:
        costs[kind] = measure(kind)
        outcomes[kind] = "escaped" if canary_leak_replay(kind) else "detected"
        table.add_row(kind, costs[kind], outcomes[kind])
    ok = (
        outcomes[CanaryKind.NONE] == "escaped"
        and outcomes[CanaryKind.GLOBAL] == "escaped"
        and outcomes[CanaryKind.PACED] == "detected"
        and costs[CanaryKind.PACED] > costs[CanaryKind.NONE]
    )
    return ExperimentRecord(
        experiment_id="A7 / Related work [26] — PACed canaries",
        paper_claim=(
            "PAuth stack canaries exist for user space; a global guard "
            "cannot survive an arbitrary-read adversary"
        ),
        measured=(
            f"leak-replay: none {outcomes[CanaryKind.NONE]}, global "
            f"{outcomes[CanaryKind.GLOBAL]}, paced "
            f"{outcomes[CanaryKind.PACED]}; paced costs "
            f"{costs[CanaryKind.PACED] - costs[CanaryKind.NONE]:.0f} "
            f"cycles/call"
        ),
        reproduced=ok,
        tables=[table],
    )

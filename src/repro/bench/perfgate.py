"""Perf gate: host-side simulator throughput on pinned workloads.

The experiment runners measure *simulated* cycles — numbers that must
never change when the host-side caches (:mod:`repro.hotpath`) are toggled.
This module measures the other axis: how fast the simulator itself runs,
as instructions/second, syscalls/second and PAC-ops/second, on three
pinned workloads:

* ``lmbench_null_call`` — the E2 syscall round-trip loop on a fully
  booted ``full``-profile system (the paper's Figure 3 hot path);
* ``callbench_camouflage`` — the E1 instrumented-call loop (Figure 2);
* ``pac_engine`` — a bare :class:`~repro.arch.pac.PACEngine` sign/auth
  loop with the reuse pattern kernel pointers exhibit.

Each workload runs twice — caches enabled, then force-disabled via
:func:`repro.hotpath.disabled_caches` — and the report records both
throughputs, their ratio (``speedup``), the cache counters, and whether
the simulated cycle counts matched between the two runs
(``architectural_match``; the gate hard-fails if they ever diverge).

**Gating.**  Absolute throughput is a property of the host, so the
committed baseline normalises it by a ``host_score`` — a fixed
pure-Python calibration loop timed on the same machine right before the
workloads.  The gate fails when

* any workload's normalised cached throughput regresses more than the
  tolerance (default 25%) against the baseline, or
* a cached run stops being architecturally identical to the uncached one.

``speedup`` is reported but not gated: it divides by the *uncached*
throughput, so making the cold path faster (a faster cipher, say)
shrinks it while nothing got slower.

Run via ``python -m repro perf`` (see ``--help``); CI keeps
``BENCH_perf.json`` as the committed baseline and uploads the fresh
report as a workflow artifact.
"""

from __future__ import annotations

import json
import platform
import time

from repro import hotpath
from repro.bench.harness import TextTable

__all__ = [
    "SCHEMA_VERSION",
    "TOLERANCE",
    "DEFAULT_BASELINE",
    "run_perf",
    "compare",
    "load_report",
    "write_report",
    "render_report",
]

SCHEMA_VERSION = 1

#: Allowed regression band for the gate comparisons.
TOLERANCE = 0.25

DEFAULT_BASELINE = "BENCH_perf.json"

#: Iterations of the calibration loop (fixed: the score is loops/sec).
_CALIBRATION_LOOPS = 200_000


def _calibrate():
    """Machine-speed index: a fixed pure-Python loop, in loops/sec.

    Interpreter-bound integer/dict work, like the simulator itself, so
    dividing a workload's throughput by this score yields a number
    comparable across hosts (and across CI runner generations).
    """
    table = {}
    accumulator = 0
    start = time.perf_counter()
    for index in range(_CALIBRATION_LOOPS):
        accumulator = (accumulator * 33 + index) & 0xFFFFFFFF
        table[index & 0xFF] = accumulator
    elapsed = time.perf_counter() - start
    return _CALIBRATION_LOOPS / elapsed


# -- workload measurements ----------------------------------------------------


def _measure_lmbench(iterations):
    from repro.workloads.lmbench import _measure_one, build_lmbench_system

    system = build_lmbench_system("full")
    system.map_user_stack()
    cpu = system.cpu
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    cycles_per_iteration = _measure_one(system, "null_call", iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "syscalls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_iteration,
        "cache_stats": {
            "decode": cpu.decode_stats.to_dict(),
            "pac": cpu.pac.cache_stats.to_dict(),
        },
    }


def _measure_callbench(iterations):
    from repro.workloads.callbench import _prepare, _run_prepared

    cpu, program = _prepare("camouflage", iterations)
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    cycles_per_call = _run_prepared(cpu, program, iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "calls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_call,
        "cache_stats": {
            "decode": cpu.decode_stats.to_dict(),
            "pac": cpu.pac.cache_stats.to_dict(),
        },
    }


def _measure_lmbench_profiled(iterations):
    """The lmbench workload with the function-graph profiler attached.

    Pinned alongside the detached run so the gate tracks the *observer
    cost* of profiling: host throughput may drop (every retired
    instruction fans out to a listener), but the architectural fields
    must stay identical to ``lmbench_null_call`` — attaching a profiler
    never changes a simulated outcome.
    """
    from repro.observe import ProfileSession
    from repro.workloads.lmbench import _measure_one, build_lmbench_system

    system = build_lmbench_system("full")
    system.map_user_stack()
    cpu = system.cpu
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    session = ProfileSession(system, capacity=65536)
    with session as profiler:
        cycles_per_iteration = _measure_one(system, "null_call", iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    retired = session.tracer.stats.get("insn_retire")
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "syscalls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_iteration,
        "profiled_symbols": len(profiler.exclusive),
        "conserved": bool(
            retired is not None and profiler.total_cycles == retired.total
        ),
        "cache_stats": {
            "decode": cpu.decode_stats.to_dict(),
            "pac": cpu.pac.cache_stats.to_dict(),
        },
    }


def _measure_pac_engine(operations):
    from repro.arch.pac import PACEngine
    from repro.arch.registers import PAuthKey

    engine = PACEngine()
    key = PAuthKey(lo=0x0123_4567_89AB_CDEF, hi=0xFEDC_BA98_7654_3210)
    base = 0xFFFF_0000_0801_0000
    modifiers = tuple(0x1000 + 0x40 * index for index in range(16))
    checksum = 0
    start = time.perf_counter()
    for index in range(operations):
        pointer = base + 8 * (index % 64)
        modifier = modifiers[index % len(modifiers)]
        signed = engine.add_pac(pointer, modifier, key)
        result = engine.auth_pac(signed, modifier, key)
        checksum ^= result.pointer
    elapsed = time.perf_counter() - start
    pac_ops = 2 * operations  # one sign + one authenticate per loop
    return {
        "iterations": operations,
        "wall_seconds": elapsed,
        "pac_ops": pac_ops,
        "pac_ops_per_sec": pac_ops / elapsed,
        "checksum": checksum,
        "cache_stats": {"pac": engine.cache_stats.to_dict()},
    }


_WORKLOADS = (
    ("lmbench_null_call", _measure_lmbench, "instructions_per_sec"),
    ("lmbench_profiled", _measure_lmbench_profiled, "instructions_per_sec"),
    ("callbench_camouflage", _measure_callbench, "instructions_per_sec"),
    ("pac_engine", _measure_pac_engine, "pac_ops_per_sec"),
)

#: Fields that must be bit-identical between cached and uncached runs —
#: the caches are host-side only, never architecturally visible.
_ARCH_FIELDS = ("cycles_per_iteration", "instructions", "checksum")


def run_perf(iterations=150, pac_operations=3000):
    """Measure every pinned workload cached and uncached; full report."""
    sizes = {
        "lmbench_null_call": iterations,
        "lmbench_profiled": iterations,
        "callbench_camouflage": iterations,
        "pac_engine": pac_operations,
    }
    report = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "host_score": _calibrate(),
        "caches": hotpath.snapshot(),
        "workloads": {},
    }
    for name, measure, throughput_field in _WORKLOADS:
        warmup = max(10, sizes[name] // 10)
        measure(warmup)  # discard: excludes import/cold-start effects
        cached = measure(sizes[name])
        with hotpath.disabled_caches():
            measure(warmup)
            uncached = measure(sizes[name])
        matches = all(
            cached.get(field) == uncached.get(field)
            for field in _ARCH_FIELDS
            if field in cached or field in uncached
        )
        report["workloads"][name] = {
            "throughput_field": throughput_field,
            "cached": cached,
            "uncached": uncached,
            "speedup": cached[throughput_field] / uncached[throughput_field],
            "architectural_match": matches,
        }
    detached = report["workloads"].get("lmbench_null_call")
    attached = report["workloads"].get("lmbench_profiled")
    if detached is not None and attached is not None:
        # The observer-cost record the gate tracks across revisions:
        # host slowdown from the attached listener, and the hard
        # invariant that the simulated cycle count did not move.
        report["observer"] = {
            "attached_instructions_per_sec": attached["cached"][
                "instructions_per_sec"
            ],
            "detached_instructions_per_sec": detached["cached"][
                "instructions_per_sec"
            ],
            "host_overhead": (
                detached["cached"]["instructions_per_sec"]
                / attached["cached"]["instructions_per_sec"]
            ),
            "architectural_match": (
                attached["cached"]["cycles_per_iteration"]
                == detached["cached"]["cycles_per_iteration"]
            ),
            "conserved": attached["cached"]["conserved"],
        }
    return report


# -- persistence --------------------------------------------------------------


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path):
    with open(path) as handle:
        return json.load(handle)


# -- the gate -----------------------------------------------------------------


def compare(current, baseline, tolerance=TOLERANCE):
    """Gate the current report against a baseline; list of failures.

    An empty list means the gate passes.  Throughputs are compared
    normalised by each report's own ``host_score``, so a faster or
    slower runner does not masquerade as a simulator change.
    """
    failures = []
    floor = 1.0 - tolerance
    for name, entry in current["workloads"].items():
        if not entry["architectural_match"]:
            failures.append(
                f"{name}: cached and uncached runs disagree architecturally"
            )
        base_entry = baseline.get("workloads", {}).get(name)
        if base_entry is None:
            failures.append(f"{name}: missing from baseline")
            continue
        field = entry["throughput_field"]
        normalized = entry["cached"][field] / current["host_score"]
        base_normalized = (
            base_entry["cached"][field] / baseline["host_score"]
        )
        if normalized < base_normalized * floor:
            failures.append(
                f"{name}: normalised throughput regressed "
                f"{100 * (1 - normalized / base_normalized):.1f}% "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
    observer = current.get("observer")
    if observer is not None:
        if not observer["architectural_match"]:
            failures.append(
                "observer: attaching the profiler changed the simulated "
                "cycles/iteration"
            )
        if not observer["conserved"]:
            failures.append(
                "observer: per-symbol cycles do not sum to the tracer total"
            )
    return failures


# -- rendering ----------------------------------------------------------------


def render_report(report):
    """Human-readable throughput and cache-counter tables."""
    table = TextTable(
        "Simulator throughput (host-side)",
        ["workload", "metric", "cached", "uncached", "speedup", "arch-ok"],
    )
    for name, entry in sorted(report["workloads"].items()):
        field = entry["throughput_field"]
        table.add_row(
            name,
            field,
            f"{entry['cached'][field]:,.0f}",
            f"{entry['uncached'][field]:,.0f}",
            f"{entry['speedup']:.2f}x",
            "yes" if entry["architectural_match"] else "NO",
        )
    caches = TextTable(
        "Cache counters (cached runs)",
        ["workload", "cache", "hits", "misses", "flushes"],
    )
    for name, entry in sorted(report["workloads"].items()):
        for cache_name, stats in sorted(
            entry["cached"].get("cache_stats", {}).items()
        ):
            caches.add_row(
                name,
                cache_name,
                stats.get("hits", 0),
                stats.get("misses", 0),
                stats.get("flushes", "-"),
            )
    lines = [table.render(), "", caches.render()]
    observer = report.get("observer")
    if observer is not None:
        lines.append("")
        lines.append(
            f"profiler observer cost: {observer['host_overhead']:.2f}x "
            f"host slowdown, architectural match: "
            f"{'yes' if observer['architectural_match'] else 'NO'}, "
            f"cycles conserved: "
            f"{'yes' if observer['conserved'] else 'NO'}"
        )
    lines.append("")
    lines.append(
        f"host_score: {report['host_score']:,.0f} calibration loops/sec"
        f" (python {report['python']})"
    )
    return "\n".join(lines)

"""Function-call micro-benchmark (paper Figure 2).

Measures the per-call cost a backward-edge CFI scheme adds to a
frame-carrying function: an uninstrumented caller invokes an
instrumented empty callee in a tight loop, and the cycle delta against
the uninstrumented callee is the per-call overhead.  At the evaluation
platform's 1.2 GHz this reproduces the nanosecond figures of Figure 2:
SP-only (cheapest, weakest) < Camouflage < PARTS (LTO function ids are
expensive to materialise).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cpu import CYCLES_PER_SECOND
from repro.cfi.instrument import Compiler
from repro.cfi.policy import ProtectionProfile
from repro.workloads.guest import BareMachine, emit_call_loop

__all__ = [
    "CallCost",
    "build_call_loop",
    "run_call_loop",
    "cycles_per_call",
    "measure_call_cost",
    "figure2_series",
]


@dataclass(frozen=True)
class CallCost:
    """Result of one scheme's measurement."""

    scheme: str
    cycles_per_call: float
    overhead_cycles: float

    @property
    def overhead_ns(self):
        return self.overhead_cycles / (CYCLES_PER_SECOND / 1e9)


def build_call_loop(scheme_name, iterations, compat=False,
                    features=("pauth",)):
    """The benchmark machine with its call loop placed: (machine, program).

    Split from :func:`run_call_loop` so callers (the ``profile`` CLI,
    the profiler and differential tests) can run or observe the
    steady-state loop alone, excluding assembly and mapping setup.
    """
    profile = ProtectionProfile(
        name=scheme_name or "none",
        backward_scheme=scheme_name,
        compat=compat,
    )
    compiler = Compiler(profile)
    machine = BareMachine(features)
    if profile.protects_backward:
        # Give the instruction keys arbitrary boot values.
        machine.cpu.regs.keys.ia.lo = 0x1111
        machine.cpu.regs.keys.ib.lo = 0x2222

    asm = machine.assembler()
    compiler.function(asm, "callee", [])
    emit_call_loop(asm, "callee", iterations)
    return machine, machine.place(asm.assemble())


def run_call_loop(machine, program, iterations):
    """Run a placed call loop once; cycles per call."""
    _, cycles = machine.call(
        program.address_of("bench"), iterations=iterations
    )
    return cycles / iterations


def cycles_per_call(scheme_name, iterations, compat=False,
                    features=("pauth",)):
    """Cycles per call of an empty frame-carrying function."""
    machine, program = build_call_loop(
        scheme_name, iterations, compat, features
    )
    return run_call_loop(machine, program, iterations)


def measure_call_cost(scheme_name, iterations=200, compat=False):
    """Measure one scheme against the uninstrumented baseline."""
    baseline = cycles_per_call(None, iterations)
    cycles = (
        baseline
        if scheme_name is None
        else cycles_per_call(scheme_name, iterations, compat=compat)
    )
    return CallCost(
        scheme=scheme_name or "none",
        cycles_per_call=cycles,
        overhead_cycles=cycles - baseline,
    )


def figure2_series(iterations=200):
    """The three bars of Figure 2 (plus the baseline for reference).

    Order matches the figure: 1) the proposed modifier (32-bit SP +
    function address), 2) PARTS, 3) plain SP as supported by Clang.
    """
    return [
        measure_call_cost("camouflage", iterations),
        measure_call_cost("parts", iterations),
        measure_call_cost("sp-only", iterations),
        measure_call_cost(None, iterations),
    ]

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

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU, CYCLES_PER_SECOND
from repro.arch.registers import FP, LR
from repro.arch.isa import SP
from repro.cfi.instrument import Compiler
from repro.cfi.policy import ProtectionProfile
from repro.mem.pagetable import Permissions

__all__ = ["CallCost", "measure_call_cost", "figure2_series"]

_TEXT_BASE = 0xFFFF_0000_0801_0000
_STACK_TOP = 0xFFFF_0000_0900_0000


@dataclass(frozen=True)
class CallCost:
    """Result of one scheme's measurement."""

    scheme: str
    cycles_per_call: float
    overhead_cycles: float

    @property
    def overhead_ns(self):
        return self.overhead_cycles / (CYCLES_PER_SECOND / 1e9)


def _prepare(scheme_name, iterations, compat=False, features=("pauth",)):
    """Build the benchmark machine; returns (cpu, program).

    Split from :func:`_build_and_run` so callers (the ``profile`` CLI,
    the profiler and differential tests) can run or observe the
    steady-state loop alone, excluding assembly and mapping setup.
    """
    profile = ProtectionProfile(
        name=scheme_name or "none",
        backward_scheme=scheme_name,
        compat=compat,
    )
    compiler = Compiler(profile)
    cpu = CPU(features=frozenset(features))
    if profile.protects_backward:
        # Give the instruction keys arbitrary boot values.
        cpu.regs.keys.ia.lo = 0x1111
        cpu.regs.keys.ib.lo = 0x2222

    asm = Assembler(_TEXT_BASE)
    compiler.function(asm, "callee", [])

    asm.fn("bench")
    # Hand-written, *uninstrumented* driver so only the callee's
    # instrumentation is measured.
    asm.emit(isa.StpPre(FP, LR, SP, -16), isa.MovReg(FP, SP))
    asm.mov_imm(19, iterations)
    asm.label("loop")
    asm.emit(
        isa.Bl("callee"),
        isa.SubsImm(19, 19, 1),
        isa.BCond("ne", "loop"),
        isa.LdpPost(FP, LR, SP, 16),
        isa.Ret(),
    )
    program = asm.assemble()

    cpu.mmu.map_range(
        _TEXT_BASE, 0x4000, 0x400, Permissions(r_el1=True, x_el1=True)
    )
    cpu.mmu.place_program(program)
    cpu.mmu.map_range(
        _STACK_TOP - 0x4000, 0x4000, 0x500, Permissions.kernel_data()
    )
    return cpu, program


def _run_prepared(cpu, program, iterations):
    """Run the benchmark loop on a prepared machine; cycles per call."""
    _, cycles = cpu.call(
        program.address_of("bench"),
        stack_top=_STACK_TOP,
        max_steps=100 * iterations + 1000,
    )
    return cycles / iterations


def _build_and_run(scheme_name, iterations, compat=False, features=("pauth",)):
    """Cycles per call of an empty frame-carrying function."""
    cpu, program = _prepare(scheme_name, iterations, compat, features)
    return _run_prepared(cpu, program, iterations)


def measure_call_cost(scheme_name, iterations=200, compat=False):
    """Measure one scheme against the uninstrumented baseline."""
    baseline = _build_and_run(None, iterations)
    cycles = (
        baseline
        if scheme_name is None
        else _build_and_run(scheme_name, iterations, compat=compat)
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

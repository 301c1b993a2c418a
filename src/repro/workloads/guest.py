"""Host-driven guest programs: one bare core and one EL0 runner.

Every number the reproduction reports comes from running a guest
program, and this module is the one place that knows how such a
program is laid out and run:

* :class:`BareMachine` — a lone core with a text region, a stack and a
  data page mapped at EL1 (no kernel): the Figure 2 call loop, the
  canary ablation and the canary leak-replay attack run on it;
* :func:`run_el0` — ``main:`` assembled at ``USER_TEXT_BASE`` on a
  booted :class:`~repro.kernel.system.System`, optionally wrapped in an
  ``x19`` counted loop, loaded and run at EL0 on a task: the syscall
  micro-benchmarks, the user workload mixes and the single faulting
  syscalls of the crash and injection scenarios;
* :func:`emit_call_loop` — the bare-core driver: ``bench:`` calls one
  function in a counted loop from an uninstrumented frame;
* :func:`syscall` — the one syscall sequence
  ``[mov x0, arg;] mov x8, nr; svc #0`` every EL0 program emits.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.isa import SP
from repro.arch.registers import FP, LR
from repro.kernel import layout
from repro.kernel.system import USER_STEP_BUDGET
from repro.mem.pagetable import Permissions

__all__ = [
    "TEXT_BASE",
    "STACK_TOP",
    "DATA_BASE",
    "BareMachine",
    "emit_call_loop",
    "syscall",
    "step_budget",
    "run_el0",
    "syscall_cycles",
]

#: Bare-core layout: EL1 text, a downward stack ending at
#: ``STACK_TOP`` and a data (canary guard) region.
TEXT_BASE = 0xFFFF_0000_0801_0000
STACK_TOP = 0xFFFF_0000_0900_0000
DATA_BASE = 0xFFFF_0000_0A00_0000


#: Steps one pass of a counted loop may take: the heaviest body a
#: workload loops (lmbench's ``select_10fd``, ~600) stays well inside.
STEPS_PER_ITERATION = 5_000


def step_budget(iterations=None):
    """Steps a guest program may take: ``System.run_user``'s budget,
    raised to :data:`STEPS_PER_ITERATION` a pass for a counted loop of
    ``iterations`` passes, so the budget grows with the loop."""
    if iterations is None:
        return USER_STEP_BUDGET
    return max(USER_STEP_BUDGET, STEPS_PER_ITERATION * iterations)


class BareMachine:
    """A CPU with one text region, a stack and a data page mapped."""

    def __init__(self, features=frozenset({"pauth"})):
        self.cpu = CPU(features=frozenset(features))
        self.cpu.mmu.map_range(
            TEXT_BASE, 0x8000, 0x400, Permissions(r_el1=True, x_el1=True)
        )
        self.cpu.mmu.map_range(
            STACK_TOP - 0x8000, 0x8000, 0x500, Permissions.kernel_data()
        )
        self.cpu.mmu.map_range(
            DATA_BASE, 0x2000, 0x600, Permissions.kernel_data()
        )

    def assembler(self):
        return Assembler(TEXT_BASE)

    def place(self, program):
        return self.cpu.mmu.place_program(program)

    def call(self, address, args=(), iterations=None):
        """Call ``address`` on the machine's stack, within
        :func:`step_budget` of ``iterations``: (x0, cycles)."""
        return self.cpu.call(
            address, args=args, stack_top=STACK_TOP,
            max_steps=step_budget(iterations),
        )

    def run(self, program, entry="main", args=(), iterations=None):
        """Place ``program`` and :meth:`call` ``entry``: (x0, cycles)."""
        self.place(program)
        return self.call(program.address_of(entry), args, iterations)


def emit_call_loop(asm, callee, iterations):
    """Emit ``bench:``, which calls ``callee`` ``iterations`` times.

    The driver is hand-written and *uninstrumented*, so a measurement
    sees only the callee's own instrumentation.
    """
    asm.fn("bench")
    asm.emit(isa.StpPre(FP, LR, SP, -16), isa.MovReg(FP, SP))
    asm.mov_imm(19, iterations)
    asm.label("loop")
    asm.emit(
        isa.Bl(callee),
        isa.SubsImm(19, 19, 1),
        isa.BCond("ne", "loop"),
        isa.LdpPost(FP, LR, SP, 16),
        isa.Ret(),
    )


def syscall(asm, number, x0=None):
    """Emit ``[mov x0, #x0;] mov x8, #number; svc #0``."""
    if x0 is not None:
        asm.mov_imm(0, x0)
    asm.mov_imm(8, number)
    asm.emit(isa.Svc(0))


def run_el0(system, body, iterations=None, task=None, max_steps=None):
    """Run ``main: body; hlt`` at EL0 on ``task``; returns its cycles.

    ``body(asm)`` emits the program; with ``iterations`` it runs
    ``iterations`` times inside an ``x19`` count-down loop.  The
    program is assembled at ``USER_TEXT_BASE`` and loaded there, and
    runs on ``task`` (default: the current one) until it halts, within
    :func:`step_budget` of ``iterations`` unless ``max_steps`` narrows
    it.  The caller maps the user stack first.
    """
    user = Assembler(layout.USER_TEXT_BASE)
    user.fn("main")
    if iterations is not None:
        user.mov_imm(19, iterations)
        user.label("loop")
    body(user)
    if iterations is not None:
        user.emit(isa.SubsImm(19, 19, 1), isa.BCond("ne", "loop"))
    user.emit(isa.Hlt())
    program = system.load_user_program(user.assemble())
    if max_steps is None:
        max_steps = step_budget(iterations)
    return system.run_user(
        system.tasks.current if task is None else task,
        program.address_of("main"),
        max_steps=max_steps,
    )


def syscall_cycles(system, name, iterations, x0=None):
    """Cycles per round trip of a loop of ``name`` syscalls at EL0."""
    number = system.syscall_numbers[name]
    cycles = run_el0(
        system, lambda user: syscall(user, number, x0), iterations
    )
    return cycles / iterations

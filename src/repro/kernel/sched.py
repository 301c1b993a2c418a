"""The scheduler and ``cpu_switch_to`` (paper Section 5.2).

``cpu_switch_to(prev, next)`` is the hand-written context-switch
function: it stores the callee-saved registers, LR and SP of the
outgoing task into its ``task_struct`` and loads the incoming task's.
A saved SP sitting in plain kernel memory is an attractive target — an
attacker who rewrites it redirects the next context switch onto a fake
stack.  The protected build therefore *signs the switched-from task's
SP and authenticates the switched-to task's SP* with the
pointer-integrity scheme, keyed by the task_struct address and the
``cpu_context_sp`` member constant.

Scheduling policy itself (picking the next task) is host-side Python —
the measured code is only the switch path.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.isa import SP
from repro.arch.registers import IP1, LR
from repro.cfi.accessors import emit_keyed_op
from repro.cfi.keys import KeyRole
from repro.kernel.task import (
    TASK_CALLEE_SAVED_OFFSET,
    TASK_CONTEXT_PC_OFFSET,
    TASK_CONTEXT_SP_OFFSET,
)

__all__ = ["build_cpu_switch_to", "Scheduler", "CPU_SWITCH_TO_SYMBOL"]

CPU_SWITCH_TO_SYMBOL = "cpu_switch_to"

_SCRATCH_MOD = 9


def build_cpu_switch_to(asm, profile, task_type, current_ptr_address):
    """Emit ``cpu_switch_to`` into ``asm``.

    X0 = prev task struct, X1 = next task struct.  Follows the arm64
    original: callee-saved x19..x28, then LR and SP; the SP slots get
    the PAuth treatment when the profile enables DFI.  Finally the
    ``current`` pointer (at the fixed per-CPU address) is updated and
    control returns on the *next* task's stack via its saved LR.
    """
    field = task_type.field("cpu_context_sp")
    protect = field.protected and profile.dfi
    key = profile.key_for(KeyRole.DFI) if protect else None

    asm.fn(CPU_SWITCH_TO_SYMBOL)
    # Save callee-saved registers of prev.
    for index, reg in enumerate(range(19, 29, 2)):
        offset = TASK_CALLEE_SAVED_OFFSET + 16 * index
        asm.emit(isa.Stp(reg, reg + 1, 0, offset))
    asm.emit(isa.Str(LR, 0, TASK_CONTEXT_PC_OFFSET))
    # Save (and optionally sign) prev's SP.
    asm.emit(isa.MovReg(IP1, SP))
    if protect:
        asm.emit(
            isa.Movz(_SCRATCH_MOD, field.constant, 0),
            isa.Bfi(_SCRATCH_MOD, 0, 16, 48),
        )
        emit_keyed_op(
            asm, profile, key, IP1, _SCRATCH_MOD, authenticate=False
        )
    asm.emit(isa.Str(IP1, 0, TASK_CONTEXT_SP_OFFSET))
    # Load (and authenticate) next's SP.
    asm.emit(isa.Ldr(IP1, 1, TASK_CONTEXT_SP_OFFSET))
    if protect:
        asm.emit(
            isa.Movz(_SCRATCH_MOD, field.constant, 0),
            isa.Bfi(_SCRATCH_MOD, 1, 16, 48),
        )
        emit_keyed_op(
            asm, profile, key, IP1, _SCRATCH_MOD, authenticate=True
        )
    asm.emit(isa.MovReg(SP, IP1))
    # Restore next's callee-saved registers and LR.
    for index, reg in enumerate(range(19, 29, 2)):
        offset = TASK_CALLEE_SAVED_OFFSET + 16 * index
        asm.emit(isa.Ldp(reg, reg + 1, 1, offset))
    asm.emit(isa.Ldr(LR, 1, TASK_CONTEXT_PC_OFFSET))
    # current = next
    asm.mov_imm(_SCRATCH_MOD, current_ptr_address)
    asm.emit(isa.Str(1, _SCRATCH_MOD, 0))
    asm.emit(isa.Ret())
    return asm


class Scheduler:
    """Host side of a context switch: drives the simulated switch path."""

    def __init__(self, system):
        self.system = system
        self.switches = 0

    def switch_to(self, next_task, max_steps=100_000):
        """Run ``cpu_switch_to`` from host context.

        Saves the live CPU context into the current task, restores the
        next task's context, and leaves the CPU ready to resume it.
        """
        system = self.system
        prev = system.tasks.current
        address = system.kernel_symbol(CPU_SWITCH_TO_SYMBOL)
        cpu = system.cpu
        cpu.regs.write(0, prev.address)
        cpu.regs.write(1, next_task.address)
        start_cycles = cpu.cycles
        cpu.call(address, args=(prev.address, next_task.address), max_steps=max_steps)
        tracer = getattr(system, "tracer", None)
        if tracer is not None:
            tracer.emit(
                "context_switch",
                cycle=cpu.cycles,
                cost=cpu.cycles - start_cycles,
                prev=prev.tid,
                next=next_task.tid,
                prev_name=prev.name,
                next_name=next_task.name,
            )
        system.tasks.set_current(next_task)
        # Keep fault attribution in step with the switch: set_current
        # only updates the task table, so without this a fault taken
        # right after the switch would be logged against the *previous*
        # task.
        system.faults.current_task_id = next_task.tid
        self.switches += 1
        return next_task

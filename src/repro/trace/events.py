"""Typed trace events and the event taxonomy.

Two layers of events flow through a :class:`~repro.trace.Tracer`:

* **architectural** events come straight from the simulated core — one
  per retired instruction, PAuth computation, exception entry/return,
  key-register write or delivered IRQ.  They carry the raw facts (PC,
  mnemonic, cycle cost) and nothing about what the kernel *meant*;
* **semantic** events are emitted by the kernel layers (entry, sched,
  workqueue, fault) or derived from architectural events by the entry
  tracepoints: system-call enter/exit, key-bank switches with their
  per-key cycle accounting (the paper's Section 6.1.1 numbers), context
  switches, work execution and brute-force panic-threshold ticks.

Events are deliberately tiny (``__slots__``, one free-form ``data``
dict) so tracing a few hundred thousand instructions stays cheap.
"""

from __future__ import annotations

__all__ = [
    "TraceEvent",
    "ARCH_EVENTS",
    "KERNEL_EVENTS",
    "ALL_EVENTS",
    "INSN_RETIRE",
    "PAC_ADD",
    "PAC_AUTH",
    "PAC_STRIP",
    "PAC_GENERIC",
    "AUTH_FAILURE",
    "EXC_ENTRY",
    "EXC_RETURN",
    "IRQ_DELIVERED",
    "KEY_WRITE",
    "KEY_BANK_SELECT",
    "SYSCALL_ENTER",
    "SYSCALL_EXIT",
    "IRQ_ENTER",
    "IRQ_EXIT",
    "CONTEXT_SWITCH",
    "KEY_SWITCH",
    "KEY_BANK_SWITCH",
    "WORK_EXEC",
    "FAULT",
    "PANIC_TICK",
]

# -- architectural (CPU-emitted) events -------------------------------------

#: One retired instruction (data: pc, mnemonic, el).
INSN_RETIRE = "insn_retire"
#: One PAC insertion in the PAC engine (data: host — True off the core).
PAC_ADD = "pac_add"
#: One PAC authentication (data: ok).
PAC_AUTH = "pac_auth"
#: One XPAC* strip.
PAC_STRIP = "pac_strip"
#: One PACGA generic MAC.
PAC_GENERIC = "pac_generic"
#: A failed authentication observed on the core (data: key, pointer).
AUTH_FAILURE = "auth_failure"
#: Architectural exception entry (data: kind, source_el, syscall).
EXC_ENTRY = "exception_entry"
#: ERET (data: target_el, return_pc).
EXC_RETURN = "exception_return"
#: An IRQ left the pending line and entered the core.
IRQ_DELIVERED = "irq_delivered"
#: One MSR to half of a PAuth key register (data: register, el).
KEY_WRITE = "key_write"
#: A write of the banked-keys select flag (data: bank).
KEY_BANK_SELECT = "key_bank_select"

ARCH_EVENTS = (
    INSN_RETIRE,
    PAC_ADD,
    PAC_AUTH,
    PAC_STRIP,
    PAC_GENERIC,
    AUTH_FAILURE,
    EXC_ENTRY,
    EXC_RETURN,
    IRQ_DELIVERED,
    KEY_WRITE,
    KEY_BANK_SELECT,
)

# -- semantic (kernel-layer) events -----------------------------------------

#: SVC from EL0 reached the kernel (data: nr).
SYSCALL_ENTER = "syscall_enter"
#: ERET back to EL0 after a syscall (cost: whole round trip; data: nr).
SYSCALL_EXIT = "syscall_exit"
#: User-mode IRQ entered the kernel.
IRQ_ENTER = "irq_enter"
#: ERET back to EL0 after an interrupt (cost: whole round trip).
IRQ_EXIT = "irq_exit"
#: One ``cpu_switch_to`` run (cost: switch cycles; data: prev, next).
CONTEXT_SWITCH = "context_switch"
#: One 128-bit key installed (cost: cycles attributed to that key;
#: data: key, bank).
KEY_SWITCH = "key_switch"
#: One full bank switch — entry key-setter or exit restore (cost: all
#: cycles spent in the switching code; data: bank, keys).
KEY_BANK_SWITCH = "key_bank_switch"
#: One work item executed through ``run_work`` (cost: cycles).
WORK_EXEC = "work_exec"
#: One fault handled by the fault manager (data: fault, pauth).
FAULT = "fault"
#: One tick of the Section 5.4 brute-force counter (data: failures,
#: remaining).
PANIC_TICK = "panic_threshold_tick"

KERNEL_EVENTS = (
    SYSCALL_ENTER,
    SYSCALL_EXIT,
    IRQ_ENTER,
    IRQ_EXIT,
    CONTEXT_SWITCH,
    KEY_SWITCH,
    KEY_BANK_SWITCH,
    WORK_EXEC,
    FAULT,
    PANIC_TICK,
)

ALL_EVENTS = ARCH_EVENTS + KERNEL_EVENTS


class TraceEvent:
    """One trace record: what happened, when, and how many cycles.

    ``cycle`` is the core's cycle counter when the event was emitted;
    ``cost`` is the cycles attributed to the event itself (0 for pure
    markers such as :data:`SYSCALL_ENTER`).
    """

    __slots__ = ("kind", "cycle", "cost", "data")

    def __init__(self, kind, cycle, cost=0, data=None):
        self.kind = kind
        self.cycle = cycle
        self.cost = cost
        self.data = data if data is not None else {}

    def to_dict(self):
        out = {"kind": self.kind, "cycle": self.cycle, "cost": self.cost}
        if self.data:
            out.update(self.data)
        return out

    def __repr__(self):
        extra = "".join(f" {k}={v!r}" for k, v in sorted(self.data.items()))
        return (
            f"<TraceEvent {self.kind} @{self.cycle}"
            f" cost={self.cost}{extra}>"
        )

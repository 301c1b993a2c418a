"""Tracing & metrics for the Camouflage reproduction (`repro.trace`).

The evaluation in the paper stands on counting exactly what the
hardware does — PAuth ops at 4 cycles, ~9 cycles per key per switch,
the syscall entry/exit key choreography (Section 6.1) — so this package
gives every layer of the stack a first-class event stream instead of
end-of-run totals:

* the **core** emits architectural events (instruction retire, PAC
  insert/auth/strip, auth failures, exception entry/return, key-register
  writes) behind a nullable ``cpu.tracer`` hook;
* the **kernel layers** emit semantic events (syscall enter/exit,
  key-bank switches with per-key cycle attribution, context switches,
  work execution, fault-manager panic ticks);
* the **tracer** aggregates both into a bounded ring buffer and
  per-event-kind cycle statistics (count, total, min/max, histogram),
  with JSON export and text summaries.

A tracer reaches a core one way: ``attach_tracer(tracer)`` /
``detach_tracer()``, which :class:`~repro.arch.cpu.CPU` and
:class:`~repro.kernel.system.System` both provide (the system's calls
its core's, then wires the fault manager and the entry tracepoints).
:class:`TraceSession` calls them on its target; with no target it fills
the process-wide slot, which every ``CPU`` created inside the session
reads when it is constructed.

Quick use::

    from repro.kernel import System
    from repro.trace import TraceSession

    system = System(profile="full")
    with TraceSession(system) as tracer:
        ...  # run syscalls, switches, workloads
    print(tracer.count("syscall_enter"), tracer.to_json())

or trace any existing workload wholesale from the command line::

    python -m repro trace fig2 --json trace.json
"""

from repro.trace.events import (
    ALL_EVENTS,
    ARCH_EVENTS,
    KERNEL_EVENTS,
    TraceEvent,
)
from repro.trace.ring import RingBuffer
from repro.trace.tracer import (
    CycleStats,
    Tracer,
    TraceSession,
    global_tracer,
)

__all__ = [
    "ALL_EVENTS",
    "ARCH_EVENTS",
    "KERNEL_EVENTS",
    "TraceEvent",
    "RingBuffer",
    "CycleStats",
    "Tracer",
    "TraceSession",
    "global_tracer",
]

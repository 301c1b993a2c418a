"""The tracer: ring buffer and per-event-kind cycle statistics.

One :class:`Tracer` collects everything a traced run produces:

* every event goes through :meth:`Tracer.emit`, which appends it to the
  ring buffer, folds its cost into the per-kind cycle statistics (whose
  ``count`` is the one per-kind event count), and fans it out to
  registered listeners (the kernel's semantic tracepoints are such
  listeners);
* the per-instruction fast path (:meth:`Tracer.insn`) additionally
  maintains the instruction-mix table (cycles per mnemonic) that lets a
  benchmark break its total down by instruction class.

The *disabled* path costs nothing: components hold a nullable tracer
reference and emit only behind a single ``is not None`` check, and the
tracer is pure host-side bookkeeping — attaching one never changes a
single simulated cycle.

:class:`TraceSession` is the lifecycle wrapper: a context manager that
calls ``attach_tracer`` on its target and ``detach_tracer`` on exit.
A :class:`~repro.arch.cpu.CPU` attaches its architectural events, a
:class:`~repro.kernel.system.System` its core's plus the kernel
tracepoints, and no target means the process-wide slot: every core
created while it holds a tracer attaches it (and a ``System`` booted
around that core layers its tracepoints on top) — which is how existing
benchmarks run under tracing without any plumbing changes.
"""

from __future__ import annotations

import json

from repro.arch.isa import PAUTH_CYCLES
from repro.errors import ReproError
from repro.trace import events as ev
from repro.trace.ring import RingBuffer

__all__ = [
    "CycleStats",
    "Tracer",
    "TraceSession",
    "global_tracer",
]

#: PAC-engine operation name -> event kind.
_PAC_EVENT = {
    "add": ev.PAC_ADD,
    "auth": ev.PAC_AUTH,
    "strip": ev.PAC_STRIP,
    "generic": ev.PAC_GENERIC,
}


class CycleStats:
    """Streaming cycle statistics for one event kind.

    Tracks count/total/min/max plus a power-of-two bucket histogram
    (bucket *n* holds costs in ``[2^(n-1), 2^n)``; bucket 0 holds zero),
    so the distribution survives even after the ring buffer wraps.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def add(self, cost):
        self.count += 1
        self.total += cost
        if self.min is None or cost < self.min:
            self.min = cost
        if self.max is None or cost > self.max:
            self.max = cost
        bucket = int(cost).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        # min/max stay None (JSON null) for empty stats: a histogram
        # whose true extremum is 0 must not look like an empty one.
        return {
            "count": self.count,
            "total_cycles": self.total,
            "min": self.min,
            "mean": round(self.mean, 4),
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Tracer:
    """Collects, counts and aggregates trace events.

    Parameters
    ----------
    capacity:
        Ring-buffer size for raw events (the statistics never drop).
    instructions:
        Keep raw :data:`~repro.trace.events.INSN_RETIRE` events in the
        ring.  With ``False`` they still hit the statistics and the
        instruction-mix table but are not retained individually (and
        listeners do not see them) — a lighter mode for long runs that
        only need aggregate numbers.
    """

    def __init__(self, capacity=65536, instructions=True):
        self.ring = RingBuffer(capacity)
        self.instructions = instructions
        #: Event kind -> :class:`CycleStats`; ``count`` is the kind's
        #: event count.
        self.stats = {}
        self.insn_mix = {}
        self.listeners = []
        #: Cycle source used when an event has no explicit timestamp;
        #: set on attach to the core's cycle counter.
        self.clock = None

    # -- emission ------------------------------------------------------------

    def emit(self, kind, cycle=None, cost=0, **data):
        """Record one event; listeners run synchronously, in order."""
        if cycle is None:
            cycle = self.clock() if self.clock is not None else 0
        event = ev.TraceEvent(kind, cycle, cost, data)
        self.ring.append(event)
        stats = self.stats.get(kind)
        if stats is None:
            stats = self.stats[kind] = CycleStats()
        stats.add(cost)
        for listener in self.listeners:
            listener(event)
        return event

    def insn(self, cpu, pc, instruction, cost):
        """Per-retired-instruction fast path (called by the core)."""
        mnemonic = instruction.mnemonic
        mix = self.insn_mix.get(mnemonic)
        if mix is None:
            mix = self.insn_mix[mnemonic] = [0, 0]
        mix[0] += 1
        mix[1] += cost
        if self.instructions:
            self.emit(
                ev.INSN_RETIRE,
                cycle=cpu.cycles,
                cost=cost,
                pc=pc,
                mnemonic=mnemonic,
                el=cpu.regs.current_el,
            )
        else:
            stats = self.stats.get(ev.INSN_RETIRE)
            if stats is None:
                stats = self.stats[ev.INSN_RETIRE] = CycleStats()
            stats.add(cost)

    def pac_event(self, op, ok=True):
        """PAC-engine hook: one engine operation (on-core or host)."""
        kind = _PAC_EVENT.get(op)
        if kind is None:
            raise ReproError(f"unknown PAC engine op {op!r}")
        if kind == ev.PAC_AUTH:
            return self.emit(kind, cost=PAUTH_CYCLES, ok=ok)
        return self.emit(kind, cost=PAUTH_CYCLES)

    # -- listeners -----------------------------------------------------------

    def add_listener(self, listener):
        self.listeners.append(listener)
        return listener

    def remove_listener(self, listener):
        if listener in self.listeners:
            self.listeners.remove(listener)

    # -- queries -------------------------------------------------------------

    def count(self, kind):
        stats = self.stats.get(kind)
        return stats.count if stats is not None else 0

    def events(self, kind=None):
        """Retained events, oldest first, optionally filtered by kind."""
        if kind is None:
            return self.ring.snapshot()
        return [event for event in self.ring if event.kind == kind]

    @property
    def dropped(self):
        return self.ring.dropped

    def reset(self):
        """Forget everything recorded so far (attachments survive)."""
        self.ring.clear()
        self.stats.clear()
        self.insn_mix.clear()

    # -- export --------------------------------------------------------------

    def to_dict(self, events=True, event_limit=None):
        """JSON-serialisable view: counters, histograms, mix, events."""
        out = {
            "meta": {
                "total_events": self.ring.total,
                "retained_events": len(self.ring),
                "dropped_events": self.dropped,
                "capacity": self.ring.capacity,
            },
            "counters": {
                kind: stats.count for kind, stats in sorted(self.stats.items())
            },
            "histograms": {
                kind: stats.as_dict()
                for kind, stats in sorted(self.stats.items())
            },
            "instruction_mix": {
                mnemonic: {"count": count, "cycles": cycles}
                for mnemonic, (count, cycles) in sorted(self.insn_mix.items())
            },
        }
        if events:
            recorded = self.ring.snapshot()
            if event_limit is not None:
                recorded = recorded[-event_limit:]
            out["events"] = [event.to_dict() for event in recorded]
        return out

    def to_json(self, events=True, event_limit=None, indent=None):
        return json.dumps(
            self.to_dict(events=events, event_limit=event_limit),
            indent=indent,
        )

    def export_json(self, path, events=True, event_limit=None):
        """Write the trace to ``path``; returns the path."""
        with open(path, "w") as handle:
            handle.write(
                self.to_json(events=events, event_limit=event_limit, indent=2)
            )
        return path


# -- the process-wide slot ------------------------------------------------------

#: Process-wide tracer attached by every CPU created while it is set.
_GLOBAL_TRACER = None


def global_tracer():
    return _GLOBAL_TRACER


class _ProcessWide:
    """The process-wide slot as a trace target (``TraceSession()``)."""

    @staticmethod
    def attach_tracer(tracer):
        global _GLOBAL_TRACER
        if _GLOBAL_TRACER is not None:
            raise ReproError("a global trace session is already active")
        _GLOBAL_TRACER = tracer
        return tracer

    @staticmethod
    def detach_tracer():
        global _GLOBAL_TRACER
        _GLOBAL_TRACER = None


class TraceSession:
    """Context manager bounding one traced run.

    ``target`` is anything with ``attach_tracer``/``detach_tracer``: a
    :class:`~repro.kernel.system.System` (the full semantic layer), a
    bare :class:`~repro.arch.cpu.CPU` (architectural events only), or
    None — in which case the tracer is installed process-wide and every
    core (and so every system) created inside the ``with`` block
    attaches it.
    """

    def __init__(self, target=None, tracer=None, capacity=65536,
                 instructions=True):
        if target is None:
            target = _ProcessWide
        elif not hasattr(target, "attach_tracer"):
            raise ReproError(f"cannot trace {type(target).__name__} objects")
        self.target = target
        self.tracer = tracer if tracer is not None else Tracer(
            capacity=capacity, instructions=instructions
        )

    def __enter__(self):
        self.target.attach_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc_value, traceback):
        self.target.detach_tracer()
        return False

"""The tracer: ring buffer, per-event counters and cycle histograms.

One :class:`Tracer` collects everything a traced run produces:

* every event goes through :meth:`Tracer.emit`, which appends it to the
  ring buffer, bumps the per-kind counter, folds its cost into the
  per-kind cycle statistics, and fans it out to registered listeners
  (the kernel's semantic tracepoints are such listeners);
* the per-instruction fast path (:meth:`Tracer.insn`) additionally
  maintains the instruction-mix table (cycles per mnemonic) that lets a
  benchmark break its total down by instruction class.

The *disabled* path costs nothing: components hold a nullable tracer
reference and emit only behind a single ``is not None`` check, and the
tracer is pure host-side bookkeeping — attaching one never changes a
single simulated cycle.

:class:`TraceSession` is the lifecycle wrapper: a context manager that
attaches a tracer to a system, a bare CPU, or (with no target) to the
process-wide slot that every subsequently booted
:class:`~repro.kernel.system.System` picks up — which is how existing
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
    "attach_cpu",
    "detach_cpu",
    "global_tracer",
    "set_global_tracer",
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
        Ring-buffer size for raw events (counters never drop).
    instructions:
        Keep raw :data:`~repro.trace.events.INSN_RETIRE` events in the
        ring.  With ``False`` they still hit the counters and the
        instruction-mix table but are not retained individually (and
        listeners do not see them) — a lighter mode for long runs that
        only need aggregate numbers.
    """

    def __init__(self, capacity=65536, instructions=True):
        self.ring = RingBuffer(capacity)
        self.instructions = instructions
        self.counters = {}
        self.stats = {}
        self.insn_mix = {}
        self.listeners = []
        self.enabled = True
        #: Cycle source used when an event has no explicit timestamp;
        #: set on attach to the core's cycle counter.
        self.clock = None

    # -- emission ------------------------------------------------------------

    def emit(self, kind, cycle=None, cost=0, **data):
        """Record one event; listeners run synchronously, in order."""
        if not self.enabled:
            return None
        if cycle is None:
            cycle = self.clock() if self.clock is not None else 0
        event = ev.TraceEvent(kind, cycle, cost, data)
        self.ring.append(event)
        self.counters[kind] = self.counters.get(kind, 0) + 1
        stats = self.stats.get(kind)
        if stats is None:
            stats = self.stats[kind] = CycleStats()
        stats.add(cost)
        for listener in self.listeners:
            listener(event)
        return event

    def insn(self, cpu, pc, instruction, cost):
        """Per-retired-instruction fast path (called by the core)."""
        if not self.enabled:
            return
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
            self.counters[ev.INSN_RETIRE] = (
                self.counters.get(ev.INSN_RETIRE, 0) + 1
            )
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
        return self.counters.get(kind, 0)

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
        self.counters.clear()
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
            "counters": dict(sorted(self.counters.items())),
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


# -- attachment helpers ------------------------------------------------------


def attach_cpu(cpu, tracer):
    """Wire a tracer into a bare core (no kernel semantic layer)."""
    cpu.tracer = tracer
    cpu.pac.trace_hook = tracer.pac_event
    tracer.clock = lambda: cpu.cycles
    return tracer


def detach_cpu(cpu):
    cpu.tracer = None
    cpu.pac.trace_hook = None


#: Process-wide tracer picked up by every System booted while it is set.
_GLOBAL_TRACER = None


def global_tracer():
    return _GLOBAL_TRACER


def set_global_tracer(tracer):
    """Install (or clear, with None) the process-wide tracer."""
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer


class TraceSession:
    """Context manager bounding one traced run.

    ``target`` may be a :class:`~repro.kernel.system.System` (attaches
    the full semantic layer), a bare CPU (architectural events only), or
    None — in which case the tracer is installed process-wide and every
    system booted inside the ``with`` block attaches itself.
    """

    def __init__(self, target=None, tracer=None, capacity=65536,
                 instructions=True):
        self.target = target
        self.tracer = tracer if tracer is not None else Tracer(
            capacity=capacity, instructions=instructions
        )
        self._mode = None

    def __enter__(self):
        if self.target is None:
            if global_tracer() is not None:
                raise ReproError("a global trace session is already active")
            set_global_tracer(self.tracer)
            self._mode = "global"
        elif hasattr(self.target, "attach_tracer"):
            self.target.attach_tracer(self.tracer)
            self._mode = "system"
        elif hasattr(self.target, "regs"):
            attach_cpu(self.target, self.tracer)
            self._mode = "cpu"
        else:
            raise ReproError(
                f"cannot trace {type(self.target).__name__} objects"
            )
        return self.tracer

    def __exit__(self, exc_type, exc_value, traceback):
        if self._mode == "global":
            set_global_tracer(None)
        elif self._mode == "system":
            self.target.detach_tracer()
        elif self._mode == "cpu":
            detach_cpu(self.target)
        self._mode = None
        return False

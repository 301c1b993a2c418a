"""Per-layer host-time attribution for the traced benchmark run.

The traced run wraps the public functions of every simulator layer at
class level, from this file, before anything is built.  Each wrapper
pushes a frame onto one shared stack, so every layer gets:

* call counts per wrapped function (and bytes, for physical memory);
* self time: a call's duration minus the wrapped calls made inside it;
* inclusive time: outermost calls into the layer only.

Spans are recorded only at the coarse boundaries (boot, ``run_user``,
``spawn_process``, ``load_user_program``, ``switch_to``).  The
per-instruction layers run millions of times per run, so for them only
the aggregates are kept.  Everything stays in memory until the run ends.

The wrappers cost time themselves.  :func:`calibrate` measures that cost
in the running interpreter and :func:`self_seconds` subtracts it: the
part inside a call from the callee's self time, the part around it from
the caller's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

_clock = time.perf_counter

#: Spans kept per run; later ones still count in ``span_totals``.
SPAN_LIMIT = 20000

#: layer -> ((module, class, attributes), ...).  Properties are wrapped
#: getter and setter alike.  ``arch.isa`` is filled in from the module:
#: every instruction class's ``execute`` and ``cost_on``.
LAYERS = {
    "arch.cpu": (
        ("repro.arch.cpu", "CPU", (
            "step", "run", "call", "read_operand", "write_operand",
            "load_u64", "store_u64", "pac_add", "pac_auth", "pac_strip",
            "pac_generic", "write_sysreg_checked", "read_sysreg_checked",
            "take_exception", "exception_return",
        )),
    ),
    "arch.isa": (),
    "arch.registers": (
        ("repro.arch.registers", "RegisterFile", (
            "read", "write", "sp", "sp_of", "set_sp_of", "read_sysreg",
            "write_sysreg", "clear_gprs",
        )),
        ("repro.arch.registers", "KeyBank", ("get", "copy")),
        ("repro.arch.registers", "SCTLR", ("enabled_for",)),
    ),
    "mem.mmu": (
        ("repro.mem.mmu", "MMU", (
            "translate", "read", "write", "read_u64", "write_u64", "fetch",
            "map_range", "frame_of", "translation_epoch", "fetch_epoch",
        )),
    ),
    "mem.phys": (
        ("repro.mem.phys", "PhysicalMemory", (
            "read", "write", "read_u64", "write_u64", "store_instruction",
            "fetch_instruction", "erase_instruction",
        )),
    ),
    "mem.pagetable": (
        ("repro.mem.pagetable", "Stage1Table", (
            "map_page", "unmap_page", "lookup",
        )),
        ("repro.mem.pagetable", "Stage2Table", (
            "allows", "set_frame", "clear_frame",
        )),
        ("repro.mem.pagetable", "Permissions", ("allows",)),
    ),
    "arch.pac": (
        ("repro.arch.pac", "PACEngine", (
            "add_pac", "auth_pac", "compute_pac", "strip", "generic_mac",
            "note_key_write", "decode_poison",
        )),
    ),
    "qarma.qarma64": (
        ("repro.qarma.qarma64", "Qarma64", ("encrypt", "decrypt")),
    ),
    "kernel": (
        ("repro.kernel.system", "System", (
            "spawn_process", "load_user_program", "run_user", "set_current",
            "kernel_call", "map_user_stack", "map_user_data", "install_fd",
        )),
        ("repro.kernel.sched", "Scheduler", ("switch_to",)),
        ("repro.kernel.task", "TaskTable", ("spawn",)),
    ),
    "observe": (
        ("repro.trace.tracer", "Tracer", ("emit", "insn", "pac_event")),
        ("repro.observe.profiler", "Profiler", ("__call__",)),
        ("repro.kernel.entry", "EntryTracepoints", ("__call__",)),
    ),
}

#: Wrapped functions that also record a span.
SPANS = {
    "System.run_user": "run_user",
    "System.spawn_process": "spawn_process",
    "System.load_user_program": "load_user_program",
    "Scheduler.switch_to": "switch_to",
}

#: Bytes moved per call, from the call's arguments (self included).
_BYTES = {
    "PhysicalMemory.read": lambda args: args[2],
    "PhysicalMemory.write": lambda args: len(args[2]),
}


class LayerProfile:
    """Counters, times and spans of one traced run."""

    def __init__(self):
        self.names = []
        self.self_time = []
        self.inclusive = []
        #: Wrapped calls into each layer, and wrapped calls it made.
        self.entries = []
        self.child_calls = []
        self._depth = []
        self.calls = {}
        self.bytes = {}
        self._stack = []
        self.spans = []
        self.span_totals = {}
        self._open_spans = []
        #: Index of the unit in flight, tagged onto every span.
        self.unit = None
        self.origin = _clock()
        #: Unwrapped originals, by ``Class.attribute``.
        self.originals = {}

    def _layer(self, name):
        if name not in self.names:
            self.names.append(name)
            for column in (self.self_time, self.inclusive):
                column.append(0.0)
            for column in (self.entries, self.child_calls, self._depth):
                column.append(0)
        return self.names.index(name)

    def wrap(self, layer_name, key, function, extra_s=0.0):
        """``function`` with its calls and times booked to the layer.

        ``extra_s`` adds a fixed busy-wait to every call (the slowed-layer
        self-test).
        """
        layer = self._layer(layer_name)
        count = self.calls.setdefault(key, [0])
        measure = _BYTES.get(key)
        moved = self.bytes.setdefault(key, [0]) if measure else None
        stack, depth = self._stack, self._depth
        self_time, inclusive = self.self_time, self.inclusive
        entries, child_calls = self.entries, self.child_calls

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            depth[layer] += 1
            start = _clock()
            try:
                result = function(*args, **kwargs)
                if extra_s:
                    until = _clock() + extra_s
                    while _clock() < until:
                        pass
                return result
            finally:
                elapsed = _clock() - start
                stack.pop()
                depth[layer] -= 1
                self_time[layer] += elapsed - frame[0]
                if not depth[layer]:
                    inclusive[layer] += elapsed
                entries[layer] += 1
                count[0] += 1
                if moved is not None:
                    moved[0] += measure(args)
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    child_calls[parent[1]] += 1

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record one span: name, start, end, parent span and unit."""
        record = None
        if len(self.spans) < SPAN_LIMIT:
            record = {
                "name": name,
                "unit": self.unit,
                "parent": self._open_spans[-1] if self._open_spans else None,
            }
            self.spans.append(record)
            self._open_spans.append(len(self.spans) - 1)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            totals = self.span_totals.setdefault(name, [0, 0.0])
            totals[0] += 1
            totals[1] += end - start
            if record is not None:
                self._open_spans.pop()
                record["start_s"] = start - self.origin
                record["end_s"] = end - self.origin

    def reset(self):
        """Zero every counter and time (spans are kept)."""
        for column in (self.self_time, self.inclusive):
            column[:] = [0.0] * len(column)
        for column in (self.entries, self.child_calls):
            column[:] = [0] * len(column)
        for cell in list(self.calls.values()) + list(self.bytes.values()):
            cell[0] = 0

    def snapshot(self):
        return {
            "self_s": dict(zip(self.names, self.self_time)),
            "inclusive_s": dict(zip(self.names, self.inclusive)),
            "entries": dict(zip(self.names, self.entries)),
            "child_calls": dict(zip(self.names, self.child_calls)),
            "calls": {key: cell[0] for key, cell in self.calls.items()},
            "bytes": {key: cell[0] for key, cell in self.bytes.items()},
        }


def subtract(after, before):
    """Snapshot difference, ``after`` minus ``before``, field by field."""
    return {
        field: {
            key: value - before[field].get(key, 0)
            for key, value in table.items()
        }
        for field, table in after.items()
    }


def _spanned(profile, name, function):
    @functools.wraps(function)
    def spanned(*args, **kwargs):
        with profile.span(name):
            return function(*args, **kwargs)

    return spanned


def _targets():
    """(layer, class, attribute) for every function the traced run wraps."""
    for layer, entries in LAYERS.items():
        for module_name, class_name, attributes in entries:
            cls = getattr(importlib.import_module(module_name), class_name)
            for attribute in attributes:
                yield layer, cls, attribute
    isa = importlib.import_module("repro.arch.isa")
    for cls in vars(isa).values():
        if isinstance(cls, type) and issubclass(cls, isa.Instruction):
            for attribute in ("execute", "cost_on"):
                if attribute in cls.__dict__:
                    yield "arch.isa", cls, attribute


def instrument(profile, slow=None):
    """Wrap every layer's public functions, for the rest of the process.

    ``slow`` maps ``Class.attribute`` to extra seconds per call.  Call
    this before building anything: cached bound methods (the decode
    cache, tracer hooks) keep whatever they were bound to.
    """
    slow = dict(slow or {})
    patches = []

    def undo():
        for cls, attribute, original in reversed(patches):
            setattr(cls, attribute, original)

    for layer, cls, attribute in _targets():
        key = f"{cls.__name__}.{attribute}"
        original = cls.__dict__[attribute]
        extra = slow.pop(key, 0.0)
        if isinstance(original, property):
            replacement = property(
                profile.wrap(layer, key, original.fget, extra),
                profile.wrap(layer, key, original.fset, extra)
                if original.fset else None,
                original.fdel,
                original.__doc__,
            )
        else:
            replacement = profile.wrap(layer, key, original, extra)
            if key in SPANS:
                replacement = _spanned(profile, SPANS[key], replacement)
        profile.originals[key] = original
        setattr(cls, attribute, replacement)
        patches.append((cls, attribute, original))
    if slow:
        undo()
        raise ValueError(f"no such wrapped function: {', '.join(sorted(slow))}")


def calibrate(rounds=5, calls=20000):
    """Wrapper cost per call in this interpreter, in seconds.

    ``in_s`` is the part a call books to the callee's self time, ``out_s``
    the part it books to the caller's.
    """
    def noop():
        return None

    inside, outside = [], []
    for _ in range(rounds):
        probe = LayerProfile()
        inner = probe.wrap("inner", "inner", noop)

        def loop():
            for _ in range(calls):
                inner()

        outer = probe.wrap("outer", "outer", loop)
        start = _clock()
        for _ in range(calls):
            noop()
        plain = _clock() - start
        outer()
        inside.append(max(0.0, (probe.self_time[0] - plain) / calls))
        outside.append(max(0.0, (probe.self_time[1] - plain) / calls))
    return {"in_s": statistics.median(inside), "out_s": statistics.median(outside)}


def self_seconds(snapshot, overhead):
    """Self seconds per layer with the wrappers' own cost taken out."""
    return {
        layer: max(
            0.0,
            seconds
            - snapshot["entries"][layer] * overhead["in_s"]
            - snapshot["child_calls"][layer] * overhead["out_s"],
        )
        for layer, seconds in snapshot["self_s"].items()
    }


def layer_table(snapshot, overhead, ops):
    """Per layer: calls, self and inclusive seconds, self per op, share."""
    selfs = self_seconds(snapshot, overhead)
    total = sum(selfs.values()) or 1.0
    return {
        layer: {
            "calls": snapshot["entries"][layer],
            "self_s": seconds,
            "self_s_per_op": seconds / ops,
            "self_share": seconds / total,
            "inclusive_s": snapshot["inclusive_s"][layer],
        }
        for layer, seconds in selfs.items()
    }


def grown_layer(before, after):
    """The layer whose self time per op grew most from ``before`` to
    ``after`` (two :func:`layer_table` results)."""
    return max(
        after,
        key=lambda layer: after[layer]["self_s_per_op"]
        - before.get(layer, {}).get("self_s_per_op", 0.0),
    )

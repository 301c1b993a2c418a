"""Function-graph profiler: per-symbol cycle attribution over the trace.

The profiler is a plain tracer *listener* — it consumes the same event
stream :mod:`repro.trace` already produces (``insn_retire``, the PAC
engine events, exception entry/return) and folds it against a
:class:`~repro.observe.symbols.SymbolTable` into:

* **exclusive cycles** per symbol — the retired-instruction costs of
  instructions whose PC lies inside the function;
* **inclusive cycles** per symbol — cycles spent while the function was
  anywhere on the reconstructed call stack;
* **PAuth cycles** per symbol — the subset of exclusive cycles spent in
  ``pac``/``aut``/``xpac``/``pacga`` operations, billed to the function
  whose instruction performed them (PAC work the *host* does on the
  core's engine — boot-time pointer signing, ``open_file`` — has no
  guest PC and lands in the ``<host>`` bucket);
* **folded stacks** — cycles per unique call-stack tuple, exportable in
  Brendan Gregg's collapsed format for flamegraph tooling.

The call stack is reconstructed, not sampled: ``bl``/``blr`` (and their
``blraa``/``blrab`` forms) push at the next retire, ``ret``/``retaa``/
``retab`` pop, a plain branch landing in a different function replaces
the leaf (tail call), and exception entry/return bracket the handler
frames exactly the way the core orders its events (the ``svc`` entry
event precedes the ``svc`` retire; an IRQ entry precedes the first
vector instruction; ``eret`` restores the pre-exception stack depth).

Conservation invariants (tested): the exclusive cycles across all
symbols sum to the tracer's ``insn_retire`` total, and the PAuth cycles
sum to the tracer's pac-event totals.  Attaching the profiler never
changes a simulated outcome — it is host-side bookkeeping only.
"""

from __future__ import annotations

import json

from repro.arch.cpu import CPU
from repro.errors import ReproError
from repro.observe.symbols import HOST_SYMBOL, SymbolTable
from repro.trace import events as ev
from repro.trace.tracer import TraceSession

__all__ = [
    "CALL_MNEMONICS",
    "RET_MNEMONICS",
    "Profiler",
    "ProfileSession",
]

#: Mnemonics that transfer control and link (push a callee frame).
CALL_MNEMONICS = frozenset({"bl", "blr", "blraa", "blrab"})

#: Mnemonics that return through the link register (pop a frame).
RET_MNEMONICS = frozenset({"ret", "retaa", "retab"})

#: Costed PAC-engine events.
_PAC_EVENTS = frozenset(
    {ev.PAC_ADD, ev.PAC_AUTH, ev.PAC_STRIP, ev.PAC_GENERIC}
)


class Profiler:
    """Tracer listener folding events into per-symbol attribution."""

    def __init__(self, symbols=None):
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.exclusive = {}  # symbol -> cycles of its own instructions
        self.pauth = {}  # symbol -> PAuth-operation cycles
        self.calls = {}  # symbol -> times pushed as a callee
        self.folded = {}  # tuple(stack) -> cycles
        self._stack = []
        self._pending = None  # "call" | "ret" | "exc" | None
        self._exc_floors = []  # stack depths to restore on eret
        self._exc_arm = False  # svc entry seen; fires after its retire
        self._eret_arm = False  # eret seen; truncate after its retire
        self._pac_pending = 0  # costed pac cycles awaiting an owner

    # -- event intake --------------------------------------------------------

    def __call__(self, event):
        kind = event.kind
        if kind == ev.INSN_RETIRE:
            self._on_insn(event)
        elif kind in _PAC_EVENTS:
            if event.cost:
                if self._pac_pending:
                    # Two costed PAC ops without a retire in between:
                    # only the host drives the engine that way.
                    self._bill_pac(HOST_SYMBOL)
                self._pac_pending = event.cost
        elif kind == ev.EXC_ENTRY:
            if event.data.get("exc") == "irq":
                # Asynchronous: no retire for the interrupted slot; the
                # next retire is already the vector instruction.
                self._pending = "exc"
            else:
                # svc: the entry event precedes the svc's own retire.
                self._exc_arm = True
        elif kind == ev.EXC_RETURN:
            self._eret_arm = True

    def _on_insn(self, event):
        data = event.data
        symbol = self.symbols.resolve(data["pc"]).name
        stack = self._stack
        pending = self._pending
        if pending == "call":
            stack.append(symbol)
            self.calls[symbol] = self.calls.get(symbol, 0) + 1
        elif pending == "ret":
            if stack:
                stack.pop()
        elif pending == "exc":
            self._exc_floors.append(len(stack))
            stack.append(symbol)
        if not stack:
            stack.append(symbol)
        elif stack[-1] != symbol:
            stack[-1] = symbol  # tail call / resync
        cost = event.cost
        key = tuple(stack)
        self.folded[key] = self.folded.get(key, 0) + cost
        self.exclusive[symbol] = self.exclusive.get(symbol, 0) + cost
        if self._pac_pending:
            self._bill_pac(symbol)
        mnemonic = data["mnemonic"]
        if mnemonic in CALL_MNEMONICS:
            self._pending = "call"
        elif mnemonic in RET_MNEMONICS:
            self._pending = "ret"
        else:
            self._pending = None
        if self._exc_arm:
            self._pending = "exc"
            self._exc_arm = False
        if self._eret_arm:
            floor = self._exc_floors.pop() if self._exc_floors else 0
            del stack[floor:]
            self._eret_arm = False

    def _bill_pac(self, symbol):
        self.pauth[symbol] = self.pauth.get(symbol, 0) + self._pac_pending
        self._pac_pending = 0

    def finalize(self):
        """Flush PAC work still awaiting an owner (host-side tail)."""
        if self._pac_pending:
            self._bill_pac(HOST_SYMBOL)
        return self

    # -- aggregation ---------------------------------------------------------

    @property
    def total_cycles(self):
        return sum(self.exclusive.values())

    @property
    def total_pauth_cycles(self):
        return sum(self.pauth.values())

    def inclusive(self):
        """Cycles attributed to every symbol on the stack, per sample."""
        out = {}
        for stack, cycles in self.folded.items():
            for name in set(stack):
                out[name] = out.get(name, 0) + cycles
        return out

    def top(self, count=None, key="exclusive"):
        """Symbols ranked by cycles: list of (name, cycles)."""
        table = self.inclusive() if key == "inclusive" else self.exclusive
        ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))
        return ranked if count is None else ranked[:count]

    # -- export --------------------------------------------------------------

    def folded_lines(self):
        """Brendan Gregg collapsed-stack lines (``a;b;c cycles``)."""
        lines = []
        for stack, cycles in self.folded.items():
            if cycles:
                lines.append(";".join(stack) + f" {cycles}")
        return sorted(lines)

    def write_folded(self, path):
        with open(path, "w") as handle:
            for line in self.folded_lines():
                handle.write(line + "\n")
        return path

    def to_dict(self):
        self.finalize()
        inclusive = self.inclusive()
        names = set(self.exclusive) | set(self.pauth) | set(inclusive)
        return {
            "totals": {
                "cycles": self.total_cycles,
                "pauth_cycles": self.total_pauth_cycles,
                "unique_stacks": len(self.folded),
            },
            "symbols": {
                name: {
                    "exclusive_cycles": self.exclusive.get(name, 0),
                    "inclusive_cycles": inclusive.get(name, 0),
                    "pauth_cycles": self.pauth.get(name, 0),
                    "calls": self.calls.get(name, 0),
                }
                for name in sorted(names)
            },
        }

    def write_json(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


class ProfileSession(TraceSession):
    """A :class:`TraceSession` with a :class:`Profiler` listening.

    ``target`` is a booted :class:`~repro.kernel.system.System` (symbols
    resolve through its kernel image, key-setter page and modules) or a
    bare CPU (pass the assembled ``programs`` the run will execute).
    Yields the :class:`Profiler`; the tracer is ``session.tracer``, for
    conservation checks against its totals.
    """

    def __init__(self, target, programs=(), symbols=None, tracer=None,
                 capacity=65536):
        if target is None:
            raise ReproError("ProfileSession needs a System or CPU target")
        super().__init__(target, tracer=tracer, capacity=capacity)
        if not self.tracer.instructions:
            raise ReproError(
                "profiling needs a tracer retaining insn_retire events"
            )
        self._symbols = symbols
        self._programs = tuple(programs)
        self.profiler = None

    def __enter__(self):
        tracer = super().__enter__()
        symbols = self._symbols
        if symbols is None:
            symbols = (
                SymbolTable() if isinstance(self.target, CPU)
                else SymbolTable.from_system(self.target)
            )
        for program in self._programs:
            symbols.add_program(program)
        self.profiler = tracer.add_listener(Profiler(symbols))
        return self.profiler

    def __exit__(self, exc_type, exc_value, traceback):
        self.profiler.finalize()
        self.tracer.remove_listener(self.profiler)
        return super().__exit__(exc_type, exc_value, traceback)

"""A tiny two-pass assembler for the simulated ISA.

Collects instructions and labels, expands pseudo-instructions
(:class:`~repro.arch.isa.MovImm`), then resolves label references
(B/BL/CBZ/ADR and friends) to absolute addresses.  The result is a
:class:`Program`: an ordered list of (address, instruction) pairs plus a
symbol table, ready to be placed into memory by an image loader.
"""

from __future__ import annotations

import copy

from repro.arch import isa
from repro.errors import ReproError

__all__ = ["Assembler", "Program", "function_ranges"]


def function_ranges(symbols, functions, end):
    """``{name: (entry, limit)}`` for the ``functions`` among ``symbols``,
    in address order: each runs to the next function entry and the last
    to ``end``.  The one rule for where a function ends; a label that
    is not a function entry (a branch target, ``vectors``) ends none.
    """
    entries = sorted((symbols[name], name) for name in functions
                     if name in symbols)
    limits = [address for address, _ in entries[1:]] + [end]
    return {
        name: (entry, limit)
        for (entry, name), limit in zip(entries, limits)
    }


class Program:
    """Assembled code: instructions at addresses, plus symbols.

    ``functions`` is the subset of symbol names declared with
    :meth:`Assembler.fn` — function entry points, as opposed to branch
    targets inside a function.  Profilers and unwinders bin program
    counters against this set only.
    """

    def __init__(self, base, instructions, symbols, functions=()):
        self.base = base
        self.instructions = instructions  # list of (address, Instruction)
        self.symbols = dict(symbols)  # label -> address
        self.functions = frozenset(functions) & frozenset(self.symbols)

    @property
    def size(self):
        return 4 * len(self.instructions)

    @property
    def end(self):
        return self.base + self.size

    def function_ranges(self):
        """Every function's ``(entry, limit)``: see :func:`function_ranges`."""
        return function_ranges(self.symbols, self.functions, self.end)

    def address_of(self, label):
        try:
            return self.symbols[label]
        except KeyError:
            raise ReproError(f"unknown symbol {label!r}") from None

    def listing(self):
        """Human-readable disassembly (address: text)."""
        reverse = {}
        for label, address in self.symbols.items():
            reverse.setdefault(address, []).append(label)
        lines = []
        for address, instruction in self.instructions:
            for label in reverse.get(address, ()):
                lines.append(f"{label}:")
            lines.append(f"  {address:#x}: {instruction.text()}")
        return "\n".join(lines)


class Assembler:
    """Accumulates instructions then assembles them at a base address.

    Usage::

        asm = Assembler(base=0xFFFF_0000_0001_0000)
        asm.label("func")
        asm.emit(isa.StpPre(FP, LR, SP, -16))
        ...
        program = asm.assemble()
    """

    def __init__(self, base):
        if base % 4:
            raise ReproError("code base must be 4-byte aligned")
        self.base = base
        self._items = []  # either ("label", name) or ("insn", Instruction)
        self._known_labels = set()
        self._functions = set()

    def label(self, name):
        if name in self._known_labels:
            raise ReproError(f"duplicate label {name!r}")
        self._known_labels.add(name)
        self._items.append(("label", name))
        return self

    def emit(self, *instructions):
        for instruction in instructions:
            self._items.append(("insn", instruction))
        return self

    # -- convenience emitters -------------------------------------------------

    def mov_imm(self, rd, value):
        """Emit a MOVZ/MOVK sequence loading ``value`` into Xd."""
        self.emit(*isa.MovImm(rd, value).expand())
        return self

    def fn(self, name):
        """Like :meth:`label`, but marks the symbol as a function entry.

        Function symbols end up in :attr:`Program.functions`, which is
        what the :mod:`repro.observe` profiler and stack unwinder use to
        bin program counters; plain labels (loop heads, early-out
        targets) stay invisible to them.
        """
        self._functions.add(name)
        return self.label(name)

    # -- assembly ----------------------------------------------------------------

    def assemble(self, extern=None):
        """Resolve labels and return a :class:`Program`.

        Parameters
        ----------
        extern:
            Optional mapping of label -> absolute address for symbols
            defined outside this unit (e.g. kernel functions referenced
            by a module).
        """
        extern = dict(extern or {})
        expanded = []
        symbols = {}
        address = self.base
        for kind, payload in self._items:
            if kind == "label":
                symbols[payload] = address
                continue
            if isinstance(payload, isa.MovImm):
                for part in payload.expand():
                    expanded.append((address, part))
                    address += 4
                continue
            expanded.append((address, payload))
            address += 4

        def resolve(label):
            if label in symbols:
                return symbols[label]
            if label in extern:
                return extern[label]
            raise ReproError(f"undefined label {label!r}")

        # On copies: the emitted objects keep no target, so a body
        # assembled again at another base resolves afresh.
        for index, (address, instruction) in enumerate(expanded):
            if not hasattr(instruction, "target"):
                continue
            if instruction.label is not None or instruction.target is None:
                instruction = copy.copy(instruction)
                instruction.target = resolve(instruction.label)
                expanded[index] = (address, instruction)
        return Program(self.base, expanded, symbols, functions=self._functions)

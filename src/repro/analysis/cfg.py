"""Control-flow graph recovery over assembled images (paper §4.1, §6.2.2).

The kernel build already knows where its functions start
(:attr:`~repro.arch.assembler.Program.functions`, threaded through to
:attr:`~repro.elfimage.image.Image.functions`), so CFG recovery does
not need heuristics: each function's extent runs from its entry symbol
to the next function symbol in the same text section, basic blocks
split at branches and at branch targets, and intraprocedural edges
follow directly from :func:`repro.arch.isa.branch_kind`.

The resulting :class:`FunctionCFG` objects are what the CFI verifier
(:mod:`repro.analysis.verifier`) runs its dataflow rules over; they are
also useful on their own (``blocks``, ``edges``, reachability).  The
:class:`ImageCFG` keeps the programs it was cut from, so the verifier's
word rules see every decoded word, the ones outside any function too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.arch.isa import branch_kind, branch_target
from repro.elfimage.image import text_programs
from repro.errors import ReproError

__all__ = ["BasicBlock", "FunctionCFG", "ImageCFG", "recover_cfg"]

#: Terminator kinds that end a basic block *and* leave the function.
_EXIT_KINDS = frozenset(
    {"ret", "indirect-jump", "exception-return", "halt"}
)


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``successors`` holds start addresses of intraprocedural successor
    blocks.  ``calls`` records direct call targets (interprocedural
    edges are kept out of ``successors`` so dataflow stays
    per-function).  ``exits`` is True when some path leaves the
    function at this block (return, indirect jump, tail jump out of
    the function's extent, or fall-through past its end).
    """

    start: int
    instructions: list = field(default_factory=list)
    successors: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    exits: bool = False

    @property
    def end(self):
        """Address one past the last instruction."""
        if not self.instructions:
            return self.start
        return self.instructions[-1][0] + 4

    @property
    def terminator(self):
        """(address, instruction) of the last instruction, or None."""
        return self.instructions[-1] if self.instructions else None


@dataclass
class FunctionCFG:
    """Basic blocks and edges of one function."""

    name: str
    entry: int
    blocks: dict = field(default_factory=dict)  # start address -> BasicBlock

    @property
    def instruction_count(self):
        return sum(len(b.instructions) for b in self.blocks.values())

    def instructions(self):
        """All (address, instruction) pairs in address order."""
        out = []
        for start in sorted(self.blocks):
            out.extend(self.blocks[start].instructions)
        return out

    def reachable_blocks(self):
        """Block start addresses reachable from the entry."""
        seen = set()
        stack = [self.entry]
        while stack:
            address = stack.pop()
            if address in seen or address not in self.blocks:
                continue
            seen.add(address)
            stack.extend(self.blocks[address].successors)
        return seen


@dataclass
class ImageCFG:
    """Per-function CFGs of a whole image (or a single program), and the
    decoded programs they were cut from."""

    name: str
    functions: dict = field(default_factory=dict)  # name -> FunctionCFG
    programs: list = field(default_factory=list)

    @property
    def instruction_count(self):
        """Instructions inside function extents (not every word)."""
        return sum(f.instruction_count for f in self.functions.values())

    def words(self):
        """Every decoded word as ``(owner, address, instruction)``.

        ``owner`` is the function whose extent holds the word or, for a
        word before a program's first function (the vector table), the
        nearest preceding symbol, or ``"?"`` when no symbol precedes it.
        """
        for program in self.programs:
            entries = {
                start: name
                for name, (start, _) in program.function_ranges().items()
            }
            labels = {}
            for name, address in program.symbols.items():
                labels.setdefault(address, name)
            owner, in_function = "?", False
            for address, instruction in program.instructions:
                if address in entries:
                    owner, in_function = entries[address], True
                elif not in_function and address in labels:
                    owner = labels[address]
                yield owner, address, instruction

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise ReproError(f"{self.name}: no function {name!r}") from None


def _function_extents(program):
    """Partition a program's instructions (in address order, as
    assembled or decoded) into per-function slices.

    Functions run from their entry to the next function entry or the
    program end (``Program.function_ranges``); instructions before the
    first function symbol (the kernel's vector table) belong to no
    function, and only :meth:`ImageCFG.words` yields them.
    """
    addresses = [address for address, _ in program.instructions]
    out = []
    for name, (start, end) in program.function_ranges().items():
        body = program.instructions[
            bisect_left(addresses, start):bisect_left(addresses, end)
        ]
        if body:
            out.append((name, start, end, body))
    return out


def _build_function_cfg(name, entry, end, body):
    """Split one function's instructions into blocks and wire edges."""
    by_address = dict(body)
    addresses = [address for address, _ in body]
    address_set = set(addresses)

    # Pass 1: leaders — the entry, every in-range branch target, and
    # every instruction following a control transfer.
    leaders = {entry}
    for address, instruction in body:
        kind = branch_kind(instruction)
        if kind is None:
            continue
        target = branch_target(instruction)
        if kind in ("jump", "cond") and target is not None:
            if entry <= target < end and target in address_set:
                leaders.add(target)
        following = address + 4
        if following in address_set:
            leaders.add(following)

    # Pass 2: blocks.
    ordered = sorted(leaders)
    cfg = FunctionCFG(name=name, entry=entry)
    for index, start in enumerate(ordered):
        stop = ordered[index + 1] if index + 1 < len(ordered) else end
        block = BasicBlock(start=start)
        address = start
        while address < stop and address in by_address:
            block.instructions.append((address, by_address[address]))
            address += 4
        if block.instructions:
            cfg.blocks[start] = block

    # Pass 3: edges.
    for block in cfg.blocks.values():
        address, instruction = block.terminator
        kind = branch_kind(instruction)
        target = branch_target(instruction)
        fallthrough = address + 4

        def in_function(candidate):
            return (
                candidate is not None
                and entry <= candidate < end
                and candidate in cfg.blocks
            )

        if kind in _EXIT_KINDS:
            block.exits = True
        elif kind == "jump":
            if in_function(target):
                block.successors.append(target)
            else:
                block.exits = True  # tail jump out of the function
        elif kind == "cond":
            if in_function(target):
                block.successors.append(target)
            else:
                block.exits = True
            if in_function(fallthrough):
                block.successors.append(fallthrough)
            else:
                block.exits = True
        else:
            # Straight-line end, direct/indirect call, or a synchronous
            # exception: execution continues at the next instruction.
            if kind == "call" and target is not None:
                block.calls.append(target)
            elif kind == "indirect-call":
                block.calls.append(None)
            if in_function(fallthrough):
                block.successors.append(fallthrough)
            else:
                block.exits = True  # falls off the function's extent
    return cfg


def recover_cfg(target, name=None):
    """Build an :class:`ImageCFG` from an Image, a Program or a list of
    programs decoded from an image's text.

    An Image's text is decoded section by section
    (:func:`~repro.elfimage.image.text_programs`); functions run to the
    next function entry in the same section.
    """
    image_cfg = ImageCFG(
        name=name or getattr(target, "name", "program"),
        programs=text_programs(target),
    )
    for program in image_cfg.programs:
        for fn_name, entry, end, body in _function_extents(program):
            image_cfg.functions[fn_name] = _build_function_cfg(
                fn_name, entry, end, body
            )
    return image_cfg

"""ROP/JOP gadget census (paper §2.2, §6.2 made quantitative).

The paper's security argument is qualitative: signing return addresses
and code pointers removes the raw ``RET``/``BLR`` gadget surface.  This
module counts it.  A *gadget* is a window of up to ``MAX_GADGET_WINDOW``
straight-line instructions ending in an indirect control transfer; it is
*usable* to an attacker who has a write primitive but no key when

* the terminator is a plain ``RET``/``BLR``/``BR`` (the authenticated
  ``RETA*``/``BLRA*``/``BRA*`` forms check a PAC as part of the
  transfer), and
* no instruction in the window authenticates a pointer — an ``AUT*``
  inside the window poisons a forged pointer before it is consumed.

An instrumented build therefore kills every window ending at an
instrumented return (the ``AUT`` sits directly before the ``RET``),
while the unprotected build of the same kernel leaves them all live —
the census reports strictly fewer usable gadgets for the protected
image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch import isa
from repro.arch.isa import branch_kind, is_auth
from repro.elfimage.image import text_programs

__all__ = ["Gadget", "GadgetCensus", "census", "MAX_GADGET_WINDOW"]

#: Longest window (preceding instructions) considered per terminator —
#: the conventional bound for "useful" gadget length.
MAX_GADGET_WINDOW = 5


@dataclass(frozen=True)
class Gadget:
    """One candidate gadget window."""

    kind: str  # "rop" (ret-terminated) or "jop" (br/blr-terminated)
    address: int  # first instruction of the window
    terminator: int  # address of the terminating branch
    length: int  # instructions in the window, terminator included
    usable: bool


@dataclass
class GadgetCensus:
    """All gadget windows of one image."""

    name: str
    instructions: int
    gadgets: list = field(default_factory=list)

    @property
    def usable(self):
        return [g for g in self.gadgets if g.usable]

    @property
    def usable_count(self):
        return len(self.usable)

    @property
    def terminator_count(self):
        """Distinct indirect control transfers in the image."""
        return len({g.terminator for g in self.gadgets})

    @property
    def usable_terminators(self):
        """Distinct terminators with at least one usable window — a
        RET/BLR is dead to the attacker only when *every* window
        through it authenticates (the instrumented epilogue's AUT
        directly before RET achieves exactly that)."""
        return len({g.terminator for g in self.usable})

    def count(self, kind=None, usable=None):
        out = self.gadgets
        if kind is not None:
            out = [g for g in out if g.kind == kind]
        if usable is not None:
            out = [g for g in out if g.usable == usable]
        return len(out)

    def summary(self):
        return (
            f"{self.name}: {len(self.gadgets)} gadget window(s) over "
            f"{self.instructions} instruction(s), "
            f"{self.usable_count} usable "
            f"(rop {self.count('rop', usable=True)}, "
            f"jop {self.count('jop', usable=True)}); "
            f"{self.usable_terminators}/{self.terminator_count} "
            f"terminators attackable"
        )

    def to_dict(self):
        return {
            "name": self.name,
            "instructions": self.instructions,
            "windows": len(self.gadgets),
            "usable": self.usable_count,
            "rop_usable": self.count("rop", usable=True),
            "jop_usable": self.count("jop", usable=True),
            "terminators": self.terminator_count,
            "usable_terminators": self.usable_terminators,
        }


_TERMINATORS = {
    "ret": "rop",
    "indirect-call": "jop",
    "indirect-jump": "jop",
}

#: Authenticated transfer forms: never usable without the key.
_AUTHENTICATED = (isa.RetA, isa.BlrA, isa.BrA)


def census(target, max_window=MAX_GADGET_WINDOW, name=None):
    """Count gadget windows in an assembled Image or Program."""
    pairs = [pair for code in text_programs(target) for pair in code.instructions]
    label = name or getattr(target, "name", None) or "image"
    out = GadgetCensus(name=label, instructions=len(pairs))
    for index, (terminator_address, terminator) in enumerate(pairs):
        kind = _TERMINATORS.get(branch_kind(terminator))
        if kind is None:
            continue
        authenticated = isinstance(terminator, _AUTHENTICATED)
        for length in range(1, max_window + 1):
            start = index - length
            if start < 0:
                break
            window = pairs[start:index]
            # Windows must be straight-line and contiguous: stop
            # growing past another control transfer or an address gap.
            first_address, first_instruction = window[0]
            if branch_kind(first_instruction) is not None:
                break
            if terminator_address - first_address != 4 * length:
                break
            usable = (
                not authenticated
                and not any(is_auth(i) for _, i in window)
            )
            out.gadgets.append(
                Gadget(
                    kind=kind,
                    address=first_address,
                    terminator=terminator_address,
                    length=length + 1,
                    usable=usable,
                )
            )
    return out

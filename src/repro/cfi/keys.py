"""PAuth key-role allocation (paper Sections 4.5 and 5.5).

The full design uses three of the five keys:

* ``ib`` — backward-edge CFI (return addresses, Listing 3 signs with
  PACIB),
* ``ia`` — forward-edge CFI (writable function pointers),
* ``db`` — data-flow integrity (pointers to operations structures,
  Listing 4 authenticates with AUTDB).

In the backwards-compatible build (Section 5.5) only the HINT-space
``PACIB1716``/``AUTIB1716`` instructions exist as NOPs on old cores, and
no data-key equivalents exist at all — so the compat configuration
collapses every role onto the IB key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["KeyRole", "KeyAllocation"]


class KeyRole:
    """The three protection roles of the paper's design."""

    BACKWARD = "backward"
    FORWARD = "forward"
    DFI = "dfi"

    ALL = (BACKWARD, FORWARD, DFI)


@dataclass(frozen=True)
class KeyAllocation:
    """Maps protection roles to the five architectural keys."""

    backward: str = "ib"
    forward: str = "ia"
    dfi: str = "db"

    def __post_init__(self):
        valid = {"ia", "ib", "da", "db"}
        for role in ("backward", "forward", "dfi"):
            if getattr(self, role) not in valid:
                raise ReproError(f"invalid key for role {role}")

    def key_for(self, role):
        if role == KeyRole.BACKWARD:
            return self.backward
        if role == KeyRole.FORWARD:
            return self.forward
        if role == KeyRole.DFI:
            return self.dfi
        raise ReproError(f"unknown role {role!r}")

    @classmethod
    def default(cls):
        """The paper's allocation: IB backward, IA forward, DB for DFI."""
        return cls()

    @classmethod
    def compat(cls):
        """ARMv8.0-compatible allocation: everything on IB.

        Only the instruction-B key has NOP-compatible HINT encodings;
        there are no such encodings for data keys, so data pointers are
        signed with the same instruction key (Section 5.5).
        """
        return cls(backward="ib", forward="ib", dfi="ib")

"""Stage-1 and stage-2 translation tables (paper Appendix A.2).

Stage 1 is controlled by the kernel (EL1) and translates virtual
addresses to physical addresses with per-EL permissions.  The VMSAv8
stage-1 descriptor format cannot express execute-only memory at EL1:
*any* stage-1 mapping is implicitly readable by the kernel.  That rule
is encoded here — requesting an EL1 mapping without read permission
still yields a readable mapping, exactly the limitation that forces the
paper's XOM design into stage 2.

Stage 2 is controlled by the hypervisor (EL2) and filters accesses by
physical (intermediate physical) address.  Removing stage-2 read
permission from the key-setter page is what actually realises XOM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.mem.phys import EVERYTHING, NOTHING, Generation

__all__ = ["Permissions", "Stage1Table", "Stage2Table", "Mapping"]


@dataclass(frozen=True)
class Permissions:
    """Access rights of one mapping, split by exception level."""

    r_el0: bool = False
    w_el0: bool = False
    x_el0: bool = False
    r_el1: bool = False
    w_el1: bool = False
    x_el1: bool = False

    def allows(self, access, el):
        """True when ``access`` ('r', 'w' or 'x') is allowed at ``el``."""
        if access not in ("r", "w", "x"):
            raise ReproError(f"unknown access type {access!r}")
        suffix = "el0" if el == 0 else "el1"
        return getattr(self, f"{access}_{suffix}")

    @classmethod
    def kernel_text(cls):
        return cls(r_el1=True, x_el1=True)

    @classmethod
    def kernel_rodata(cls):
        return cls(r_el1=True)

    @classmethod
    def kernel_data(cls):
        return cls(r_el1=True, w_el1=True)

    @classmethod
    def user_text(cls):
        return cls(r_el0=True, x_el0=True, r_el1=True)

    @classmethod
    def user_data(cls):
        return cls(r_el0=True, w_el0=True, r_el1=True, w_el1=True)

    @classmethod
    def all_access(cls):
        return cls(True, True, True, True, True, True)


@dataclass(frozen=True)
class Mapping:
    """One stage-1 page mapping."""

    frame: int
    permissions: Permissions


class Stage1Table:
    """Kernel-controlled VA -> PA translation for one address space.

    Keys are virtual page numbers.  The table enforces the VMSAv8
    limitation that every mapping is readable at EL1.
    """

    def __init__(self, page_shift=12, generation=None):
        self.page_shift = page_shift
        self._entries = {}
        #: The machine :class:`Generation`, bumped on every mutation so
        #: host-side caches re-walk (analogous to a TLB invalidate), with
        #: the page as its scope.  A table built on its own gets a
        #: private cell.
        self.generation = Generation() if generation is None else generation

    def map_page(self, vpn, frame, permissions):
        """Install a mapping; EL1 read is forced on (VMSAv8 rule)."""
        if not permissions.r_el1:
            permissions = replace(permissions, r_el1=True)
        # A walk through an empty slot faulted, and no host cache keeps
        # a fault, so filling one makes nothing stale.
        self.generation.bump(vpn if vpn in self._entries else NOTHING)
        self._entries[vpn] = Mapping(frame=frame, permissions=permissions)

    def unmap_page(self, vpn):
        if self._entries.pop(vpn, None) is not None:
            self.generation.bump(vpn)

    def lookup(self, vpn):
        """Return the :class:`Mapping` for a virtual page, or None."""
        return self._entries.get(vpn)


class Stage2Table:
    """Hypervisor-controlled physical-address permission filter.

    The default for unlisted frames is configurable: a permissive
    default models a hypervisor that only restricts selected pages
    (XOM), which is the paper's deployment.  Entries are (r, w, x_el1,
    x_el0) tuples.
    """

    def __init__(self, default_allow=True):
        self.default_allow = default_allow
        self._entries = {}
        #: As on :class:`Stage1Table`; installing the table into an MMU
        #: replaces this cell with the machine's.
        self.generation = Generation()

    def set_frame(self, frame, *, r, w, x_el1, x_el0=False):
        self._entries[frame] = (r, w, x_el1, x_el0)
        self.generation.bump(EVERYTHING)

    def clear_frame(self, frame):
        if self._entries.pop(frame, None) is not None:
            self.generation.bump(EVERYTHING)

    def allows(self, frame, access, el):
        entry = self._entries.get(frame)
        if entry is None:
            return self.default_allow
        r, w, x_el1, x_el0 = entry
        if access == "r":
            return r
        if access == "w":
            return w
        if access == "x":
            return x_el1 if el == 1 else x_el0
        raise ReproError(f"unknown access type {access!r}")

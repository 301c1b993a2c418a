"""Protection profiles: which defenses are compiled in.

The paper's evaluation compares three build configurations (Figures 3
and 4): no instrumentation, backward-edge CFI only, and the full design
(backward + forward CFI + DFI).  A profile bundles those switches with
the modifier scheme and key allocation so the rest of the stack — the
simulated compiler, the accessor generator, the kernel build — can be
parameterised by a single object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfi.keys import KeyAllocation, KeyRole
from repro.cfi.modifiers import SCHEMES, ModifierScheme
from repro.errors import ReproError

__all__ = [
    "ProtectionProfile",
    "PROFILE_NONE",
    "PROFILE_BACKWARD",
    "PROFILE_FULL",
    "frame_mac_profile",
    "profile_by_name",
]


@dataclass
class ProtectionProfile:
    """One build configuration of the protected kernel.

    Parameters
    ----------
    name:
        Display name used in benchmark tables.
    backward_scheme:
        Modifier scheme name for return-address protection
        (``"sp-only"``, ``"parts"``, ``"camouflage"``) or None for no
        backward-edge CFI.
    forward:
        Protect writable function pointers (forward-edge CFI).
    dfi:
        Protect data pointers to operations structures.
    compat:
        Build for ARMv8.0 binary compatibility (Section 5.5): HINT-space
        instructions only, all roles collapsed onto the IB key.
    frame_mac:
        Enable the exception-frame MAC extension (the paper's Section 8
        future-work direction): entry chains a PACGA over the saved
        ELR/LR, exit verifies it.  Requires real PAuth (PACGA has no
        HINT-space form), so it cannot be combined with ``compat``.
    """

    name: str
    backward_scheme: str = None
    forward: bool = False
    dfi: bool = False
    compat: bool = False
    frame_mac: bool = False
    keys: KeyAllocation = field(default_factory=KeyAllocation.default)
    _scheme: ModifierScheme = field(default=None, repr=False)

    def __post_init__(self):
        if self.backward_scheme is not None and self.backward_scheme not in SCHEMES:
            raise ReproError(f"unknown scheme {self.backward_scheme!r}")
        if self.compat and self.frame_mac:
            raise ReproError(
                "frame_mac needs PACGA, which has no v8.0-compatible form"
            )
        if self.compat:
            self.keys = KeyAllocation.compat()

    @property
    def protects_backward(self):
        return self.backward_scheme is not None

    @property
    def scheme(self):
        """The (lazily created, shared) backward-edge modifier scheme."""
        if not self.protects_backward:
            return None
        if self._scheme is None:
            self._scheme = SCHEMES[self.backward_scheme](
                key=self.keys.key_for(KeyRole.BACKWARD)
            )
        return self._scheme

    def key_for(self, role):
        return self.keys.key_for(role)

    def keys_to_switch(self):
        """Keys that must be swapped on kernel entry/exit.

        The paper's micro-benchmarks switch three keys for the full
        profile (Section 6.1.1); an unprotected kernel switches none.
        """
        roles = []
        if self.protects_backward:
            roles.append(KeyRole.BACKWARD)
        if self.forward:
            roles.append(KeyRole.FORWARD)
        if self.dfi:
            roles.append(KeyRole.DFI)
        keys = {self.keys.key_for(role) for role in roles}
        if self.frame_mac:
            keys.add("ga")
        return tuple(sorted(keys))

    def describe(self):
        parts = []
        if self.protects_backward:
            parts.append(f"backward({self.backward_scheme})")
        if self.forward:
            parts.append("forward")
        if self.dfi:
            parts.append("dfi")
        if self.compat:
            parts.append("compat")
        return f"{self.name}: " + (", ".join(parts) if parts else "none")


def _make_none():
    return ProtectionProfile(name="none")


def _make_backward():
    return ProtectionProfile(name="backward", backward_scheme="camouflage")


def _make_full():
    return ProtectionProfile(
        name="full", backward_scheme="camouflage", forward=True, dfi=True
    )


def frame_mac_profile():
    """The full design plus the frame-MAC future-work extension."""
    return ProtectionProfile(
        name="full+framemac",
        backward_scheme="camouflage",
        forward=True,
        dfi=True,
        frame_mac=True,
    )


#: Prototype profiles (copies are cheap: construct fresh per experiment).
PROFILE_NONE = _make_none()
PROFILE_BACKWARD = _make_backward()
PROFILE_FULL = _make_full()

_FACTORIES = {
    "none": _make_none,
    "backward": _make_backward,
    "full": _make_full,
}


def profile_by_name(name):
    """Fresh profile instance for ``"none"``/``"backward"``/``"full"``."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ReproError(f"unknown profile {name!r}") from None

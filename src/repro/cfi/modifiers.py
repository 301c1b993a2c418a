"""PAuth modifier schemes for backward-edge CFI (paper Sections 4.2, 5.2).

A modifier is the cryptographic salt mixed into every PAC.  Its
construction decides how far an attacker can *replay* a correctly
signed pointer in another context.  Three published constructions are
modelled, matching Figure 2 of the paper:

1. :class:`SPOnlyScheme` — the plain compiler scheme (Qualcomm
   whitepaper, Clang/GCC ``-msign-return-address``): modifier = SP.
   Cheapest, but SP values repeat heavily on the kernel's shallow,
   4 KiB-aligned task stacks, enabling replay within and across
   threads.
2. :class:`PARTSScheme` — PARTS (Liljestrand et al., USENIX Sec '19):
   modifier = 48-bit LTO-assigned function id with the low 16 SP bits
   on top.  Strong per-function binding, but needs link-time
   optimization (incompatible with loadable modules) and its 16 SP bits
   replay across kernel stacks separated by multiples of 64 KiB.
3. :class:`CamouflageScheme` — this paper: modifier = low 32 bits of SP
   concatenated with the low 32 bits of the function address, computed
   from PC-relative ADR with no LTO requirement (Listing 3).

Each scheme both *emits* the instrumentation instruction sequences (for
the simulated compiler) and *computes* the modifier value in Python
(for analyses and replay experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import isa
from repro.arch.isa import SP
from repro.arch.registers import IP0, IP1, LR
from repro.errors import ReproError

__all__ = [
    "ModifierScheme",
    "SPOnlyScheme",
    "PARTSScheme",
    "CamouflageScheme",
    "SCHEMES",
    "scheme_edge",
    "EdgeSpec",
    "edge_signature",
    "edge_table",
    "modifier_identity",
]

_MASK32 = 0xFFFFFFFF
_MASK48 = (1 << 48) - 1


class ModifierScheme:
    """Base class for return-address modifier constructions."""

    name = "abstract"

    def prologue(self, function_label, key):
        """Instructions that sign LR at function entry."""
        raise NotImplementedError

    def epilogue(self, function_label, key):
        """Instructions that authenticate LR before RET."""
        raise NotImplementedError

    def compute(self, sp, function_address, function_id=None):
        """The modifier value this scheme produces (host-side model)."""
        raise NotImplementedError


class SPOnlyScheme(ModifierScheme):
    """Modifier = SP, as emitted by stock Clang/GCC (Listing 2).

    Uses the HINT-space PACIASP/AUTIASP forms, so the instrumented
    binary also runs on pre-8.3 cores.
    """

    name = "sp-only"

    def __init__(self, key="ia"):
        self.key = key

    def modifier_setup(self, function_label):
        """SP is used directly by the dedicated *SP instruction forms."""
        return None

    def prologue(self, function_label, key=None):
        return [isa.PacSp(key or self.key)]

    def epilogue(self, function_label, key=None):
        return [isa.AutSp(key or self.key)]

    def compute(self, sp, function_address, function_id=None):
        return sp

    def replay_window(self, sp_a, sp_b, fn_a, fn_b):
        """True when a pointer signed in context A replays in B."""
        return sp_a == sp_b


class PARTSScheme(ModifierScheme):
    """PARTS: 48-bit LTO function id + low 16 bits of SP.

    The function id is a link-time constant, so the prologue must
    materialise it with a MOVZ + two MOVK before combining with SP —
    the extra setup visible in Figure 2.  The 16 SP bits repeat across
    kernel stacks laid out 64 KiB apart (Section 7).
    """

    name = "parts"

    def __init__(self, key="ib", function_ids=None):
        self.key = key
        self._function_ids = function_ids if function_ids is not None else {}
        self._next_id = 1

    def function_id(self, function_label):
        """LTO-style unique id per function (assigned on first use)."""
        if function_label not in self._function_ids:
            self._function_ids[function_label] = self._next_id
            self._next_id += 1
        return self._function_ids[function_label]

    def _materialize_id(self, function_label):
        fid = self.function_id(function_label) & _MASK48
        return [
            isa.Movz(IP0, fid & 0xFFFF, 0),
            isa.Movk(IP0, (fid >> 16) & 0xFFFF, 16),
            isa.Movk(IP0, (fid >> 32) & 0xFFFF, 32),
        ]

    def modifier_setup(self, function_label):
        return self._materialize_id(function_label) + [
            isa.MovReg(IP1, SP),
            isa.Bfi(IP0, IP1, 48, 16),
        ]

    def prologue(self, function_label, key=None):
        return self.modifier_setup(function_label) + [
            isa.Pac(key or self.key, LR, IP0)
        ]

    def epilogue(self, function_label, key=None):
        return self.modifier_setup(function_label) + [
            isa.Aut(key or self.key, LR, IP0)
        ]

    def compute(self, sp, function_address, function_id=None):
        fid = (function_id or 0) & _MASK48
        return fid | ((sp & 0xFFFF) << 48)

    def replay_window(self, sp_a, sp_b, fn_a, fn_b):
        return fn_a == fn_b and (sp_a & 0xFFFF) == (sp_b & 0xFFFF)


class CamouflageScheme(ModifierScheme):
    """This paper's scheme: low-32 SP over low-32 function address.

    Emits exactly Listing 3: ``adr ip0, fn; mov ip1, sp;
    bfi ip0, ip1, #32, #32; pacib lr, ip0``.  The ADR is PC-relative,
    so no link-time optimization is needed and loadable modules work
    unchanged; the function address restricts replay to call sites of
    the *same* function at the *same* 4 GiB-folded SP.
    """

    name = "camouflage"

    def __init__(self, key="ib"):
        self.key = key

    def modifier_setup(self, function_label):
        return [
            isa.Adr(IP0, function_label),
            isa.MovReg(IP1, SP),
            isa.Bfi(IP0, IP1, 32, 32),
        ]

    def prologue(self, function_label, key=None):
        return self.modifier_setup(function_label) + [
            isa.Pac(key or self.key, LR, IP0)
        ]

    def epilogue(self, function_label, key=None):
        return self.modifier_setup(function_label) + [
            isa.Aut(key or self.key, LR, IP0)
        ]

    def compute(self, sp, function_address, function_id=None):
        return (function_address & _MASK32) | ((sp & _MASK32) << 32)

    def replay_window(self, sp_a, sp_b, fn_a, fn_b):
        return (
            (fn_a & _MASK32) == (fn_b & _MASK32)
            and (sp_a & _MASK32) == (sp_b & _MASK32)
        )


#: The three Figure 2 contenders by name.
SCHEMES = {
    "sp-only": SPOnlyScheme,
    "parts": PARTSScheme,
    "camouflage": CamouflageScheme,
}


# ---------------------------------------------------------------------------
# the scheme-edge table: one source of truth for emitter and verifier
# ---------------------------------------------------------------------------
#
# A *scheme edge* is the instruction sequence a scheme contributes at a
# sign or authenticate site — modifier setup plus the PAC/AUT itself
# (plus the X17 shuttle in compat builds).  The simulated compiler
# emits these sequences (:mod:`repro.cfi.instrument`) and the
# whole-image verifier (:mod:`repro.analysis.verifier`) re-derives the
# same sequences as match templates, so the two can never drift apart.


def scheme_edge(scheme, key, function_label, authenticate, compat=False):
    """The instruction sequence of one sign/auth edge.

    Normal builds use the scheme's own prologue/epilogue.  Compat
    builds (Section 5.5) are restricted to HINT-space encodings: the
    modifier is computed into X16 and LR shuttled through X17 around
    ``PACIB1716``/``AUTIB1716``.
    """
    if function_label is None and scheme.modifier_setup("x") is not None:
        raise ReproError("this scheme needs the function label")
    if not compat:
        if authenticate:
            return scheme.epilogue(function_label, key)
        return scheme.prologue(function_label, key)
    setup = scheme.modifier_setup(function_label)
    if setup is None:
        op = isa.AutSp(key) if authenticate else isa.PacSp(key)
        return [op]
    # HINT-space: value lives in X17, modifier in X16.  The setup
    # sequences already leave the modifier in X16 (IP0); X17 (IP1) is a
    # scratch they use *before* LR moves in, so the order below is safe.
    op = isa.Aut1716(key) if authenticate else isa.Pac1716(key)
    return list(setup) + [isa.MovReg(IP1, LR), op, isa.MovReg(LR, IP1)]


def _instruction_signature(instruction):
    """Shape of one instruction with label-dependent operands wildcarded.

    The ADR target and the MOVZ/MOVK immediates vary per function (the
    PC-relative function address and the LTO function id), so they are
    excluded — two edges of the same scheme in different functions must
    produce the same signature.
    """
    # Aut variants subclass their Pac counterparts: check them first.
    if isinstance(instruction, isa.AutSp):
        return ("autsp", instruction.key)
    if isinstance(instruction, isa.PacSp):
        return ("pacsp", instruction.key)
    if isinstance(instruction, isa.Aut1716):
        return ("aut1716", instruction.key)
    if isinstance(instruction, isa.Pac1716):
        return ("pac1716", instruction.key)
    if isinstance(instruction, isa.Aut):
        return ("aut", instruction.key, instruction.rd, instruction.rn)
    if isinstance(instruction, isa.Pac):
        return ("pac", instruction.key, instruction.rd, instruction.rn)
    if isinstance(instruction, isa.Adr):
        return ("adr", instruction.rd)
    if isinstance(instruction, isa.Bfi):
        return (
            "bfi",
            instruction.rd,
            instruction.rn,
            instruction.lsb,
            instruction.width,
        )
    if isinstance(instruction, isa.MovReg):
        return ("mov", instruction.rd, instruction.rn)
    if isinstance(instruction, isa.Movk):
        return ("movk", instruction.rd, instruction.shift)
    if isinstance(instruction, isa.Movz):
        return ("movz", instruction.rd, instruction.shift)
    return (type(instruction).__name__.lower(),)


def edge_signature(instructions):
    """Matchable shape of an instruction sequence."""
    return tuple(_instruction_signature(i) for i in instructions)


@dataclass(frozen=True)
class EdgeSpec:
    """One expected sign/auth edge shape, derived from the emitter."""

    scheme: str
    key: str
    compat: bool
    authenticate: bool
    signature: tuple

    def __len__(self):
        return len(self.signature)


_EDGE_TABLE_CACHE = {}


def edge_table(keys=("ia", "ib")):
    """Every (scheme x key x direction x compat) edge shape.

    Derived by running the *actual emitter* over a placeholder label,
    so whatever :func:`scheme_edge` produces is exactly what the
    verifier accepts.  Longest signatures first, so a matcher that
    scans greedily prefers the full camouflage/PARTS sequence over any
    shorter shape embedded in it.
    """
    cache_key = tuple(keys)
    if cache_key in _EDGE_TABLE_CACHE:
        return _EDGE_TABLE_CACHE[cache_key]
    specs = []
    seen = set()
    for name, factory in SCHEMES.items():
        for key in keys:
            scheme = factory(key=key)
            for compat in (False, True):
                for authenticate in (False, True):
                    sequence = scheme_edge(
                        scheme, key, "__edge_probe__", authenticate, compat
                    )
                    signature = edge_signature(sequence)
                    dedup = (name, key, authenticate, signature)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    specs.append(
                        EdgeSpec(
                            scheme=name,
                            key=key,
                            compat=compat,
                            authenticate=authenticate,
                            signature=signature,
                        )
                    )
    specs.sort(key=len, reverse=True)
    result = tuple(specs)
    _EDGE_TABLE_CACHE[cache_key] = result
    return result


def modifier_identity(spec, window):
    """What binds this edge's modifier: the collision-detection key.

    Two sign sites in *different* functions sharing an identity under
    the same key can substitute each other's signed pointers (paper
    Section 3 replay/reuse argument):

    * sp-only binds nothing but SP — every site shares one identity;
    * PARTS binds the LTO function id (recovered from the MOVZ/MOVK
      immediates of the matched window);
    * camouflage binds the function address (the ADR target).
    """
    instructions = [instruction for _, instruction in window]
    if spec.scheme == "sp-only":
        return ("sp",)
    if spec.scheme == "parts":
        fid = 0
        for instruction in instructions:
            if isinstance(instruction, isa.Movz):
                fid = (instruction.imm16 & 0xFFFF) << instruction.shift
            elif isinstance(instruction, isa.Movk):
                fid |= (instruction.imm16 & 0xFFFF) << instruction.shift
        return ("fid", fid)
    for instruction in instructions:
        if isinstance(instruction, isa.Adr):
            target = instruction.target
            return ("fn", target if target is not None else instruction.label)
    return ("unknown",)

"""Pointer authentication primitives: AddPAC, AuthPAC and Strip.

These follow the ARMv8.3-A architectural pseudocode.  The MAC over
(pointer, modifier) is computed with QARMA-64: the 64-bit "plaintext"
input is the pointer with its PAC field replaced by the canonical sign
extension, the tweak is the modifier, and the 128-bit key is one of the
five key registers.  The MAC bits that fit into the unused pointer bits
become the PAC; extraneous MAC bits are discarded.

On authentication failure AuthPAC does not trap directly: it returns a
deliberately *non-canonical* pointer (two extension bits flipped, with a
distinct error code per key class), so that the first dereference takes
a translation fault.  That indirection is what the paper's brute-force
mitigation (Section 5.4) hooks: the kernel fault handler counts such
faults and panics past a threshold.

The engine precomputes each pointer range's PAC field as two contiguous
bit runs, so inserting a MAC is two mask-and-shift steps.  MACs are
memoised only by the per-key-value QARMA instance (see repro.hotpath).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.arch.vmsa import VMSAConfig
from repro.qarma import Qarma64

__all__ = ["PACEngine", "PACResult"]

_MASK64 = (1 << 64) - 1

#: Error codes ORed into the extension on failed authentication, per the
#: architecture: instruction keys flip bit 62 patterns, data keys bit 61.
_ERROR_CODE = {"ia": 0b01, "ib": 0b01, "da": 0b10, "db": 0b10, "ga": 0b11}


class PACResult(NamedTuple):
    """Outcome of an AuthPAC operation."""

    pointer: int
    ok: bool


class _PointerField:
    """Precomputed PAC geometry of one pointer range (bit 55 = select).

    The extension bits ``[va_bits, top)`` are canonical when they all
    replicate bit 55.  The PAC field is the extension minus bit 55: two
    contiguous runs, ``[va_bits, 55)`` for the low MAC bits and
    ``[56, top)`` (empty under TBI) for the next ones.
    """

    __slots__ = (
        "ext_keep", "ext_fill", "clear", "va_bits", "low_mask", "low_len",
        "high_mask", "poison", "code_bit",
    )

    def __init__(self, config, kernel):
        tbi = config.tbi_kernel if kernel else config.tbi_user
        top = 56 if tbi else 64
        va_bits = config.va_bits
        ext = ((1 << (top - va_bits)) - 1) << va_bits
        bits = config.pac_field_bits(kernel)
        self.ext_keep = ~ext & _MASK64
        self.ext_fill = ext if kernel else 0
        self.clear = self.ext_keep | (1 << 55)
        self.va_bits = va_bits
        self.low_len = 55 - va_bits
        self.low_mask = (1 << self.low_len) - 1
        self.high_mask = (1 << (top - 56)) - 1
        #: The highest PAC bit, inverted when signing a non-canonical
        #: input or failing an authentication; a failure under a data key
        #: also flips ``code_bit``, the PAC bit below it.
        self.poison = 1 << bits[-1]
        self.code_bit = 1 << bits[-2]


class _CipherMemoView:
    """``cache_stats``: hits and misses summed over the per-key cipher
    memos, which are the engine's only MAC memo.  Nothing is ever
    flushed, so ``flushes`` is always 0."""

    __slots__ = ("_ciphers",)

    def __init__(self, ciphers):
        self._ciphers = ciphers

    def to_dict(self):
        stats = [cipher.memo_stats for cipher in self._ciphers.values()]
        return {
            "hits": sum(s.hits for s in stats),
            "misses": sum(s.misses for s in stats),
            "flushes": 0,
        }


class PACEngine:
    """Computes and checks PACs for one VMSA configuration.

    The engine is stateless with respect to keys: each operation takes
    the key pair explicitly, so the same engine serves every core and
    both user and kernel key sets.

    Parameters
    ----------
    config:
        The :class:`VMSAConfig` describing pointer geometry.
    rounds, sbox_index:
        QARMA-64 parameters; the defaults match the ARM reference
        algorithm (QARMA5-64 with sigma1).
    """

    def __init__(self, config=None, rounds=5, sbox_index=1):
        self.config = config or VMSAConfig()
        self.rounds = rounds
        self.sbox_index = sbox_index
        #: One immutable cipher per 128-bit key *value*.  Each carries
        #: the (plaintext, tweak) memo (see repro.hotpath), so a MAC is
        #: only ever served under the key value that computed it: a key
        #: change, through the MSR path or an in-place corruption,
        #: selects another cipher and nothing needs flushing.
        self._cipher_cache = {}
        self.cache_stats = _CipherMemoView(self._cipher_cache)
        #: User (bit 55 clear) and kernel pointer-field geometry.
        self._fields = (
            _PointerField(self.config, False),
            _PointerField(self.config, True),
        )
        #: Nullable tracing hook ``(op, ok)`` — one call per
        #: architectural PAC operation, whether it runs on the core or
        #: host-side (boot signing, object initialization).  The
        #: internal AddPAC a failed AuthPAC recomputes is not reported
        #: separately.
        self.trace_hook = None

    # -- internals -----------------------------------------------------------

    def _cipher(self, key):
        """Memoised QARMA instance for a (lo, hi) key pair."""
        pair = (key.lo, key.hi)
        cipher = self._cipher_cache.get(pair)
        if cipher is None:
            cipher = Qarma64(
                w0=key.hi,
                k0=key.lo,
                rounds=self.rounds,
                sbox_index=self.sbox_index,
            )
            self._cipher_cache[pair] = cipher
        return cipher

    def _is_kernel(self, pointer):
        return bool((pointer >> 55) & 1)

    def compute_pac(self, pointer, modifier, key):
        """Raw 64-bit MAC over the canonicalised pointer and modifier."""
        return self._cipher(key).encrypt(
            self.config.canonicalize(pointer), modifier & _MASK64
        )

    def note_key_write(self, key):
        """A key register is about to be overwritten.

        Called by the CPU's MSR path with the key currently in the
        register.  There is nothing to invalidate: MACs are memoised
        per key value, so the new value gets its own cipher.
        """

    # -- architectural operations ---------------------------------------------

    def add_pac(self, pointer, modifier, key):
        """PAC* instruction: embed the PAC into the pointer's free bits.

        If the input pointer is already non-canonical (e.g. it already
        carries a PAC), the architecture guarantees the result will not
        authenticate: one PAC bit is deliberately inverted.
        """
        if self.trace_hook is not None:
            self.trace_hook("add", True)
        return self._add_pac(pointer, modifier, key)

    def _add_pac(self, pointer, modifier, key):
        pointer &= _MASK64
        field = self._fields[(pointer >> 55) & 1]
        canonical = (pointer & field.ext_keep) | field.ext_fill
        mac = self._cipher(key).encrypt(canonical, modifier & _MASK64)
        result = (
            (canonical & field.clear)
            | (mac & field.low_mask) << field.va_bits
            | ((mac >> field.low_len) & field.high_mask) << 56
        )
        if canonical != pointer:
            # Poison one PAC bit so the forged value never authenticates.
            result ^= field.poison
        return result

    def auth_pac(self, pointer, modifier, key, key_name=None):
        """AUT* instruction: verify and strip the PAC.

        Returns a :class:`PACResult`; on success the pointer is the
        canonical (usable) address, on failure it is non-canonical with
        the per-key error code in the top extension bits.
        """
        pointer &= _MASK64
        field = self._fields[(pointer >> 55) & 1]
        canonical = (pointer & field.ext_keep) | field.ext_fill
        ok = self._add_pac(canonical, modifier, key) == pointer
        if self.trace_hook is not None:
            self.trace_hook("auth", ok)
        if ok:
            return PACResult(canonical, True)
        return PACResult(self._poison(pointer, key, key_name), False)

    def strip(self, pointer):
        """XPAC* instruction: restore the canonical extension bits."""
        if self.trace_hook is not None:
            self.trace_hook("strip", True)
        return self.config.canonicalize(pointer & _MASK64)

    def generic_mac(self, value, modifier, key):
        """PACGA: standalone 32-bit MAC in the top half of the result."""
        if self.trace_hook is not None:
            self.trace_hook("generic", True)
        mac = self._cipher(key).encrypt(value & _MASK64, modifier & _MASK64)
        return (mac & 0xFFFFFFFF00000000) & _MASK64

    # -- failure encoding ------------------------------------------------------

    def _poison(self, pointer, key, key_name=None):
        """Make ``pointer`` non-canonical, encoding which key failed.

        The highest PAC bit is inverted away from its canonical value
        (guaranteeing the sign-extension check fails on dereference) and
        the per-key-class error code is XORed into the bit below it, so
        a debugger — or our fault handler — can tell which key class the
        failed authentication used.
        """
        code = _ERROR_CODE.get(key_name or "ia", 0b01)
        field = self._fields[(pointer >> 55) & 1]
        poisoned = self.config.canonicalize(pointer) ^ field.poison
        if code & 0b10:
            poisoned ^= field.code_bit
        return poisoned

    def decode_poison(self, pointer):
        """Inverse of :meth:`_poison`: which key *class* failed?

        Returns ``"instruction"`` (ia/ib: the bit below the top PAC bit
        untouched), ``"data"`` (da/db — and ga, whose code shares the
        high bit: that bit flipped), or ``None`` when the pointer is
        canonical or its deviation from canonical is not a poison
        pattern at all.
        """
        pointer &= _MASK64
        field = self._fields[(pointer >> 55) & 1]
        diff = pointer ^ ((pointer & field.ext_keep) | field.ext_fill)
        if not diff & field.poison or diff & ~(field.poison | field.code_bit):
            return None
        return "data" if diff & field.code_bit else "instruction"

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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import hotpath
from repro.arch.vmsa import VMSAConfig
from repro.qarma import Qarma64

__all__ = ["PACCacheStats", "PACEngine", "PACResult"]

_MASK64 = (1 << 64) - 1

#: Bounds on the host-side MAC cache: per-key-value entry count and the
#: number of distinct key values kept (oldest-first eviction on both).
_MAC_CACHE_ENTRY_LIMIT = 8192
_MAC_CACHE_BUCKET_LIMIT = 64

#: Error codes ORed into the extension on failed authentication, per the
#: architecture: instruction keys flip bit 62 patterns, data keys bit 61.
_ERROR_CODE = {"ia": 0b01, "ib": 0b01, "da": 0b10, "db": 0b10, "ga": 0b11}


@dataclass(frozen=True)
class PACResult:
    """Outcome of an AuthPAC operation."""

    pointer: int
    ok: bool


class PACCacheStats:
    """Counters for the host-side PAC MAC cache.

    ``flushes`` counts key-register writes that dropped a populated
    bucket (the architectural invalidation events); ``evictions`` counts
    entries dropped for capacity only.
    """

    __slots__ = ("hits", "misses", "flushes", "flushed_entries", "evictions")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.flushed_entries = 0
        self.evictions = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    def to_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "flushed_entries": self.flushed_entries,
            "evictions": self.evictions,
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
        self._cipher_cache = {}
        #: Nullable tracing hook ``(op, ok)`` — one call per
        #: architectural PAC operation, whether it runs on the core or
        #: host-side (boot signing, object initialization).  The
        #: internal AddPAC a failed AuthPAC recomputes is not reported
        #: separately.  Cache hits/misses/flushes report through the
        #: same hook with ``cache_*`` ops.
        self.trace_hook = None
        #: Host-side MAC cache (see repro.hotpath): buckets keyed by
        #: the 128-bit key *value*, each mapping (canonical pointer,
        #: modifier) -> MAC.  Keying by value (not register identity)
        #: means even an in-place key corruption — which bypasses the
        #: MSR path — can never be served a stale MAC; the MSR path
        #: additionally flushes the replaced value's bucket explicitly
        #: (:meth:`note_key_write`), which is the invalidation contract
        #: the key-bank model requires and the staleness regression
        #: test pins.
        self._cache_macs = hotpath.pac_cache_enabled()
        self._mac_cache = {}
        self.cache_stats = PACCacheStats()

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

    def _pac_bits(self, pointer):
        return self.config.pac_field_bits(self._is_kernel(pointer))

    def compute_pac(self, pointer, modifier, key):
        """Raw 64-bit MAC over the canonicalised pointer and modifier."""
        canonical = self.config.canonicalize(pointer)
        modifier &= _MASK64
        if not self._cache_macs:
            return self._cipher(key).encrypt(canonical, modifier)
        stats = self.cache_stats
        bucket_key = (key.lo, key.hi)
        bucket = self._mac_cache.get(bucket_key)
        if bucket is None:
            if len(self._mac_cache) >= _MAC_CACHE_BUCKET_LIMIT:
                oldest = next(iter(self._mac_cache))
                stats.evictions += len(self._mac_cache.pop(oldest))
            bucket = self._mac_cache[bucket_key] = {}
        mac = bucket.get((canonical, modifier))
        if mac is None:
            stats.misses += 1
            if self.trace_hook is not None:
                self.trace_hook("cache_miss", True)
            mac = self._cipher(key).encrypt(canonical, modifier)
            if len(bucket) >= _MAC_CACHE_ENTRY_LIMIT:
                bucket.pop(next(iter(bucket)))
                stats.evictions += 1
            bucket[(canonical, modifier)] = mac
        else:
            stats.hits += 1
            if self.trace_hook is not None:
                self.trace_hook("cache_hit", True)
        return mac

    def note_key_write(self, key):
        """A key register is about to be overwritten: drop its MACs.

        Called by the CPU's MSR path with the key *currently* in the
        register, before the new value lands.  MACs computed under the
        outgoing value are flushed, so a PAC cached before a
        key-register write is never served after it.  (The cache is
        additionally keyed by value, so this is belt and braces — but
        the explicit flush is the architectural contract, and the one
        the counters and trace events make observable.)
        """
        bucket = self._mac_cache.pop((key.lo, key.hi), None)
        if bucket is not None:
            self.cache_stats.flushes += 1
            self.cache_stats.flushed_entries += len(bucket)
            if self.trace_hook is not None:
                self.trace_hook("cache_flush", True)

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
        bits = self._pac_bits(pointer)
        mac = self.compute_pac(pointer, modifier, key)
        was_canonical = self.config.is_canonical(pointer)
        result = self.config.canonicalize(pointer)
        for mac_index, bit in enumerate(bits):
            mac_bit = (mac >> mac_index) & 1
            result = (result & ~(1 << bit)) | (mac_bit << bit)
        if not was_canonical and bits:
            # Poison one PAC bit so the forged value never authenticates.
            result ^= 1 << bits[-1]
        return result & _MASK64

    def auth_pac(self, pointer, modifier, key, key_name=None):
        """AUT* instruction: verify and strip the PAC.

        Returns a :class:`PACResult`; on success the pointer is the
        canonical (usable) address, on failure it is non-canonical with
        the per-key error code in the top extension bits.
        """
        pointer &= _MASK64
        expected = self._add_pac(
            self.config.canonicalize(pointer), modifier, key
        )
        ok = expected == pointer
        if self.trace_hook is not None:
            self.trace_hook("auth", ok)
        if ok:
            return PACResult(self.config.canonicalize(pointer), True)
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
        canonical = self.config.canonicalize(pointer)
        bits = self._pac_bits(pointer)
        if not bits:
            return canonical
        poisoned = canonical ^ (1 << bits[-1])
        if len(bits) >= 2 and code & 0b10:
            poisoned ^= 1 << bits[-2]
        return poisoned & _MASK64

    def decode_poison(self, pointer):
        """Inverse of :meth:`_poison`: which key *class* failed?

        Returns ``"instruction"`` (ia/ib: bit ``bits[-2]`` untouched),
        ``"data"`` (da/db — and ga, whose code shares the high bit:
        ``bits[-2]`` flipped), or ``None`` when the pointer is canonical
        or its deviation from canonical is not a poison pattern at all.
        """
        pointer &= _MASK64
        canonical = self.config.canonicalize(pointer)
        diff = pointer ^ canonical
        if diff == 0:
            return None
        bits = self._pac_bits(pointer)
        if not bits:
            return None
        mask = 1 << bits[-1]
        if len(bits) >= 2:
            mask |= 1 << bits[-2]
        if diff & ~mask or not diff & (1 << bits[-1]):
            return None
        if len(bits) >= 2 and diff & (1 << bits[-2]):
            return "data"
        return "instruction"

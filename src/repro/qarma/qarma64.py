"""QARMA-64 tweakable block cipher (Avanzi, ToSC 2017).

QARMA is the reference pointer-authentication-code (PAC) algorithm of the
ARMv8.3-A pointer authentication extension.  The Camouflage paper relies
on it (via the processor) to compute PACs over pointers; this module is a
complete, from-scratch implementation of the 64-bit variant used for that
purpose.

The cipher is a three-round Even-Mansour construction with a keyed
pseudo-reflector in the middle:

    P -> +w0 -> r forward rounds -> forward(w1) -> reflector(k1)
      -> backward(w0) -> r backward rounds -> +w1 -> C

The state is sixteen 4-bit cells arranged in a 4x4 array; cell 0 holds
the most significant nibble.  Each forward round XORs the round tweakey
(core key, tweak and round constant), shuffles cells with the
permutation tau, multiplies by the almost-MDS matrix M = circ(0, r1, r2,
r1) over the ring of 4-bit rotations, and applies one of three published
S-boxes (sigma0, sigma1, sigma2).  The tweak itself is updated every
round by the permutation h followed by an LFSR on seven designated
cells.

Every layer but the S-box is XOR-linear, so the cipher runs as a fused
circuit on byte-indexed tables (:class:`WordTables`): each round is
eight lookups in a table folding the S-box into the linear layer after
it, and one wide lookup yields the tweak's term in every round, each a
64-bit lane.  The tables are process-wide constants built once per
(S-box, rounds), on first use, from the cell-level helpers below.

The implementation is validated in the test suite against the published
reference test vectors (rounds 5, 6 and 7, S-boxes sigma0 and sigma1;
sigma1 is the variant the ARM reference PAC algorithm uses).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache

from repro import hotpath

__all__ = ["CipherMemoStats", "Qarma64", "SBOXES", "ALPHA", "ROUND_CONSTANTS"]

_MASK64 = (1 << 64) - 1

#: Capacity bound for each instance's encryption memo.
_MEMO_LIMIT = 1 << 16

#: The published QARMA S-boxes sigma0 and sigma1.  sigma1 is the S-box
#: the ARM reference PAC algorithm (ComputePAC) uses and the default.
SBOXES = (
    (10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4),
    (11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10),
)

#: Cell shuffle used by ShuffleCells (the MIDORI permutation).
TAU = (0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2)

#: Cell permutation used by the tweak schedule.
H_PERM = (6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11)

#: Cells of the tweak that pass through the LFSR each round.
LFSR_CELLS = (0, 1, 3, 4, 8, 11, 13)

#: M = Q = circ(0, rho, rho^2, rho): entries are rotation amounts, 0 means
#: the zero element of the ring (no contribution).
M_MATRIX = (
    (0, 1, 2, 1),
    (1, 0, 1, 2),
    (2, 1, 0, 1),
    (1, 2, 1, 0),
)

#: Constant that makes the reflector key asymmetric between the two
#: halves of the cipher.
ALPHA = 0xC0AC29B7C97C50DD

#: Round constants c_0 .. c_7 (digits of pi).
ROUND_CONSTANTS = (
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0x3F84D5B5B5470917,
    0x9216D5D98979FB1B,
)


def _invert_perm(perm):
    inverse = [0] * len(perm)
    for index, value in enumerate(perm):
        inverse[value] = index
    return tuple(inverse)


TAU_INV = _invert_perm(TAU)
SBOXES_INV = tuple(_invert_perm(sbox) for sbox in SBOXES)


def _text_to_cells(value):
    """Split a 64-bit integer into 16 nibbles, cell 0 most significant."""
    return [(value >> (4 * (15 - index))) & 0xF for index in range(16)]


def _cells_to_text(cells):
    value = 0
    for cell in cells:
        value = (value << 4) | (cell & 0xF)
    return value


def _rot4(cell, amount):
    """Rotate a 4-bit cell left by ``amount`` bits."""
    return ((cell << amount) | (cell >> (4 - amount))) & 0xF


def _lfsr(cell):
    """Forward tweak LFSR: (b3 b2 b1 b0) -> (b0^b1, b3, b2, b1)."""
    return (((cell ^ (cell >> 1)) & 1) << 3) | (cell >> 1)


def _shuffle(cells, perm):
    return [cells[perm[index]] for index in range(16)]


#: _RING[amount][cell]: ``cell`` times an M entry (amount 0 is the zero).
_RING = tuple(
    tuple(_rot4(cell, amount) if amount else 0 for cell in range(16))
    for amount in range(4)
)


def _mix_columns(cells):
    """Multiply the 4x4 cell array by M over the rotation ring."""
    return [
        _RING[a0][cells[col]] ^ _RING[a1][cells[4 + col]]
        ^ _RING[a2][cells[8 + col]] ^ _RING[a3][cells[12 + col]]
        for a0, a1, a2, a3 in M_MATRIX
        for col in range(4)
    ]


def _omega(word):
    """The whitening-key orthomorphism o(w) = (w >>> 1) ^ (w >> 63)."""
    return (((word >> 1) | (word << 63)) ^ (word >> 63)) & _MASK64


def _cellwise(*steps):
    """A word -> word map running ``steps`` on the cell list in order."""

    def apply(word):
        cells = _text_to_cells(word)
        for step in steps:
            cells = step(cells)
        return _cells_to_text(cells)

    return apply


def _byte_tables(linear, sbox=tuple(range(16))):
    """Eight byte-indexed tables computing ``linear`` after ``sbox``.

    ``sbox`` acts on each cell and ``linear`` is XOR-linear on words, so
    the image of a word is the XOR of its bytes' images, each the XOR of
    its two cells' images.  Only the 64 single-bit words go through the
    (slow) cell-level map; everything else is combined by XOR.
    """
    per_cell = []
    for position in range(16):
        images = [0]
        for bit in range(4):
            image = linear(1 << (4 * (15 - position) + bit))
            images += [value ^ image for value in images]
        per_cell.append([images[cell] for cell in sbox])
    return tuple(
        tuple(high ^ low for high in per_cell[2 * byte]
              for low in per_cell[2 * byte + 1])
        for byte in range(8)
    )


def _byte_sbox(sbox):
    """``sbox`` on both cells of a byte, as a ``bytes.translate`` table."""
    return bytes((sbox[v >> 4] << 4) | sbox[v & 0xF] for v in range(256))


#: The fused circuit's tables.  LS = S then L (tau, then M: a forward
#: round); RS = S then R (tau^-1 M tau, the reflector's linear part); LB
#: = S^-1 then M then tau^-1 (a backward round); SIB = S^-1 on both
#: cells of a byte; W = the tweak's term in every round (see _lanes).
WordTables = namedtuple("WordTables", "LS RS LB SIB W")

_L = _cellwise(lambda c: _shuffle(c, TAU), _mix_columns)
_R = _cellwise(lambda c: _shuffle(c, TAU), _mix_columns,
               lambda c: _shuffle(c, TAU_INV))


def _lanes(forward, backward):
    """Round terms as the 64-bit lanes of one integer, in the order
    :meth:`Qarma64._crypt` reads them from the lowest: L of forward round
    r's term (it is added behind L) in lane r - 1, backward round r's in
    lane 2 * rounds - r.  ``forward[r - 1]`` is round r's term."""
    packed = 0
    for word in backward:
        packed = (packed << 64) | word
    for word in reversed(forward):
        packed = (packed << 64) | _L(word)
    return packed


def _tweak_terms(rounds, tweak):
    """The lanes of t_1 .. t_rounds, ``tweak`` after each update."""
    schedule = []
    for _ in range(rounds):
        tweak = Qarma64._tweak_forward(tweak)
        schedule.append(tweak)
    return _lanes(schedule, schedule)


@lru_cache(maxsize=None)
def _word_tables(sbox_index, rounds):
    """The :class:`WordTables` of one variant, built on first use."""
    sbox, inverse = SBOXES[sbox_index], SBOXES_INV[sbox_index]
    return WordTables(
        LS=_byte_tables(_L, sbox),
        RS=_byte_tables(_R, sbox),
        LB=_byte_tables(
            _cellwise(_mix_columns, lambda c: _shuffle(c, TAU_INV)), inverse
        ),
        SIB=_byte_sbox(inverse),
        # Every lane is XOR-linear in the tweak, so the whole is too.
        W=_byte_tables(lambda tweak: _tweak_terms(rounds, tweak)),
    )


def _round_keys(core, whitening, centre, rounds):
    """Tweak-free tweakeys of one half: core ^ c_r per round, the
    whitening key folded into round 0, the centre round's key last."""
    keys = [core ^ constant for constant in ROUND_CONSTANTS[:rounds]]
    keys[0] ^= whitening
    return tuple(keys) + (centre,)


def _plan(forward, backward, reflect_key):
    """One direction's keys as :meth:`Qarma64._crypt` reads them, the
    round keys packed like W's lanes so that one XOR adds them all."""
    return (forward[0], _lanes(forward[1:], backward[1:]), reflect_key,
            backward[0])


class CipherMemoStats:
    """Hit/miss counters for one instance's encryption memo."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def to_dict(self):
        return {"hits": self.hits, "misses": self.misses}


@dataclass(frozen=True)
class Qarma64:
    """QARMA-64 with a 128-bit key ``w0 || k0``.

    Parameters
    ----------
    w0, k0:
        The two 64-bit halves of the key: ``w0`` is the whitening key,
        ``k0`` the core key.
    rounds:
        Number of forward rounds ``r`` (the cipher has ``2r + 2`` rounds
        plus the reflector in total).  The paper recommends r >= 5 for
        sigma1; ARM reference implementations use QARMA5-64-sigma1.
    sbox_index:
        Which published S-box to use: 0 (sigma0) or 1 (sigma1, the
        default, matching the ARM reference PAC algorithm).
    """

    w0: int
    k0: int
    rounds: int = 5
    sbox_index: int = 1

    def __post_init__(self):
        if not 0 <= self.w0 <= _MASK64 or not 0 <= self.k0 <= _MASK64:
            raise ValueError("QARMA-64 key halves must be 64-bit integers")
        if not 1 <= self.rounds <= len(ROUND_CONSTANTS):
            raise ValueError(
                f"rounds must be in 1..{len(ROUND_CONSTANTS)}, got {self.rounds}"
            )
        if self.sbox_index not in (0, 1):
            raise ValueError("sbox_index must be 0 or 1")
        # Host-side precomputation on the frozen instance: the derived
        # whitening key, the tables of its variant (process-wide
        # constants), each direction's keys, and (when enabled, see
        # repro.hotpath) a pure (plaintext, tweak) -> ciphertext memo.  A
        # frozen instance's encryption is a pure function of its inputs,
        # so the memo can never serve a stale value — it survives key
        # switches because a *new* key value gets a *new* cipher instance.
        w1 = _omega(self.w0)
        tables = _word_tables(self.sbox_index, self.rounds)
        forward = _round_keys(self.k0, self.w0, w1, self.rounds)
        backward = _round_keys(self.k0 ^ ALPHA, w1, self.w0, self.rounds)
        # The reflector is R(x) ^ tau^-1(k1); R is an involution, so its
        # inverse is R(x) ^ R(tau^-1(k1)).
        reflect_key = _cellwise(lambda c: _shuffle(c, TAU_INV))(self.k1)
        object.__setattr__(self, "_w1", w1)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(
            self, "_encrypt_keys", _plan(forward, backward, reflect_key)
        )
        object.__setattr__(
            self, "_decrypt_keys", _plan(backward, forward, _R(reflect_key))
        )
        object.__setattr__(
            self, "_memo", OrderedDict() if hotpath.caches_enabled() else None
        )
        object.__setattr__(self, "memo_stats", CipherMemoStats())

    @property
    def w1(self):
        """Derived whitening key for the backward half."""
        return self._w1

    @property
    def k1(self):
        """Reflector key.

        For encryption the reflector tweakey equals the core key k0; the
        asymmetry between the two halves of the cipher comes from the
        Q-matrix multiplication inside the reflector and from the alpha
        constant folded into the backward round tweakeys.
        """
        return self.k0

    # -- the tweak update (the W table is built from it) ---------------------

    @staticmethod
    def _tweak_forward(tweak):
        cells = _shuffle(_text_to_cells(tweak), H_PERM)
        for index in LFSR_CELLS:
            cells[index] = _lfsr(cells[index])
        return _cells_to_text(cells)

    # -- the cipher circuit --------------------------------------------------

    def _crypt(self, block, tweak, plan):
        """Run the whole cipher on the fused tables.

        ``plan`` is one direction's keys from :func:`_plan`.  Decryption
        is this same circuit with the forward and backward keys swapped:
        each inverse round has the shape of its mirror round, so one
        table set serves both.
        """
        first, keys, reflect_key, last = plan
        tables = self._tables
        f0, f1, f2, f3, f4, f5, f6, f7 = tables.LS
        b0, b1, b2, b3, b4, b5, b6, b7 = tables.LB
        r0, r1, r2, r3, r4, r5, r6, r7 = tables.RS
        t0, t1, t2, t3, t4, t5, t6, t7 = tables.W
        mask, rounds = _MASK64, self.rounds
        # Every round's tweakey, one 64-bit lane each, in round order.
        x0, x1, x2, x3, x4, x5, x6, x7 = tweak.to_bytes(8, "big")
        lanes = (t0[x0] ^ t1[x1] ^ t2[x2] ^ t3[x3] ^ t4[x4] ^ t5[x5]
                 ^ t6[x6] ^ t7[x7] ^ keys)
        # Forward rounds, the centre round last: S then L, adding the
        # round's tweakey behind L.
        state = block ^ first ^ tweak
        for _ in range(rounds):
            x0, x1, x2, x3, x4, x5, x6, x7 = state.to_bytes(8, "big")
            state = (f0[x0] ^ f1[x1] ^ f2[x2] ^ f3[x3] ^ f4[x4] ^ f5[x5]
                     ^ f6[x6] ^ f7[x7] ^ (lanes & mask))
            lanes >>= 64
        x0, x1, x2, x3, x4, x5, x6, x7 = state.to_bytes(8, "big")
        state = (r0[x0] ^ r1[x1] ^ r2[x2] ^ r3[x3]
                 ^ r4[x4] ^ r5[x5] ^ r6[x6] ^ r7[x7] ^ reflect_key)
        # Backward rounds, centre first: LB then the key; round 0 is S^-1.
        for _ in range(rounds):
            x0, x1, x2, x3, x4, x5, x6, x7 = state.to_bytes(8, "big")
            state = (b0[x0] ^ b1[x1] ^ b2[x2] ^ b3[x3] ^ b4[x4] ^ b5[x5]
                     ^ b6[x6] ^ b7[x7] ^ (lanes & mask))
            lanes >>= 64
        state = state.to_bytes(8, "big").translate(tables.SIB)
        return int.from_bytes(state, "big") ^ last ^ tweak

    # -- public API --------------------------------------------------------

    def encrypt(self, plaintext, tweak):
        """Encrypt a 64-bit block under a 64-bit tweak."""
        if not 0 <= plaintext <= _MASK64:
            raise ValueError("plaintext must be a 64-bit integer")
        if not 0 <= tweak <= _MASK64:
            raise ValueError("tweak must be a 64-bit integer")
        memo = self._memo
        if memo is not None:
            cached = memo.get((plaintext, tweak))
            if cached is not None:
                self.memo_stats.hits += 1
                return cached
            self.memo_stats.misses += 1
        result = self._crypt(plaintext, tweak, self._encrypt_keys)
        if memo is not None:
            if len(memo) >= _MEMO_LIMIT:
                memo.popitem(last=False)  # FIFO, O(1)
            memo[(plaintext, tweak)] = result
        return result

    def decrypt(self, ciphertext, tweak):
        """Decrypt a 64-bit block under a 64-bit tweak.

        Runs the encryption circuit backwards (the exact inverse of
        :meth:`encrypt`), so ``decrypt(encrypt(p, t), t) == p`` for every
        plaintext and tweak.
        """
        if not 0 <= ciphertext <= _MASK64:
            raise ValueError("ciphertext must be a 64-bit integer")
        if not 0 <= tweak <= _MASK64:
            raise ValueError("tweak must be a 64-bit integer")
        return self._crypt(ciphertext, tweak, self._decrypt_keys)

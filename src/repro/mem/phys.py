"""Sparse physical memory backing the simulated machine.

Frames are allocated lazily.  Code is bytes like any other data: an
instruction is stored as its 32-bit word (:mod:`repro.arch.isa`'s
instruction format) and decoded again when fetched, so a data write
over code changes what executes, and reading the XOM key setter's
bytes would disclose its key immediates.
"""

from __future__ import annotations

import struct

from repro import hotpath
from repro.arch.isa import HostCall, decode
from repro.errors import ReproError

__all__ = ["EVERYTHING", "Generation", "NOTHING", "PhysicalMemory"]

_MASK64 = (1 << 64) - 1
_WORD = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")


#: Bump scopes besides one low VPN (see :class:`Generation`).
NOTHING = -1
EVERYTHING = None


class Generation:
    """The machine generation: one strictly increasing mutation count.

    Physical memory and every page table of one machine share a single
    cell and bump it on each change a cached fetch or translation could
    depend on (code stores, mappings, stage-2 permissions, installing a
    table).

    Each bump names its scope: ``NOTHING``, ``EVERYTHING`` or one low
    VPN (the stage-1 index, shared by a user and a kernel page), and
    drops what it covers from every registered host cache at once, like
    ``TLBI VAE1``.
    """

    __slots__ = ("value", "_caches")

    def __init__(self):
        self.value = 0
        self._caches = []

    def register(self, cache, pages, stats=None):
        """Have every bump drop what it covers from the dict ``cache``.
        ``pages`` maps a low VPN to the collection of ``cache``'s keys
        on it, added by the owner on each insert: a page-bump pops that
        collection and deletes its keys still cached (one key may sit
        under several pages, and an earlier bump may have dropped it),
        an everything-bump clears both dicts, counted in
        ``stats.flushes`` if ``cache`` was not empty."""
        self._caches.append((cache, pages, stats))

    def bump(self, scope):
        self.value += 1
        if scope == NOTHING:
            return
        for cache, pages, stats in self._caches:
            if scope is EVERYTHING:
                if cache and stats is not None:
                    stats.flushes += 1
                cache.clear()
                pages.clear()
            else:
                for key in pages.pop(scope, ()):
                    cache.pop(key, None)


class PhysicalMemory:
    """Byte-addressable sparse physical memory.

    Parameters
    ----------
    page_shift:
        log2 of the frame size; must match the MMU granule.
    """

    def __init__(self, page_shift=12):
        self.page_shift = page_shift
        self.page_size = 1 << page_shift
        self._frames = {}
        #: Bumped on every write to a code frame, one store_instruction
        #: wrote or a fetch read (a loaded image's or placed program's
        #: text is plain bytes until then); an MMU shares this cell with
        #: its page tables.
        self.generation = Generation()
        self._code_frames = set()
        #: The code frames a fetch has read: only writes to these can
        #: stale a decoded block.
        self._fetched = set()
        #: This machine's host calls, bound to slots in store order.
        self.host_calls = []
        #: Decode memo (see repro.hotpath): (word, pc) -> instruction,
        #: which serves code stored again at another pa without decoding
        #: it, and never goes stale.
        self._memoize = hotpath.caches_enabled()
        self._words = {}

    def _frame(self, frame_number):
        frame = self._frames.get(frame_number)
        if frame is None:
            frame = bytearray(self.page_size)
            self._frames[frame_number] = frame
        return frame

    # -- data access ----------------------------------------------------------

    def read(self, pa, size):
        """Read ``size`` bytes starting at physical address ``pa``."""
        out = bytearray()
        while size > 0:
            frame_number, offset = divmod(pa, self.page_size)
            chunk = min(size, self.page_size - offset)
            out += self._frame(frame_number)[offset:offset + chunk]
            pa += chunk
            size -= chunk
        return bytes(out)

    def write(self, pa, data):
        """Write ``data`` starting at physical address ``pa``."""
        offset_in_data = 0
        size = len(data)
        while offset_in_data < size:
            frame_number, offset = divmod(pa, self.page_size)
            chunk = min(size - offset_in_data, self.page_size - offset)
            self._frame(frame_number)[offset:offset + chunk] = data[
                offset_in_data:offset_in_data + chunk
            ]
            if frame_number in self._code_frames:
                self._code_written(frame_number)
            pa += chunk
            offset_in_data += chunk

    def read_u64(self, pa):
        """Unpacked in place when the 8 bytes sit in one frame.  A frame
        is never empty, so ``or`` only calls ``_frame`` to allocate."""
        frame_number, offset = divmod(pa, self.page_size)
        if offset <= self.page_size - 8:
            frame = self._frames.get(frame_number) or self._frame(frame_number)
            return _U64.unpack_from(frame, offset)[0]
        return int.from_bytes(self.read(pa, 8), "little")

    def write_u64(self, pa, value):
        frame_number, offset = divmod(pa, self.page_size)
        if offset > self.page_size - 8:
            self.write(pa, (value & _MASK64).to_bytes(8, "little"))
            return
        frame = self._frames.get(frame_number) or self._frame(frame_number)
        _U64.pack_into(frame, offset, value & _MASK64)
        if frame_number in self._code_frames:
            self._code_written(frame_number)

    def read_pair(self, pa):
        """The two words at ``pa`` and ``pa + 8``, which must sit in one
        frame, unpacked in place."""
        frame_number, offset = divmod(pa, self.page_size)
        frame = self._frames.get(frame_number) or self._frame(frame_number)
        return _PAIR.unpack_from(frame, offset)

    def write_pair(self, pa, first, second):
        """Pack two words at ``pa`` within one frame; a code frame bumps
        the generation once."""
        frame_number, offset = divmod(pa, self.page_size)
        frame = self._frames.get(frame_number) or self._frame(frame_number)
        _PAIR.pack_into(frame, offset, first & _MASK64, second & _MASK64)
        if frame_number in self._code_frames:
            self._code_written(frame_number)

    def _code_written(self, frame_number):
        fetched = frame_number in self._fetched
        self.generation.bump(EVERYTHING if fetched else NOTHING)

    # -- instruction storage ----------------------------------------------------

    def store_instruction(self, pa, instruction, pc=None):
        """Write ``instruction``'s word at ``pa``.  ``pc`` is its virtual
        address, which PC-relative fields need.  An operand the format
        cannot hold raises ReproError before anything is written."""
        if pa % 4:
            raise ReproError(f"instruction address {pa:#x} not 4-aligned")
        if isinstance(instruction, HostCall):
            instruction = instruction.bound(len(self.host_calls))
            self.host_calls.append(instruction)
        data = instruction.encoding(pc)
        # The frame is code from here on, so the write bumps the
        # generation.
        self._code_frames.add(pa >> self.page_shift)
        self.write(pa, data)

    def fetch_block(self, pa, pc, limit):
        """The instructions decoded from the words at ``pa`` on, the
        first at virtual address ``pc``: up to and including the first
        that ends a block, at most ``limit`` and within the frame, and
        before the first word that does not decode (none if ``pa`` is
        not 4-aligned or its word does not decode)."""
        if pa % 4:
            return []
        frame_number, offset = divmod(pa, self.page_size)
        self._code_frames.add(frame_number)
        self._fetched.add(frame_number)
        frame = self._frames.get(frame_number) or self._frame(frame_number)
        words, block = self._words, []
        for (word,) in _WORD.iter_unpack(frame[offset:offset + 4 * limit]):
            key = (word, pc)
            instruction = words.get(key)
            if instruction is None:
                instruction = decode(word, pc, self.host_calls)
                if instruction is None:
                    break
                if self._memoize:
                    words[key] = instruction
            block.append(instruction)
            if instruction.ends_block:
                break
            pc += 4
        return block

    def fetch_instruction(self, pa, pc):
        """Decode the word at ``pa`` as the instruction at virtual
        address ``pc`` (None if it is not one): a one-word block."""
        block = self.fetch_block(pa, pc, 1)
        return block[0] if block else None

    def erase_instruction(self, pa):
        """Zero the word at ``pa`` (a plain write, skipped if it is 0)."""
        if self.read(pa, 4) != bytes(4):
            self.write(pa, bytes(4))

"""Sparse physical memory backing the simulated machine.

Frames are allocated lazily; code pages additionally carry decoded
instruction objects beside their byte image, so that execution fetches
instruction objects while data reads of the same locations return the
byte encoding (needed, e.g., to demonstrate that the XOM key-setter
cannot be disassembled by reading it).
"""

from __future__ import annotations

import struct

from repro.errors import ReproError

__all__ = ["Generation", "PhysicalMemory"]

_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")


class Generation:
    """The machine generation: one strictly increasing mutation count.

    Physical memory and every page table of one machine share a single
    cell and bump it on each change a cached fetch or translation could
    depend on (code stores, mappings, stage-2 permissions, installing a
    table).  A host-side cache stamped with an older value is stale.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


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
        #: Decoded instructions, keyed by physical address.
        self._instructions = {}
        #: Bumped on every instruction store/erase and on every data
        #: write that touches a frame holding decoded instructions; an
        #: MMU shares this cell with its page tables.
        self.generation = Generation()
        self._code_frames = set()

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
                self.generation.value += 1
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
            self.generation.value += 1

    # -- instruction storage ----------------------------------------------------

    def store_instruction(self, pa, instruction):
        """Place a decoded instruction at ``pa`` (4-byte granularity).

        The instruction's pseudo-encoding is also written as data so the
        location reads back as bytes.
        """
        if pa % 4:
            raise ReproError(f"instruction address {pa:#x} not 4-aligned")
        self._instructions[pa] = instruction
        # The frame is code from here on, so the write below bumps the
        # generation.
        self._code_frames.add(pa >> self.page_shift)
        self.write(pa, instruction.encoding())

    def fetch_instruction(self, pa):
        """Fetch the decoded instruction at ``pa`` (None if not code)."""
        return self._instructions.get(pa)

    def erase_instruction(self, pa):
        if self._instructions.pop(pa, None) is not None:
            self.generation.value += 1

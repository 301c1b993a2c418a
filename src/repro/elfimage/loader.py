"""Placing images into simulated memory.

The loader maps each section's pages through the MMU (allocating
physical frames from a bump allocator), writes every section's bytes,
text words included, and returns the per-section frame lists so the
hypervisor can seal text/rodata or carve out XOM pages.  Its one
relocation kind is the HostCall slot: every word of the decoded text
programs it is handed (the ones the caller verified) that is a HostCall
moves from its image-local slot past the ones the machine already
holds.  The loader decodes nothing itself, so an image is decoded once
per load and the loader writes what the verifier judged.
"""

from __future__ import annotations

from repro.arch.isa import HostCall
from repro.errors import ReproError
from repro.mem.pagetable import Permissions

__all__ = ["FrameAllocator", "ImageLoader", "LoadedImage"]

_PAGE = 4096


class FrameAllocator:
    """Bump allocator over physical frame numbers."""

    def __init__(self, first_frame=0x1000):
        self._next = first_frame

    def allocate(self, count=1):
        first = self._next
        self._next += count
        return first


class LoadedImage:
    """Result of loading: image plus physical placement."""

    def __init__(self, image):
        self.image = image
        self.section_frames = {}  # section name -> list of frames

    def frames_of(self, section_name):
        try:
            return self.section_frames[section_name]
        except KeyError:
            raise ReproError(f"section {section_name!r} not loaded") from None


class ImageLoader:
    """Loads :class:`~repro.elfimage.image.Image` objects into an MMU."""

    def __init__(self, mmu, allocator=None):
        self.mmu = mmu
        self.allocator = allocator or FrameAllocator()

    def load(self, image, programs):
        """Map and write every section, binding the HostCall words of
        ``programs``, the image's decoded text (``text_programs()``)."""
        phys = self.mmu.phys
        first_slot = len(phys.host_calls)
        contents = {
            section.base: bytearray(section.data)
            for section in image.sections.values()
        }
        for program in programs:
            data = contents[program.base]
            for address, insn in program.instructions:
                if isinstance(insn, HostCall):
                    offset = address - program.base
                    call = insn.bound(first_slot + insn.slot)
                    data[offset:offset + 4] = call.encoding()
        phys.host_calls.extend(
            call.bound(first_slot + call.slot) for call in image.host_calls
        )
        loaded = LoadedImage(image)
        for section in image.sections.values():
            data = contents[section.base]
            pages = max(1, (section.size + _PAGE - 1) // _PAGE)
            first_frame = self.allocator.allocate(pages)
            self.mmu.map_range(
                section.base,
                pages * _PAGE,
                first_frame,
                section.permissions,
            )
            loaded.section_frames[section.name] = list(
                range(first_frame, first_frame + pages)
            )
            if data:
                phys.write(first_frame << self.mmu.page_shift, data)
        return loaded

    def map_stack(self, top_va, size, el0=False):
        """Map a downward-growing stack ending (exclusive) at ``top_va``.

        Kernel task stacks are 16 KiB and 4 KiB-aligned — the alignment
        that makes the low 12 bits of SP repeat across threads, which
        the paper's hardened modifier defends against (Section 4.2).
        """
        return self.map_heap(top_va - size, size, el0)

    def map_heap(self, base_va, size, el0=False):
        """Map a kernel (or user) data region and return its base."""
        if base_va % _PAGE or size % _PAGE:
            raise ReproError("data region bounds must be page-aligned")
        first_frame = self.allocator.allocate(size // _PAGE)
        permissions = (
            Permissions.user_data() if el0 else Permissions.kernel_data()
        )
        self.mmu.map_range(base_va, size, first_frame, permissions)
        return base_va

"""Placing images into simulated memory.

The loader maps each section's pages through the MMU (allocating
physical frames from a bump allocator), writes data bytes, stores
decoded instructions for text, and returns the per-section frame lists
so the hypervisor can seal text/rodata or carve out XOM pages.
"""

from __future__ import annotations

from repro.errors import ReproError

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

    @property
    def next_frame(self):
        return self._next


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

    def load(self, image):
        loaded = LoadedImage(image)
        for section in image.sections.values():
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
            base_pa = first_frame << self.mmu.page_shift
            if section.data:
                self.mmu.phys.write(base_pa, section.data)
            if section.program is not None:
                self.mmu.place_program(section.program)
        return loaded

    def map_stack(self, top_va, size, el0=False):
        """Map a downward-growing stack ending (exclusive) at ``top_va``.

        Kernel task stacks are 16 KiB and 4 KiB-aligned — the alignment
        that makes the low 12 bits of SP repeat across threads, which
        the paper's hardened modifier defends against (Section 4.2).
        """
        if top_va % _PAGE or size % _PAGE:
            raise ReproError("stack bounds must be page-aligned")
        from repro.mem.pagetable import Permissions

        base = top_va - size
        pages = size // _PAGE
        first_frame = self.allocator.allocate(pages)
        permissions = (
            Permissions.user_data() if el0 else Permissions.kernel_data()
        )
        self.mmu.map_range(base, size, first_frame, permissions)
        return base

    def map_heap(self, base_va, size, el0=False):
        """Map a kernel (or user) heap region and return its base."""
        if base_va % _PAGE or size % _PAGE:
            raise ReproError("heap bounds must be page-aligned")
        from repro.mem.pagetable import Permissions

        pages = size // _PAGE
        first_frame = self.allocator.allocate(pages)
        permissions = (
            Permissions.user_data() if el0 else Permissions.kernel_data()
        )
        self.mmu.map_range(base_va, size, first_frame, permissions)
        return base_va

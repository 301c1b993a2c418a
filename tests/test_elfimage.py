"""Tests for images, the signed-pointer table and the loader."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.pac import PACEngine
from repro.arch.registers import KeyBank, PAuthKey
from repro.elfimage.image import DataSectionBuilder, ImageBuilder
from repro.elfimage.loader import FrameAllocator, ImageLoader
from repro.elfimage.ptrtable import (
    SignedPointerEntry,
    field_modifier,
    sign_in_place,
)
from repro.errors import ReproError
from repro.mem.mmu import MMU

BASE = 0xFFFF_0000_0800_0000


def _simple_image(name="img"):
    asm = Assembler(BASE)
    asm.fn("entry")
    asm.emit(isa.Movz(0, 7, 0), isa.Ret())
    builder = ImageBuilder(name, BASE)
    builder.add_text(".text", asm.assemble())
    rodata = DataSectionBuilder(".rodata")
    rodata.add_u64("answer", 42)
    builder.add_data(".rodata", rodata, writable=False)
    data = DataSectionBuilder(".data")
    data.add_u64("state", 1)
    builder.add_data(".data", data, writable=True)
    return builder.build()


class TestDataSectionBuilder:
    def test_symbols_and_offsets(self):
        builder = DataSectionBuilder(".data")
        first = builder.add_u64("a", 1)
        second = builder.add_u64("b", 2)
        assert first == 0 and second == 8
        assert builder.symbols == {"a": 0, "b": 8}

    def test_alignment_padding(self):
        builder = DataSectionBuilder(".data")
        builder.add_bytes("x", b"abc", align=1)
        offset = builder.add_u64("y", 7)
        assert offset == 8
        blob = builder.build()
        assert blob[3:8] == b"\x00" * 5

    def test_add_zeros(self):
        builder = DataSectionBuilder(".bss")
        builder.add_zeros("buf", 32)
        assert builder.build() == b"\x00" * 32

    def test_duplicate_symbol_rejected(self):
        builder = DataSectionBuilder(".data")
        builder.add_u64("x", 1)
        with pytest.raises(ReproError):
            builder.add_u64("x", 2)


class TestImageBuilder:
    def test_sections_page_aligned_and_ordered(self):
        image = _simple_image()
        text = image.section(".text")
        rodata = image.section(".rodata")
        data = image.section(".data")
        assert text.base == BASE
        assert rodata.base % 4096 == 0
        assert text.end <= rodata.base < data.base

    def test_symbols_merged(self):
        image = _simple_image()
        assert image.address_of("entry") == BASE
        rodata = image.section(".rodata")
        assert image.address_of("answer") == rodata.base

    def test_unknown_section_and_symbol(self):
        image = _simple_image()
        with pytest.raises(ReproError):
            image.section(".ghost")
        with pytest.raises(ReproError):
            image.address_of("ghost")

    def test_wrong_text_base_rejected(self):
        asm = Assembler(BASE + 0x1000)
        asm.fn("entry")
        asm.emit(isa.Ret())
        builder = ImageBuilder("img", BASE)
        with pytest.raises(ReproError):
            builder.add_text(".text", asm.assemble())

    def test_duplicate_section_rejected(self):
        builder = ImageBuilder("img", BASE)
        data = DataSectionBuilder(".data")
        data.add_u64("x", 0)
        builder.add_data(".data", data)
        data2 = DataSectionBuilder(".data")
        data2.add_u64("y", 0)
        with pytest.raises(ReproError):
            builder.add_data(".data", data2)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ReproError):
            ImageBuilder("img", BASE + 8)

    def test_text_instructions_collected(self):
        image = _simple_image()
        assert len(image.text_instructions()) == 2

    def test_text_programs_hold_their_own_section_symbols(self):
        builder = ImageBuilder("two", BASE)
        for name in ("f", "g"):
            asm = Assembler(builder.next_base())
            asm.fn(name)
            asm.emit(isa.Movz(0, 7, 0), isa.Ret())
            builder.add_text(f".text.{name}", asm.assemble())
        first, second = builder.build().text_programs()
        assert (first.symbols, first.functions) == ({"f": BASE}, {"f"})
        assert first.end == BASE + 8 and second.base == BASE + 0x1000
        assert [i.text() for _, i in second.instructions] == [
            "movz x0, #0x7, lsl #0", "ret"
        ]


class TestLoader:
    def test_load_places_data_and_text(self):
        mmu = MMU()
        loader = ImageLoader(mmu)
        image = _simple_image()
        loaded = loader.load(image, image.text_programs())
        assert mmu.read_u64(image.address_of("answer"), 1) == 42
        assert mmu.fetch(image.address_of("entry"), 1) is not None
        assert loaded.frames_of(".text")

    def test_rodata_not_writable_stage1(self):
        from repro.errors import PermissionFault

        mmu = MMU()
        image = _simple_image()
        ImageLoader(mmu).load(image, image.text_programs())
        image_rodata = 0  # resolved below
        image = _simple_image("img2")  # same layout
        with pytest.raises(PermissionFault):
            mmu.write_u64(image.section(".rodata").base, 9, 1)

    def test_frame_allocator_monotonic(self):
        allocator = FrameAllocator(first_frame=10)
        a = allocator.allocate(2)
        b = allocator.allocate(1)
        assert (a, b) == (10, 12)

    def test_map_stack_alignment_enforced(self):
        loader = ImageLoader(MMU())
        with pytest.raises(ReproError):
            loader.map_stack(0xFFFF_0000_4000_0100, 16384)

    def test_map_stack_and_heap(self):
        mmu = MMU()
        loader = ImageLoader(mmu)
        base = loader.map_stack(0xFFFF_0000_4000_4000, 16384)
        assert base == 0xFFFF_0000_4000_0000
        mmu.write_u64(base, 0x11, 1)
        heap = loader.map_heap(0xFFFF_0000_8000_0000, 8192)
        mmu.write_u64(heap + 8184, 0x22, 1)
        assert mmu.read_u64(heap + 8184, 1) == 0x22

    def test_unloaded_section_frames_raise(self):
        loader = ImageLoader(MMU())
        image = _simple_image()
        loaded = loader.load(image, image.text_programs())
        with pytest.raises(ReproError):
            loaded.frames_of(".missing")


class TestSignedPointerTable:
    def test_entry_validation(self):
        with pytest.raises(ReproError):
            SignedPointerEntry(".data", 0, "ia", 0x1_0000)
        with pytest.raises(ReproError):
            SignedPointerEntry(".data", 0, "ga", 0x1)

    def test_sign_in_place(self):
        mmu = MMU()
        loader = ImageLoader(mmu)
        image = _simple_image()
        loader.load(image, image.text_programs())
        keys = KeyBank()
        keys.ia = PAuthKey(0x77, 0x88)
        engine = PACEngine()
        section = image.section(".data")
        target = 0xFFFF_0000_0801_2340
        mmu.write_u64(section.base, target, 1)
        entry = SignedPointerEntry(".data", 0, "ia", 0xBEEF)
        signed = sign_in_place(entry, section.base, mmu, engine, keys)
        assert mmu.read_u64(section.base, 1) == signed
        modifier = field_modifier(section.base, 0xBEEF)
        assert engine.auth_pac(signed, modifier, keys.ia).ok

    def test_sign_in_place_object_offset(self):
        # The modifier binds the *object* address, not the slot.
        mmu = MMU()
        loader = ImageLoader(mmu)
        image = _simple_image()
        loader.load(image, image.text_programs())
        keys = KeyBank()
        keys.ia = PAuthKey(0x77, 0x88)
        engine = PACEngine()
        section = image.section(".data")
        slot = section.base + 16
        mmu.write_u64(slot, 0xFFFF_0000_0801_2340, 1)
        entry = SignedPointerEntry(
            ".data", 16, "ia", 0xBEEF, object_offset=-16
        )
        signed = sign_in_place(entry, section.base, mmu, engine, keys)
        modifier = field_modifier(section.base, 0xBEEF)
        assert engine.auth_pac(signed, modifier, keys.ia).ok

"""Tests for the memory subsystem (repro.mem)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.vmsa import VMSAConfig
from repro.errors import PermissionFault, ReproError, TranslationFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions, Stage1Table, Stage2Table
from repro.mem.phys import PhysicalMemory

KERNEL_VA = 0xFFFF_0000_0800_0000
USER_VA = 0x0000_0000_0040_0000


class TestPhysicalMemory:
    def test_zero_fill(self):
        phys = PhysicalMemory()
        assert phys.read(0x1234, 8) == b"\x00" * 8

    def test_write_read(self):
        phys = PhysicalMemory()
        phys.write(100, b"hello")
        assert phys.read(100, 5) == b"hello"

    def test_cross_page_write(self):
        phys = PhysicalMemory()
        data = bytes(range(16))
        phys.write(4096 - 8, data)
        assert phys.read(4096 - 8, 16) == data

    def test_u64_roundtrip(self):
        phys = PhysicalMemory()
        phys.write_u64(64, 0x1122334455667788)
        assert phys.read_u64(64) == 0x1122334455667788

    def test_instruction_store_and_fetch(self):
        from repro.arch import isa

        phys = PhysicalMemory()
        nop = isa.Nop()
        phys.store_instruction(0x1000, nop)
        assert phys.fetch_instruction(0x1000) is nop
        # Its encoding is readable as data.
        assert phys.read(0x1000, 4) == nop.encoding()

    def test_instruction_misaligned_rejected(self):
        from repro.arch import isa

        with pytest.raises(ReproError):
            PhysicalMemory().store_instruction(0x1002, isa.Nop())

    def test_erase_instruction(self):
        from repro.arch import isa

        phys = PhysicalMemory()
        phys.store_instruction(0x1000, isa.Nop())
        phys.erase_instruction(0x1000)
        assert phys.fetch_instruction(0x1000) is None


class TestStage1:
    def test_el1_read_forced_on(self):
        # The VMSAv8 rule: any stage-1 mapping is readable at EL1 —
        # XOM cannot be expressed here (paper Appendix A.2).
        table = Stage1Table()
        table.map_page(5, 99, Permissions(x_el1=True))
        assert table.lookup(5).permissions.r_el1

    def test_unmap(self):
        table = Stage1Table()
        table.map_page(5, 99, Permissions.kernel_data())
        table.unmap_page(5)
        assert table.lookup(5) is None

    def test_permissions_allows(self):
        perms = Permissions.user_data()
        assert perms.allows("r", 0)
        assert perms.allows("w", 0)
        assert not perms.allows("x", 0)
        assert perms.allows("r", 1)

    def test_permissions_unknown_access(self):
        with pytest.raises(ReproError):
            Permissions().allows("q", 1)


class TestStage2:
    def test_default_allow(self):
        stage2 = Stage2Table(default_allow=True)
        assert stage2.allows(7, "r", 1)

    def test_xom_style_restriction(self):
        stage2 = Stage2Table()
        stage2.set_frame(7, r=False, w=False, x_el1=True)
        assert not stage2.allows(7, "r", 1)
        assert not stage2.allows(7, "w", 1)
        assert stage2.allows(7, "x", 1)
        assert not stage2.allows(7, "x", 0)

    def test_clear_frame(self):
        stage2 = Stage2Table()
        stage2.set_frame(7, r=False, w=False, x_el1=False)
        stage2.clear_frame(7)
        assert stage2.allows(7, "r", 1)


class TestMMU:
    @pytest.fixture
    def mmu(self):
        mmu = MMU(config=VMSAConfig())
        mmu.map_range(KERNEL_VA, 0x2000, 0x100, Permissions.kernel_data())
        mmu.map_range(USER_VA, 0x1000, 0x200, Permissions.user_data())
        return mmu

    def test_translate_kernel(self, mmu):
        pa = mmu.translate(KERNEL_VA + 0x10, "r", 1)
        assert pa == (0x100 << 12) + 0x10

    def test_translate_second_page(self, mmu):
        pa = mmu.translate(KERNEL_VA + 0x1008, "w", 1)
        assert pa == (0x101 << 12) + 0x8

    def test_noncanonical_faults(self, mmu):
        with pytest.raises(TranslationFault):
            mmu.translate(0x00FF_0000_0000_0000 | (1 << 55), "r", 1)

    def test_unmapped_faults(self, mmu):
        with pytest.raises(TranslationFault):
            mmu.translate(KERNEL_VA + 0x100000, "r", 1)

    def test_el0_cannot_touch_kernel(self, mmu):
        with pytest.raises(PermissionFault):
            mmu.translate(KERNEL_VA, "r", 0)

    def test_el0_user_access(self, mmu):
        assert mmu.translate(USER_VA, "w", 0)

    def test_stage1_permission_fault(self, mmu):
        with pytest.raises(PermissionFault) as info:
            mmu.translate(KERNEL_VA, "x", 1)
        assert info.value.stage == 1

    def test_stage2_permission_fault(self, mmu):
        mmu.stage2.set_frame(0x100, r=False, w=False, x_el1=True)
        with pytest.raises(PermissionFault) as info:
            mmu.translate(KERNEL_VA, "r", 1)
        assert info.value.stage == 2

    def test_user_tag_byte_ignored(self, mmu):
        tagged = 0xAB00_0000_0000_0000 | USER_VA
        assert mmu.translate(tagged, "r", 0) == mmu.translate(USER_VA, "r", 0)

    @settings(max_examples=30, deadline=None)
    @given(
        offset=st.integers(min_value=0, max_value=0x1FF0),
        data=st.binary(min_size=1, max_size=64),
    )
    def test_read_write_roundtrip(self, offset, data):
        mmu = MMU(config=VMSAConfig())
        mmu.map_range(KERNEL_VA, 0x3000, 0x100, Permissions.kernel_data())
        mmu.write(KERNEL_VA + offset, data, 1)
        assert mmu.read(KERNEL_VA + offset, len(data), 1) == data

    def test_u64_helpers(self, mmu):
        mmu.write_u64(KERNEL_VA + 8, 0xDEADBEEF, 1)
        assert mmu.read_u64(KERNEL_VA + 8, 1) == 0xDEADBEEF

    def test_fetch_requires_exec(self, mmu):
        with pytest.raises(PermissionFault):
            mmu.fetch(KERNEL_VA, 1)

    def test_fetch_decoded_instruction(self):
        from repro.arch import isa

        mmu = MMU(config=VMSAConfig())
        mmu.map_range(
            KERNEL_VA, 0x1000, 0x300, Permissions(r_el1=True, x_el1=True)
        )
        pa = mmu.translate(KERNEL_VA, "x", 1)
        mmu.phys.store_instruction(pa, isa.Nop())
        assert isinstance(mmu.fetch(KERNEL_VA, 1), isa.Nop)

    def test_fetch_data_page_is_fault(self):
        mmu = MMU(config=VMSAConfig())
        mmu.map_range(
            KERNEL_VA, 0x1000, 0x300, Permissions(r_el1=True, x_el1=True)
        )
        with pytest.raises(TranslationFault):
            mmu.fetch(KERNEL_VA + 0x10, 1)  # mapped but no instruction

    def test_map_invalid_address_rejected(self, mmu):
        with pytest.raises(TranslationFault):
            mmu.map_range(
                0x0010_0000_0000_0000, 0x1000, 0x100, Permissions.kernel_data()
            )

    def test_frame_of(self, mmu):
        assert mmu.frame_of(KERNEL_VA) == 0x100
        assert mmu.frame_of(KERNEL_VA + 0x1000) == 0x101
        assert mmu.frame_of(0xFFFF_0000_0000_0000) is None

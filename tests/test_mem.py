"""Tests for the memory subsystem (repro.mem)."""

import random

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
        # Memory holds the word, not the object: it decodes to an equal
        # instruction.
        assert type(phys.fetch_instruction(0x1000, 0x1000)) is isa.Nop
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
        assert phys.fetch_instruction(0x1000, 0x1000) is None


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

    def test_frame_of_noncanonical_is_none(self, mmu):
        # Not USER_VA: no table maps an address with bits above va_bits
        # that are not all equal.
        assert mmu.frame_of((1 << 48) | USER_VA) is None

    def test_place_program_at_noncanonical_rejected(self, mmu):
        from repro.arch import isa
        from repro.arch.assembler import Assembler

        program = Assembler((1 << 48) | USER_VA).emit(isa.Nop()).assemble()
        with pytest.raises(ReproError, match="cannot place code at unmapped"):
            mmu.place_program(program)
        assert mmu.phys.read(0x200 << 12, 4) == bytes(4)


PAGE = 1 << 12


def _two_page_mmu(second=Permissions.kernel_data()):
    """Kernel data page at KERNEL_VA; ``second`` (None: unmapped) next."""
    mmu = MMU(config=VMSAConfig())
    mmu.map_range(KERNEL_VA, PAGE, 0x100, Permissions.kernel_data())
    if second is not None:
        mmu.map_range(KERNEL_VA + PAGE, PAGE, 0x101, second)
    return mmu


def _fault(action):
    """``(type, address, el, stage)`` of the fault ``action`` raises."""
    with pytest.raises((TranslationFault, PermissionFault)) as info:
        action()
    fault = info.value
    return type(fault), fault.address, fault.el, getattr(fault, "stage", None)


class TestU64Oracle:
    """The one-translate 8-byte path equals the byte path (the oracle)."""

    def test_every_offset_matches_byte_path(self):
        rng = random.Random(8)
        mmu = _two_page_mmu()
        phys = mmu.phys
        for offset in range(PAGE):
            va = KERNEL_VA + offset
            value = rng.getrandbits(64)
            mmu.write_u64(va, value, 1)
            assert mmu.read(va, 8, 1) == value.to_bytes(8, "little")
            data = rng.getrandbits(64).to_bytes(8, "little")
            mmu.write(va, data, 1)
            assert mmu.read_u64(va, 1) == int.from_bytes(data, "little")
            pa = 0x100 * PAGE + offset
            phys.write_u64(pa, value)
            assert phys.read(pa, 8) == value.to_bytes(8, "little")
            phys.write(pa, data)
            assert phys.read_u64(pa) == int.from_bytes(data, "little")

    @settings(max_examples=50, deadline=None)
    @given(
        offset=st.integers(min_value=0, max_value=PAGE - 1),
        value=st.integers(min_value=-(1 << 70), max_value=1 << 70),
    )
    def test_write_u64_matches_byte_write(self, offset, value):
        fast, slow = _two_page_mmu(), _two_page_mmu()
        va = KERNEL_VA + offset
        fast.write_u64(va, value, 1)
        slow.write(va, (value & ((1 << 64) - 1)).to_bytes(8, "little"), 1)
        assert fast.read(KERNEL_VA, 2 * PAGE, 1) == slow.read(
            KERNEL_VA, 2 * PAGE, 1
        )

    @pytest.mark.parametrize(
        "second",
        [None, Permissions(r_el1=True), Permissions(r_el1=True, x_el1=True)],
        ids=["unmapped", "read-only", "no-read"],
    )
    def test_faults_like_byte_path(self, second):
        # Straddling into the second page, then inside it.
        for offset in [*range(PAGE - 7, PAGE), PAGE, PAGE + 8, 2 * PAGE - 8]:
            va = KERNEL_VA + offset
            mmu = _two_page_mmu(second)
            expected = _fault(lambda: mmu.write(va, b"\xAA" * 8, 1))
            assert expected[1] == max(va, KERNEL_VA + PAGE)
            assert _fault(lambda: mmu.write_u64(va, -1, 1)) == expected
            if second is None or not second.r_el1:
                expected = _fault(lambda: mmu.read(va, 8, 1))
                assert _fault(lambda: mmu.read_u64(va, 1)) == expected

    def test_straddle_stage2_denial_faults_like_byte_path(self):
        va = KERNEL_VA + PAGE - 4
        mmu = _two_page_mmu()
        mmu.stage2.set_frame(0x101, r=False, w=False, x_el1=False)
        for fast, slow in (
            (lambda: mmu.read_u64(va, 1), lambda: mmu.read(va, 8, 1)),
            (lambda: mmu.write_u64(va, 1, 1), lambda: mmu.write(va, bytes(8), 1)),
        ):
            assert _fault(fast) == _fault(slow)
            assert _fault(fast)[3] == 2

    def test_el0_kernel_access_is_permission_fault(self):
        mmu = _two_page_mmu()
        for offset in (0, 8, PAGE - 8, PAGE - 3):
            va = KERNEL_VA + offset
            for action in (
                lambda: mmu.read_u64(va, 0),
                lambda: mmu.write_u64(va, 1, 0),
            ):
                assert _fault(action) == (PermissionFault, va, 0, 1)

    @pytest.mark.parametrize(
        "va", [KERNEL_VA + PAGE + 0x10, KERNEL_VA + PAGE - 4],
        ids=["aligned", "straddling"],
    )
    def test_code_frame_write_bumps_generation(self, va):
        from repro.arch import isa

        mmu = _two_page_mmu(Permissions(*[True] * 6))
        mmu.phys.store_instruction(0x101 * PAGE, isa.Nop())
        generation = mmu.generation.value
        mmu.write_u64(va, 0xDEAD, 1)
        assert mmu.generation.value > generation

    def test_pair_every_offset_matches_byte_path(self):
        """``read_pair``/``write_pair`` against 16-byte ``read``/``write``
        at every offset, in-page and straddling; the physical pair
        accessors at every in-frame offset."""
        rng = random.Random(16)
        mmu = _two_page_mmu()
        phys = mmu.phys
        for offset in range(PAGE):
            va = KERNEL_VA + offset
            first, second = rng.getrandbits(64), rng.getrandbits(64)
            pair = first.to_bytes(8, "little") + second.to_bytes(8, "little")
            mmu.write_pair(va, first, second, 1)
            assert mmu.read(va, 16, 1) == pair
            data = rng.getrandbits(128).to_bytes(16, "little")
            mmu.write(va, data, 1)
            assert mmu.read_pair(va, 1) == (
                int.from_bytes(data[:8], "little"),
                int.from_bytes(data[8:], "little"),
            )
            if offset <= PAGE - 16:
                pa = 0x100 * PAGE + offset
                phys.write_pair(pa, first, second)
                assert phys.read(pa, 16) == pair
                phys.write(pa, data)
                assert phys.read_pair(pa) == mmu.read_pair(va, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        offset=st.integers(min_value=0, max_value=PAGE - 1),
        first=st.integers(min_value=-(1 << 70), max_value=1 << 70),
        second=st.integers(min_value=-(1 << 70), max_value=1 << 70),
    )
    def test_write_pair_matches_byte_write(self, offset, first, second):
        fast, slow = _two_page_mmu(), _two_page_mmu()
        va = KERNEL_VA + offset
        fast.write_pair(va, first, second, 1)
        mask = (1 << 64) - 1
        slow.write(
            va,
            (first & mask).to_bytes(8, "little")
            + (second & mask).to_bytes(8, "little"),
            1,
        )
        assert fast.read(KERNEL_VA, 2 * PAGE, 1) == slow.read(
            KERNEL_VA, 2 * PAGE, 1
        )

    @pytest.mark.parametrize(
        "second",
        [None, Permissions(r_el1=True), Permissions(r_el1=True, x_el1=True)],
        ids=["unmapped", "read-only", "no-read"],
    )
    def test_pair_faults_like_byte_path(self, second):
        """A straddling pair faults where the 16-byte byte path does,
        with the same bytes written before the fault."""
        for offset in [*range(PAGE - 15, PAGE), PAGE, PAGE + 8, 2 * PAGE - 16]:
            va = KERNEL_VA + offset
            slow, fast = _two_page_mmu(second), _two_page_mmu(second)
            expected = _fault(lambda: slow.write(va, b"\xAA" * 16, 1))
            assert expected[1] == max(va, KERNEL_VA + PAGE)
            word = int.from_bytes(b"\xAA" * 8, "little")
            assert _fault(lambda: fast.write_pair(va, word, word, 1)) == expected
            assert fast.read(KERNEL_VA, PAGE, 1) == slow.read(KERNEL_VA, PAGE, 1)
            if second is None or not second.r_el1:
                expected = _fault(lambda: slow.read(va, 16, 1))
                assert _fault(lambda: fast.read_pair(va, 1)) == expected

    @pytest.mark.parametrize(
        "va",
        [KERNEL_VA + PAGE + 0x10, KERNEL_VA + PAGE - 8, KERNEL_VA + PAGE - 4],
        ids=["aligned", "second-word-in-code", "straddling"],
    )
    def test_code_frame_write_pair_bumps_generation(self, va):
        from repro.arch import isa

        mmu = _two_page_mmu(Permissions(*[True] * 6))
        mmu.phys.store_instruction(0x101 * PAGE, isa.Nop())
        generation = mmu.generation.value
        mmu.write_pair(va, 0xDEAD, 0xBEEF, 1)
        assert mmu.generation.value > generation

    @pytest.mark.parametrize("offset", [0x10, PAGE - 4])
    def test_code_frame_write_makes_next_step_refetch(self, machine, offset):
        from repro.workloads.guest import STACK_TOP, TEXT_BASE

        from repro.arch import isa

        cpu = machine.cpu
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 5, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 5
        flushes = cpu.decode_stats.flushes
        pa = cpu.mmu.translate(TEXT_BASE, "x", 1) + offset
        cpu.mmu.phys.write_u64(pa, 0x1122334455667788)
        cpu.call(program.address_of("main"), stack_top=STACK_TOP)
        assert cpu.decode_stats.flushes > flushes

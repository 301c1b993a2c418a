"""Odds-and-ends coverage: entry internals, primitives, hypervisor HVC."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU, VBAR_OFFSETS
from repro.boot.bootloader import Bootloader
from repro.cfi.policy import profile_by_name
from repro.errors import PermissionFault, ReproError
from repro.hyp.hypervisor import Hypervisor
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System
from repro.kernel.entry import (
    FRAME_ELR_OFFSET,
    FRAME_MAC_OFFSET,
    FRAME_SPSR_OFFSET,
    S_FRAME_SIZE,
    build_vectors_and_entry,
)


class TestEntryLayout:
    def test_frame_constants_consistent(self):
        # 31 GPR slots end at 248; ELR/SPSR/MAC follow; 16-aligned.
        assert FRAME_ELR_OFFSET == 248
        assert FRAME_SPSR_OFFSET == 256
        assert FRAME_MAC_OFFSET == 264
        assert S_FRAME_SIZE % 16 == 0
        assert S_FRAME_SIZE > FRAME_MAC_OFFSET

    def test_vector_base_alignment_enforced(self):
        asm = Assembler(0xFFFF_0000_0801_0400)  # 1 KiB aligned only
        with pytest.raises(ReproError):
            build_vectors_and_entry(asm, profile_by_name("none"), 1, 0)

    def test_vector_offsets_standard(self):
        assert VBAR_OFFSETS[("sync", 0)] == 0x400
        assert VBAR_OFFSETS[("irq", 0)] == 0x480
        assert VBAR_OFFSETS[("sync", 1)] == 0x200

    def test_entry_symbols_present(self):
        system = System(profile="full")
        for symbol in ("el0_sync", "el0_irq", "ret_to_user", "vectors"):
            assert system.kernel_symbol(symbol)

    def test_vectors_land_on_expected_offsets(self):
        system = System(profile="full")
        vectors = system.kernel_symbol("vectors")
        assert (
            system.kernel_symbol("el0_sync_vector")
            == vectors + VBAR_OFFSETS[("sync", 0)]
        )
        assert (
            system.kernel_symbol("el0_irq_vector")
            == vectors + VBAR_OFFSETS[("irq", 0)]
        )


class TestArbitraryMemoryPrimitive:
    def test_try_read_ok(self):
        system = System(profile="full")
        primitive = ArbitraryMemoryPrimitive(system)
        value = primitive.read_u64(system.kernel_symbol("ext4_fops"))
        assert value == system.kernel_symbol("ext4_read")

    def test_try_read_blocked_on_xom(self):
        system = System(profile="full")
        primitive = ArbitraryMemoryPrimitive(system)
        with pytest.raises(PermissionFault, match="stage-2"):
            primitive.read_u64(system.key_setter_address)

    def test_try_write_blocked_on_rodata(self):
        system = System(profile="full")
        primitive = ArbitraryMemoryPrimitive(system)
        with pytest.raises(PermissionFault):
            primitive.write_u64(system.kernel_symbol("ext4_fops"), 0)

    def test_try_write_ok_on_heap(self):
        system = System(profile="full")
        primitive = ArbitraryMemoryPrimitive(system)
        address = system.heap.allocate_raw(8)
        primitive.write_u64(address, 0x42)
        assert primitive.read_u64(address) == 0x42


class TestHypervisorHvc:
    def test_unknown_hypercall_ignored(self):
        cpu = CPU()
        hyp = Hypervisor().attach(cpu)
        before = cpu.regs.keys.snapshot()
        hyp._on_hvc(cpu, 99)
        assert cpu.regs.keys.snapshot() == before
        assert hyp.hvc_count == 1

    def test_hvc_charges_round_trip(self):
        from repro.hyp.hypervisor import EL2_TRAP_ROUND_TRIP_CYCLES

        cpu = CPU()
        hyp = Hypervisor().attach(cpu)
        before = cpu.cycles
        hyp._on_hvc(cpu, 1)
        assert cpu.cycles - before == EL2_TRAP_ROUND_TRIP_CYCLES

    def test_key_service_installs_only_registered_keys(self):
        cpu = CPU()
        hyp = Hypervisor().attach(cpu)
        boot = Bootloader()
        keys = boot.generate_kernel_keys()
        hyp.install_key_service(keys, ("ib",))
        hyp._on_hvc(cpu, 1)
        assert cpu.regs.keys.ib.lo == keys.ib.lo
        assert cpu.regs.keys.da.lo == 0


class TestCliFigures:
    def test_figures_command_small(self, capsys):
        from repro.__main__ import main

        assert main(["figures", "--iterations", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "█" in out  # the charts rendered

    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out or "detected" in out

"""Tests for the boot chain (repro.boot): key generation, the XOM key
setter, and the device tree."""

import pytest

from repro.arch import isa
from repro.arch.cpu import CPU
from repro.boot.bootloader import KEY_SETTER_SYMBOL, Bootloader
from repro.boot.fdt import DeviceTree
from repro.elfimage.loader import ImageLoader
from repro.errors import PermissionFault, ReproError
from repro.hyp.hypervisor import Hypervisor
from repro.mem.pagetable import Permissions

XOM_BASE = 0xFFFF_0000_0700_0000


class TestDeviceTree:
    def test_properties(self):
        fdt = DeviceTree()
        fdt.set_property("/chosen", "bootargs", "quiet")
        assert fdt.get_property("/chosen", "bootargs") == "quiet"
        assert fdt.get_property("/chosen", "missing", 7) == 7

    def test_kaslr_seed(self):
        fdt = DeviceTree().set_kaslr_seed(0xABCD)
        assert fdt.kaslr_seed() == 0xABCD

    def test_relative_path_rejected(self):
        with pytest.raises(ReproError):
            DeviceTree().add_node("chosen")

    def test_nodes_sorted(self):
        fdt = DeviceTree()
        fdt.add_node("/b")
        fdt.add_node("/a")
        assert fdt.nodes() == ["/", "/a", "/b"]


class TestKeyGeneration:
    def test_deterministic_per_seed(self):
        a = Bootloader(DeviceTree().set_kaslr_seed(1)).generate_kernel_keys()
        b = Bootloader(DeviceTree().set_kaslr_seed(1)).generate_kernel_keys()
        c = Bootloader(DeviceTree().set_kaslr_seed(2)).generate_kernel_keys()
        assert a.snapshot() == b.snapshot()
        assert a.snapshot() != c.snapshot()

    def test_all_keys_nonzero(self):
        bank = Bootloader().generate_kernel_keys()
        for name in bank.NAMES:
            assert bank.get(name).as_pair() != (0, 0)

    def test_partial_key_set(self):
        bank = Bootloader().generate_kernel_keys(key_names=("ib",))
        assert bank.ib.as_pair() != (0, 0)
        assert bank.da.as_pair() == (0, 0)

    def test_user_keys_differ_per_call(self):
        boot = Bootloader()
        boot.generate_kernel_keys()
        a = boot.generate_user_keys()
        b = boot.generate_user_keys()
        assert a.snapshot() != b.snapshot()


class TestKeySetter:
    def _booted(self, key_names=("ia", "ib", "db")):
        cpu = CPU()
        hyp = Hypervisor().attach(cpu)
        loader = ImageLoader(cpu.mmu)
        boot = Bootloader()
        boot.generate_kernel_keys()
        setter = boot.install_key_setter(loader, hyp, XOM_BASE, key_names)
        cpu.mmu.map_range(
            0xFFFF_0000_0900_0000 - 0x4000, 0x4000, 0x900,
            Permissions.kernel_data(),
        )
        return cpu, boot, setter

    def test_setter_program_structure(self):
        boot = Bootloader()
        boot.generate_kernel_keys()
        program = boot.emit_key_setter(XOM_BASE, ("ib",))
        kinds = [type(i).__name__ for _, i in program.instructions]
        # MOVZ+3 MOVK per half, two halves, two MSRs, two scrubs, RET.
        assert kinds.count("Msr") == 2
        assert kinds[-1] == "Ret"
        assert program.address_of(KEY_SETTER_SYMBOL) == XOM_BASE

    def test_setter_requires_keys_generated(self):
        with pytest.raises(ReproError):
            Bootloader().emit_key_setter(XOM_BASE, ("ia",))

    def test_setter_installs_keys(self):
        cpu, boot, setter = self._booted()
        cpu.regs.interrupts_masked = True
        cpu.call(setter, stack_top=0xFFFF_0000_0900_0000)
        for name in ("ia", "ib", "db"):
            expected = boot.kernel_keys.get(name)
            live = cpu.regs.keys.get(name)
            assert (live.lo, live.hi) == (expected.lo, expected.hi)

    def test_setter_scrubs_gprs(self):
        cpu, boot, setter = self._booted()
        cpu.regs.write(0, 0x4141414141414141)
        cpu.regs.write(1, 0x4242424242424242)
        cpu.call(setter, stack_top=0xFFFF_0000_0900_0000)
        assert cpu.regs.read(0) == 0
        assert cpu.regs.read(1) == 0

    def test_setter_page_is_xom(self):
        cpu, boot, setter = self._booted()
        with pytest.raises(PermissionFault):
            cpu.mmu.read(setter, 8, 1)
        with pytest.raises(PermissionFault):
            cpu.mmu.write_u64(setter, 0, 1)

    def test_setter_not_executable_at_el0(self):
        cpu, boot, setter = self._booted()
        with pytest.raises(PermissionFault):
            cpu.mmu.translate(setter, "x", 0)

    def test_setter_immediates_would_leak_without_xom(self):
        # The reason XOM is mandatory: the pseudo-encoding of the MOVZ/
        # MOVK sequence contains the key immediates verbatim.
        boot = Bootloader()
        bank = boot.generate_kernel_keys()
        program = boot.emit_key_setter(XOM_BASE, ("ib",))
        blob = b"".join(i.encoding() for _, i in program.instructions)
        lo16 = (bank.ib.lo & 0xFFFF).to_bytes(2, "little")
        assert lo16 in blob

    def test_setter_words_rebuild_every_key_half(self):
        # What a reader of the setter's page would learn without XOM:
        # its words, decoded, rebuild the keys exactly.
        cpu, boot, setter = self._booted()
        mmu, halves, regs, address = cpu.mmu, {}, {}, setter
        while True:
            pa = mmu.frame_of(address) << mmu.page_shift | address & 0xFFF
            word = int.from_bytes(mmu.phys.read(pa, 4), "little")
            instruction = isa.decode(word, address)
            if isinstance(instruction, isa.Ret):
                break
            if isinstance(instruction, isa.Movz):
                regs[instruction.rd] = instruction.imm16 << instruction.shift
            elif isinstance(instruction, isa.Movk):
                regs[instruction.rd] |= instruction.imm16 << instruction.shift
            elif isinstance(instruction, isa.Msr):
                halves[instruction.sysreg] = regs[instruction.rn]
            address += 4
        for name in ("ia", "ib", "db"):
            key = boot.kernel_keys.get(name)
            prefix = f"AP{name.upper()}Key"
            assert halves[prefix + "Lo_EL1"] == key.lo
            assert halves[prefix + "Hi_EL1"] == key.hi

    def test_rejects_unknown_key(self):
        boot = Bootloader()
        boot.generate_kernel_keys()
        with pytest.raises(ReproError):
            boot.emit_key_setter(XOM_BASE, ("zz",))

    def test_unrelated_gprs_preserved(self):
        cpu, boot, setter = self._booted()
        cpu.regs.write(19, 0x1234)
        cpu.call(setter, stack_top=0xFFFF_0000_0900_0000)
        assert cpu.regs.read(19) == 0x1234

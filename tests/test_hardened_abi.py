"""Tests for the banked-keys extension and the hardened syscall ABI."""

import pytest

from repro.arch import isa
from repro.arch.registers import PAuthKey
from repro.cfi.hardened_abi import (
    ABI_POINTER_TAG,
    SECURE_WRITE_SYSCALL,
    build_secure_syscall,
    emit_user_sign,
)
from repro.errors import UndefinedInstructionFault
from repro.kernel import System
from repro.kernel.fault import TaskKilled
from repro.kernel.syscalls import SyscallSpec
from repro.workloads.guest import run_el0, syscall


def _secure_system():
    system = System(
        profile="full",
        key_management="banked-isa",
        syscalls=[SyscallSpec(SECURE_WRITE_SYSCALL, build_secure_syscall)],
    )
    system.map_user_stack()
    return system


def _secure_write(system, pointer, sign=None):
    """``secure_write(pointer)`` from EL0, ``sign(user)`` run on x0 first."""
    number = system.syscall_numbers[SECURE_WRITE_SYSCALL]

    def body(user):
        user.mov_imm(0, pointer)
        if sign is not None:
            sign(user)
        syscall(user, number)

    run_el0(system, body)
    return system.cpu.regs.read(0)


def _run(system, sign):
    buffer = system.map_user_data()
    system.mmu.write_u64(buffer, 0xFEED_FACE, 1)
    return _secure_write(
        system, buffer, (lambda user: emit_user_sign(user, 0)) if sign else None
    )


class TestBankedKeys:
    def test_kernel_keys_resident_in_primary_bank(self):
        system = System(profile="full", key_management="banked-isa")
        assert system.cpu.regs.keys.ib.lo == system.kernel_keys.ib.lo

    def test_syscall_roundtrip(self):
        system = System(profile="full", key_management="banked-isa")
        system.map_user_stack()
        run_el0(
            system, lambda user: syscall(user, system.syscall_numbers["getpid"])
        )
        assert system.cpu.regs.read(0) == system.tasks.current.tid

    def test_cheapest_key_management(self):
        from repro.bench.ablations import null_syscall_cycles

        banked = null_syscall_cycles(
            System(profile="full", key_management="banked-isa"), iterations=10
        )
        xom = null_syscall_cycles(
            System(profile="full", key_management="xom"), iterations=10
        )
        assert banked < xom

    def test_select_flag_needs_feature(self, machine):
        with pytest.raises(UndefinedInstructionFault):
            machine.cpu.write_sysreg_checked("APKSSEL_EL1", 1)

    def test_select_flag_switches_banks(self):
        from repro.arch.cpu import CPU

        cpu = CPU(features=frozenset({"pauth", "pauth-ks"}))
        cpu.regs.keys.da = PAuthKey(0x1111, 0x2222)
        cpu.regs.alt_keys.da = PAuthKey(0x3333, 0x4444)
        pointer = 0xFFFF_0000_0801_2340
        bank0 = cpu.pac_add("da", pointer, 7)
        cpu.write_sysreg_checked("APKSSEL_EL1", 1)
        bank1 = cpu.pac_add("da", pointer, 7)
        assert bank0 != bank1
        # Verification succeeds only under the signing bank.
        assert cpu.pac_auth("da", bank1, 7) == pointer
        cpu.write_sysreg_checked("APKSSEL_EL1", 0)
        assert cpu.pac_auth("da", bank0, 7) == pointer
        assert cpu.pac_auth("da", bank1, 7) != pointer

    def test_msr_targets_selected_bank(self):
        from repro.arch.cpu import CPU

        cpu = CPU(features=frozenset({"pauth", "pauth-ks"}))
        cpu.write_sysreg_checked("APKSSEL_EL1", 1)
        cpu.write_sysreg_checked("APDAKeyLo_EL1", 0x77)
        assert cpu.regs.alt_keys.da.lo == 0x77
        assert cpu.regs.keys.da.lo == 0

    def test_mrs_reads_selected_bank(self):
        from repro.arch.cpu import CPU

        cpu = CPU(features=frozenset({"pauth", "pauth-ks"}))
        cpu.regs.keys.ia = PAuthKey(0x5555, 0x6666)
        mrs = isa.Mrs(0, "APIAKeyLo_EL1")
        cpu.write_sysreg_checked("APKSSEL_EL1", 1)
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0x1234)
        mrs.execute(cpu)
        assert cpu.regs.read(0) == 0x1234
        cpu.write_sysreg_checked("APKSSEL_EL1", 0)
        mrs.execute(cpu)
        assert cpu.regs.read(0) == 0x5555

    def test_no_key_immediates_in_any_readable_memory(self):
        system = System(profile="full", key_management="banked-isa")
        lo16 = system.kernel_keys.ib.lo & 0xFFFF
        movs = [
            insn
            for _, insn in system.kernel_image.text_instructions()
            if insn.mnemonic in ("movz", "movk") and insn.imm16 == lo16
        ]
        assert not movs
        assert system.key_setter_address is not None


class TestHardenedAbi:
    def test_signed_pointer_accepted(self):
        system = _secure_system()
        assert _run(system, sign=True) == 0xFEED_FACE

    def test_raw_pointer_rejected(self):
        system = _secure_system()
        with pytest.raises(TaskKilled):
            _run(system, sign=False)

    def test_failure_counted_as_pauth_fault(self):
        system = _secure_system()
        with pytest.raises(TaskKilled):
            _run(system, sign=False)
        assert system.faults.pauth_failures == 1

    def test_wrong_tag_rejected(self):
        system = _secure_system()
        buffer = system.map_user_data()
        system.mmu.write_u64(buffer, 1, 1)
        with pytest.raises(TaskKilled):
            # Sign under the wrong ABI tag: valid PAC, wrong modifier.
            _secure_write(
                system,
                buffer,
                lambda user: user.emit(
                    isa.Movz(10, ABI_POINTER_TAG ^ 1, 0),
                    isa.Pac("da", 0, 10),
                ),
            )

    def test_other_process_signature_rejected(self):
        # Keys are per-process: a pointer signed by process A fails
        # authentication when process B passes it (session isolation).
        system = _secure_system()
        buffer = system.map_user_data()
        system.mmu.write_u64(buffer, 1, 1)
        other = system.spawn_process("other")
        foreign = system.cpu.pac.add_pac(
            buffer, ABI_POINTER_TAG, other.user_keys.da
        )
        with pytest.raises(TaskKilled):
            _secure_write(system, foreign)

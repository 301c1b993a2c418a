"""Tests for the extension features: frame MAC, EL2-trap keys, HVC."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.cfi.policy import ProtectionProfile, frame_mac_profile
from repro.errors import KernelPanic, ReproError, UndefinedInstructionFault
from repro.hyp.hypervisor import EL2_TRAP_ROUND_TRIP_CYCLES
from repro.inject import InjectionCampaign
from repro.kernel import System, layout
from repro.kernel.entry import FRAME_ELR_OFFSET, FRAME_MAC_OFFSET, S_FRAME_SIZE


def _getpid_program(system):
    user = Assembler(layout.USER_TEXT_BASE)
    user.fn("main")
    user.mov_imm(8, system.syscall_numbers["getpid"])
    user.emit(isa.Svc(0), isa.Hlt())
    program = user.assemble()
    system.load_user_program(program)
    system.map_user_stack()
    return program


class TestFrameMacProfile:
    def test_profile_requires_pauth(self):
        with pytest.raises(ReproError):
            ProtectionProfile(name="x", compat=True, frame_mac=True)

    def test_ga_key_switched(self):
        profile = frame_mac_profile()
        assert "ga" in profile.keys_to_switch()

    def test_syscall_roundtrip_with_frame_mac(self):
        system = System(profile=frame_mac_profile())
        program = _getpid_program(system)
        system.run_user(system.tasks.current, program.address_of("main"))
        assert system.cpu.regs.read(0) == system.tasks.current.tid

    def test_frame_mac_slot_populated(self):
        # Run a syscall, then inspect the (now stale) frame: the MAC
        # slot must hold a non-zero PACGA value.
        system = System(profile=frame_mac_profile())
        task = system.tasks.current
        program = _getpid_program(system)
        system.run_user(task, program.address_of("main"))
        frame = task.stack_top - S_FRAME_SIZE
        assert system.mmu.read_u64(frame + FRAME_MAC_OFFSET, 1) != 0

    def test_plain_full_profile_leaves_mac_slot_empty(self):
        system = System(profile="full")
        task = system.tasks.current
        program = _getpid_program(system)
        system.run_user(task, program.address_of("main"))
        frame = task.stack_top - S_FRAME_SIZE
        assert system.mmu.read_u64(frame + FRAME_MAC_OFFSET, 1) == 0

    def test_elr_saved_in_frame(self):
        system = System(profile="full")
        task = system.tasks.current
        program = _getpid_program(system)
        system.run_user(task, program.address_of("main"))
        frame = task.stack_top - S_FRAME_SIZE
        saved_elr = system.mmu.read_u64(frame + FRAME_ELR_OFFSET, 1)
        # The syscall returns to the instruction after the SVC.
        assert saved_elr == layout.USER_TEXT_BASE + 5 * 4


def _frame_tamper(profile):
    (result,) = InjectionCampaign(
        profile=profile,
        trials=1,
        invariants=False,
        sites=["exception-frame-tamper"],
    ).run().results
    return result


class TestFrameTamperAttack:
    def test_gap_exists_in_published_design(self):
        for profile in ("none", "backward", "full"):
            assert _frame_tamper(profile).outcome == "escaped"

    def test_frame_mac_closes_the_gap(self):
        result = _frame_tamper(frame_mac_profile())
        assert result.outcome == "detected"
        assert result.detected_by == "panic"
        assert "MAC mismatch" in result.detail

    def test_frame_mac_panic_reason(self):
        system = System(profile=frame_mac_profile())
        task = system.tasks.current

        from repro.kernel.syscalls import SyscallSpec

        def tamper_build(asm, ctx):
            def tamper(cpu):
                frame = task.stack_top - S_FRAME_SIZE
                cpu.mmu.write_u64(frame + FRAME_ELR_OFFSET, 0x41414141, 1)

            ctx.compiler.function(
                asm, "sys_tamper", [isa.HostCall(tamper, "tamper")]
            )

        system2 = System(
            profile=frame_mac_profile(),
            syscalls=[SyscallSpec("tamper", tamper_build)],
        )
        task = system2.tasks.current
        user = Assembler(layout.USER_TEXT_BASE)
        user.fn("main")
        user.mov_imm(8, system2.syscall_numbers["tamper"])
        user.emit(isa.Svc(0), isa.Hlt())
        program = user.assemble()
        system2.load_user_program(program)
        system2.map_user_stack()
        with pytest.raises(KernelPanic) as info:
            system2.run_user(task, program.address_of("main"))
        assert info.value.reason == "frame-mac"


class TestEl2TrapKeyManagement:
    def test_boots_and_serves_syscalls(self):
        system = System(profile="full", key_management="el2-trap")
        program = _getpid_program(system)
        system.run_user(system.tasks.current, program.address_of("main"))
        assert system.cpu.regs.read(0) == system.tasks.current.tid

    def test_kernel_keys_installed_by_hypercall(self):
        system = System(profile="full", key_management="el2-trap")
        assert system.cpu.regs.keys.ib.lo == system.kernel_keys.ib.lo
        assert system.hypervisor.hvc_count >= 1

    def test_no_xom_page_needed(self):
        system = System(profile="full", key_management="el2-trap")
        # The setter lives in ordinary (sealed) kernel text, not XOM.
        text = system.kernel_image.section(".text")
        assert text.base <= system.key_setter_address < text.end

    def test_no_key_immediates_in_kernel_text(self):
        # The whole point: no MOVZ/MOVK carrying key material exists
        # anywhere the kernel (or an attacker) could read.
        system = System(profile="full", key_management="el2-trap")
        lo16 = (system.kernel_keys.ib.lo & 0xFFFF)
        movs = [
            insn
            for _, insn in system.kernel_image.text_instructions()
            if insn.mnemonic in ("movz", "movk") and insn.imm16 == lo16
        ]
        # (Probabilistically zero; a collision would be a constant that
        # happens to share 16 bits — tolerate none for this seed.)
        assert not movs

    def test_trap_costs_more_than_xom(self):
        from repro.bench.ablations import _null_syscall_cycles

        xom = _null_syscall_cycles(
            System(profile="full", key_management="xom"), iterations=10
        )
        trap = _null_syscall_cycles(
            System(profile="full", key_management="el2-trap"), iterations=10
        )
        assert trap - xom >= EL2_TRAP_ROUND_TRIP_CYCLES * 0.5

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            System(profile="full", key_management="carrier-pigeon")


class TestHvcInstruction:
    def test_hvc_without_service_undefined(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Hvc(1), isa.Ret())
        with pytest.raises(UndefinedInstructionFault):
            machine.run(asm.assemble())

    def test_hvc_invokes_hook(self, machine):
        calls = []
        machine.cpu.hvc_hook = lambda cpu, imm: calls.append(imm)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Hvc(7), isa.Ret())
        machine.run(asm.assemble())
        assert calls == [7]

    def test_text(self):
        assert isa.Hvc(1).text() == "hvc #0x1"

"""Tests for the canary module and per-thread key reprovisioning."""

import pytest

from repro.arch import isa
from repro.arch.registers import PAuthKey
from repro.cfi.canary import (
    CanaryKind,
    canary_cost_cycles,
    canary_slot_offset,
    emit_canary_function,
)
from repro.errors import ReproError
from repro.inject.scenarios import canary_leak_replay
from repro.kernel import System
from repro.kernel.fault import TaskKilled
from repro.kernel.syscalls import make_prctl_rekey_spec
from repro.workloads.guest import run_el0, syscall


class TestCanaryEmission:
    def _run_fn(self, machine, kind, body=None, guard=0):
        machine.cpu.regs.keys.ga = PAuthKey(0x11, 0x22)
        if kind == CanaryKind.GLOBAL and not guard:
            guard = 0xFFFF_0000_0A00_0000
            machine.cpu.mmu.write_u64(guard, 0xABCD, 1)
        asm = machine.assembler()
        emit_canary_function(
            asm, "main", kind,
            body=body or (lambda a: a.emit(isa.Movz(0, 0x77, 0))),
            guard_address=guard,
        )
        return machine.run(asm.assemble())

    @pytest.mark.parametrize("kind", CanaryKind.ALL)
    def test_clean_function_returns(self, machine, kind):
        result, _ = self._run_fn(machine, kind)
        assert result == 0x77
        assert machine.cpu.regs.sp == 0xFFFF_0000_0900_0000

    @pytest.mark.parametrize("kind", [CanaryKind.GLOBAL, CanaryKind.PACED])
    def test_overflow_without_leak_detected(self, machine, kind):
        def smash(cpu):
            cpu.mmu.write_u64(
                cpu.regs.sp + canary_slot_offset(), 0x4141414141414141, 1
            )

        # Without the right canary value the function halts at the
        # check-fail label instead of returning.
        machine.cpu.regs.keys.ga = PAuthKey(0x11, 0x22)
        guard = 0xFFFF_0000_0A00_0000
        machine.cpu.mmu.write_u64(guard, 0xABCD, 1)
        asm = machine.assembler()
        emit_canary_function(
            asm, "main", kind,
            body=lambda a: a.emit(
                isa.HostCall(smash, "smash"), isa.Movz(0, 0x77, 0)
            ),
            guard_address=guard,
        )
        program = asm.assemble()
        machine.place(program)
        cpu = machine.cpu
        cpu.regs.sp = 0xFFFF_0000_0900_0000
        cpu.regs.write(30, cpu._landing_pad())
        cpu.regs.pc = program.address_of("main")
        cpu.run(max_steps=1000)
        cpu.halted = False
        # Halted at the chk-fail HLT, not the landing pad.
        assert cpu.regs.pc == program.address_of("__main_chk_fail")

    def test_global_needs_guard_address(self, machine):
        with pytest.raises(ReproError):
            emit_canary_function(
                machine.assembler(), "f", CanaryKind.GLOBAL,
                body=lambda a: None,
            )

    def test_unknown_kind_rejected(self, machine):
        with pytest.raises(ReproError):
            emit_canary_function(
                machine.assembler(), "f", "chicken", body=lambda a: None
            )

    def test_cost_model_ordering(self):
        assert canary_cost_cycles(CanaryKind.NONE) == 0
        assert canary_cost_cycles(CanaryKind.PACED) > 0
        assert canary_cost_cycles(CanaryKind.GLOBAL) > 0


class TestCanaryLeakAttack:
    def test_no_canary_falls(self):
        assert canary_leak_replay(CanaryKind.NONE)

    def test_global_guard_falls_to_leak(self):
        assert canary_leak_replay(CanaryKind.GLOBAL)

    def test_paced_canary_survives_leak(self):
        assert not canary_leak_replay(CanaryKind.PACED)

    def test_invalid_kind(self):
        with pytest.raises(ReproError):
            canary_leak_replay("bogus")


def _rekey(system):
    run_el0(
        system, lambda user: syscall(user, system.syscall_numbers["prctl_rekey"])
    )


class TestPrctlRekey:
    def _system(self):
        holder = {}
        spec = make_prctl_rekey_spec(lambda: holder["system"])
        system = System(profile="full", syscalls=[spec])
        holder["system"] = system
        system.map_user_stack()
        return system

    def test_rekey_changes_user_keys(self):
        system = self._system()
        task = system.tasks.current
        before = task.user_keys.snapshot()
        _rekey(system)
        assert task.user_keys.snapshot() != before

    def test_exit_path_restores_new_keys(self):
        system = self._system()
        task = system.tasks.current
        _rekey(system)
        # The live registers hold the *new* keys, not the boot ones.
        assert system.cpu.regs.keys.ia.lo == task.user_keys.ia.lo

    def test_old_signatures_die_after_rekey(self):
        system = self._system()
        task = system.tasks.current
        pointer = 0x0000_0000_1000_0100
        old_signed = system.cpu.pac.add_pac(pointer, 7, task.user_keys.da)
        _rekey(system)
        result = system.cpu.pac.auth_pac(old_signed, 7, task.user_keys.da)
        assert not result.ok

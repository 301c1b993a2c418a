"""Tests for the CPU core (repro.arch.cpu): PAuth path, exceptions,
feature gating, cycle accounting."""

import pytest

from conftest import STACK_TOP, TEXT_BASE, BareMachine

from repro.arch import isa
from repro.arch.cpu import VBAR_OFFSETS
from repro.arch.isa import PAUTH_CYCLES, SP
from repro.arch.registers import LR, PAuthKey
from repro.errors import (
    ReproError,
    TranslationFault,
    UndefinedInstructionFault,
)
from repro.trace import Tracer, attach_cpu


def _with_keys(machine):
    machine.cpu.regs.keys.ia = PAuthKey(0x1234, 0x5678)
    machine.cpu.regs.keys.ib = PAuthKey(0x9999, 0xAAAA)
    machine.cpu.regs.keys.db = PAuthKey(0xBBBB, 0xCCCC)
    return machine


class TestPAuthDataPath:
    def test_pac_aut_roundtrip_via_instructions(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.Movz(1, 0xAA, 0),
            isa.Pac("ia", 0, 1),
            isa.Aut("ia", 0, 1),
            isa.Ret(),
        )
        pointer = 0xFFFF_0000_0801_2340
        result, _ = machine.run(asm.assemble(), args=(pointer,))
        assert result == pointer

    def test_aut_with_wrong_modifier_poisons(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.Movz(1, 0xAA, 0),
            isa.Pac("ia", 0, 1),
            isa.Movz(1, 0xAB, 0),
            isa.Aut("ia", 0, 1),
            isa.Ret(),
        )
        pointer = 0xFFFF_0000_0801_2340
        result, _ = machine.run(asm.assemble(), args=(pointer,))
        assert result != pointer
        assert not machine.cpu.config.is_canonical(result)

    def test_poisoned_pointer_faults_on_dereference(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.Movz(1, 0xAA, 0),
            isa.Pac("ia", 0, 1),
            isa.Movz(1, 0xAB, 0),
            isa.Aut("ia", 0, 1),
            isa.Ldr(2, 0, 0),  # dereference the poisoned pointer
            isa.Ret(),
        )
        with pytest.raises(TranslationFault):
            machine.run(asm.assemble(), args=(0xFFFF_0000_0801_2340,))

    def test_xpac_strips(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.Movz(1, 0xAA, 0),
            isa.Pac("ia", 0, 1),
            isa.Xpac(0),
            isa.Ret(),
        )
        pointer = 0xFFFF_0000_0801_2340
        result, _ = machine.run(asm.assemble(), args=(pointer,))
        assert result == pointer

    def test_pacga(self, machine):
        machine.cpu.regs.keys.ga = PAuthKey(0xDEAD, 0xBEEF)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.PacGa(0, 0, 1), isa.Ret())
        result, _ = machine.run(asm.assemble(), args=(0x1234, 0x5678))
        assert result != 0
        assert result & 0xFFFFFFFF == 0

    def test_retaa_returns_when_valid(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.PacSp("ia"),
            isa.Movz(0, 0x42, 0),
            isa.RetA("ia"),
        )
        result, _ = machine.run(asm.assemble())
        assert result == 0x42

    def test_retaa_faults_on_corrupted_lr(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.PacSp("ia"),
            isa.Movz(LR, 0x4000, 0),  # attacker overwrites LR
            isa.RetA("ia"),
        )
        with pytest.raises(TranslationFault):
            machine.run(asm.assemble())

    def test_blrab_authenticated_call(self, machine):
        _with_keys(machine)
        cpu = machine.cpu
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.MovReg(19, LR),
            isa.BlrA("ib", 0, 1),
            isa.MovReg(LR, 19),
            isa.Ret(),
        )
        asm.fn("callee")
        asm.emit(isa.Movz(0, 0x77, 0), isa.Ret())
        program = asm.assemble()
        machine.place(program)
        target = program.address_of("callee")
        signed = cpu.pac_add("ib", target, 0x11)
        result, _ = machine.run(program, args=(signed, 0x11))
        assert result == 0x77

    def test_sctlr_disables_pac(self, machine):
        _with_keys(machine)
        machine.cpu.regs.sctlr_el1.en_ia = False
        pointer = 0xFFFF_0000_0801_2340
        assert machine.cpu.pac_add("ia", pointer, 1) == pointer
        assert machine.cpu.pac_auth("ia", pointer, 1) == pointer

    def test_auth_failure_hook_fires(self, machine):
        _with_keys(machine)
        failures = []
        machine.cpu.auth_failure_hook = (
            lambda key, ptr, mod: failures.append(key)
        )
        machine.cpu.pac_auth("ia", 0xFFFF_0000_0801_2340, 0xAA)
        assert failures == ["ia"]


class TestV80Core:
    def test_hint_space_pauth_is_nop(self, v80_machine):
        asm = v80_machine.assembler()
        asm.fn("main")
        asm.emit(isa.PacSp("ia"), isa.AutSp("ia"), isa.Ret())
        result, _ = v80_machine.run(asm.assemble(), args=(5,))
        assert result == 5  # ran fine, no PAC added

    def test_hint_space_costs_one_cycle_on_v80(self, v80_machine, machine):
        cost_old = isa.PacSp("ia").cost_on(v80_machine.cpu)
        cost_new = isa.PacSp("ia").cost_on(machine.cpu)
        assert cost_old == 1
        assert cost_new == PAUTH_CYCLES

    def test_general_pauth_undefined_on_v80(self, v80_machine):
        asm = v80_machine.assembler()
        asm.fn("main")
        asm.emit(isa.Pac("ia", 0, 1), isa.Ret())
        with pytest.raises(UndefinedInstructionFault):
            v80_machine.run(asm.assemble())

    def test_retaa_undefined_on_v80(self, v80_machine):
        asm = v80_machine.assembler()
        asm.fn("main")
        asm.emit(isa.RetA("ia"))
        with pytest.raises(UndefinedInstructionFault):
            v80_machine.run(asm.assemble())

    def test_key_writes_shadowed_on_v80(self, v80_machine):
        # The PA-analogue substitutes key MSRs with side-effect-free
        # writes; the value must not land in a key bank that the v8.0
        # core does not have.
        cpu = v80_machine.cpu
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x1234)
        assert cpu.regs.keys.ib.lo == 0

    def test_1716_nop_on_v80(self, v80_machine):
        asm = v80_machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.Movz(17, 0x42, 0), isa.Pac1716("ib"), isa.MovReg(0, 17),
            isa.Ret(),
        )
        result, _ = v80_machine.run(asm.assemble())
        assert result == 0x42


class TestCycleAccounting:
    def test_pauth_costs_four_cycles(self, machine):
        _with_keys(machine)
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(1, 1, 0), isa.Ret())
        _, base = machine.run(asm.assemble())

        asm2 = machine.assembler()
        asm2.fn("main")
        asm2.emit(isa.Movz(1, 1, 0), isa.Pac("ia", 0, 1), isa.Ret())
        _, with_pac = machine.run(asm2.assemble())
        assert with_pac - base == PAUTH_CYCLES

    def test_instructions_retired_counted(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Nop(), isa.Nop(), isa.Ret())
        before = machine.cpu.instructions_retired
        machine.run(asm.assemble())
        assert machine.cpu.instructions_retired - before == 4  # +HLT


class TestExceptions:
    def test_svc_takes_exception_to_vbar(self, machine):
        cpu = machine.cpu
        asm = machine.assembler()
        asm.fn("vectors")
        for _ in range(VBAR_OFFSETS[("sync", 1)] // 4):
            asm.emit(isa.Nop())
        asm.label("el1_sync")
        asm.emit(isa.Movz(0, 0xE1, 0), isa.Hlt())
        program = asm.assemble()
        machine.place(program)
        cpu.regs.write_sysreg("VBAR_EL1", program.address_of("vectors"))
        cpu.regs.current_el = 1
        cpu.regs.pc = program.address_of("vectors")  # anywhere
        isa.Svc(7).execute(cpu)
        assert cpu.regs.pc == program.address_of("el1_sync")
        assert cpu.regs.read_sysreg("ESR_EL1") == 7
        assert cpu.regs.interrupts_masked

    def test_exception_return_restores_el(self, machine):
        cpu = machine.cpu
        cpu.regs.write_sysreg("VBAR_EL1", TEXT_BASE)
        cpu.regs.current_el = 0
        cpu.regs.pc = 0x40_0000
        cpu.take_exception("svc", syndrome=1)
        assert cpu.regs.current_el == 1
        assert cpu.regs.elr[1] == 0x40_0004
        back = cpu.exception_return()
        assert back == 0x40_0004
        assert cpu.regs.current_el == 0

    def test_exception_without_vbar_raises(self, machine):
        with pytest.raises(ReproError):
            machine.cpu.take_exception("svc")

    def test_fault_hook_consulted(self, machine):
        handled = []

        def hook(cpu, fault):
            handled.append(type(fault).__name__)
            return True

        machine.cpu.fault_hook = hook
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Ldr(0, 0, 0), isa.Ret())
        program = asm.assemble()
        machine.place(program)
        cpu = machine.cpu
        cpu.regs.pc = program.address_of("main")
        cpu.regs.write(0, 0xDEAD_0000_0000)  # invalid address
        cpu.step()  # handled: no exception escapes
        assert handled == ["TranslationFault"]

    def test_halted_cpu_refuses_step(self, machine):
        machine.cpu.halted = True
        with pytest.raises(ReproError):
            machine.cpu.step()

    def test_run_overrun_guard(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.B("main"))
        program = asm.assemble()
        machine.place(program)
        machine.cpu.regs.pc = program.address_of("main")
        with pytest.raises(ReproError):
            machine.cpu.run(max_steps=10)


def _skip_faulting_instruction(cpu, fault):
    cpu.regs.pc += 4
    return True


def _attach_tracer(cpu, imm):
    if cpu.tracer is None:
        attach_cpu(cpu, Tracer(instructions=False))


#: The instruction inside the loop, and the core set-up, per scenario.
LOOP_SCENARIOS = {
    "timer_irq": (isa.Nop(), lambda cpu: setattr(cpu, "timer_period", 7)),
    "handled_fault": (
        isa.Ldr(0, 2, 0),
        lambda cpu: setattr(cpu, "fault_hook", _skip_faulting_instruction),
    ),
    "tracer_attached_by_hook": (
        isa.Hvc(0),
        lambda cpu: setattr(cpu, "hvc_hook", _attach_tracer),
    ),
}


def _loop_machine(scenario):
    """An EL1 loop of 12 iterations with an IRQ vector that counts in x5."""
    body, setup = LOOP_SCENARIOS[scenario]
    machine = BareMachine()
    asm = machine.assembler()
    asm.fn("main")
    asm.emit(isa.Movz(1, 12, 0))
    asm.label("loop")
    asm.emit(isa.SubImm(1, 1, 1), body, isa.Cbnz(1, "loop"), isa.Hlt())
    asm.fn("vectors")
    asm.emit(*[isa.Nop()] * (VBAR_OFFSETS[("irq", 1)] // 4))
    asm.emit(isa.AddImm(5, 5, 1), isa.Eret())
    program = machine.place(asm.assemble())
    cpu = machine.cpu
    cpu.regs.write_sysreg("VBAR_EL1", program.address_of("vectors"))
    cpu.regs.current_el = 1
    cpu.regs.pc = program.address_of("main")
    cpu.regs.write(2, 0xDEAD_0000_0000)  # faults when loaded from
    setup(cpu)
    return cpu


def _loop_state(cpu, halted):
    retired_seen = (
        None
        if cpu.tracer is None
        else sum(count for count, _ in cpu.tracer.insn_mix.values())
    )
    return (
        halted,
        cpu.regs.pc,
        cpu.cycles,
        cpu.instructions_retired,
        cpu.irqs_delivered,
        cpu.regs.read(5),
        retired_seen,
    )


class TestInterpreterLoop:
    """``run(n)`` and ``n`` calls to ``step()`` are the same loop."""

    def _stepped(self, scenario, steps):
        cpu = _loop_machine(scenario)
        for _ in range(steps):
            if cpu.halted:
                break
            cpu.step()
        return _loop_state(cpu, cpu.halted)

    def _ran(self, scenario, steps):
        cpu = _loop_machine(scenario)
        try:
            cpu.run(max_steps=steps)
        except ReproError:
            return _loop_state(cpu, False)
        return _loop_state(cpu, True)

    @pytest.mark.parametrize("scenario", sorted(LOOP_SCENARIOS))
    def test_run_matches_repeated_step(self, scenario):
        outcomes = []
        for steps in range(1, 100):
            stepped = self._stepped(scenario, steps)
            assert self._ran(scenario, steps) == stepped, steps
            outcomes.append(stepped[0])
        # Overrun up to some step, halted from the next one on.
        first_halt = outcomes.index(True)
        assert first_halt > 0
        assert all(outcomes[first_halt:])

    def test_scenarios_exercise_their_path(self):
        timer = _loop_machine("timer_irq")
        timer.run(max_steps=200)
        assert timer.irqs_delivered > 0
        assert timer.regs.read(5) == timer.irqs_delivered

        faulting = _loop_machine("handled_fault")
        faulting.run(max_steps=200)
        assert faulting.instructions_retired == 1 + 12 * 2 + 1

        traced = _loop_machine("tracer_attached_by_hook")
        traced.run(max_steps=200)
        seen = sum(count for count, _ in traced.tracer.insn_mix.values())
        # Attached by the first HVC: everything from it on is traced.
        assert seen == traced.instructions_retired - 2

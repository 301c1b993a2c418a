"""Tests for the CPU core (repro.arch.cpu): PAuth path, exceptions,
feature gating, cycle accounting, the interpreter loop and its
translation blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import cpu as cpu_module
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU, VBAR_OFFSETS
from repro.arch.isa import PAUTH_CYCLES, SP
from repro.arch.pac import PACEngine
from repro.arch.registers import LR, PAuthKey
from repro.errors import (
    HypervisorTrap,
    ReproError,
    TranslationFault,
    UndefinedInstructionFault,
)
from repro.hyp.hypervisor import Hypervisor
from repro.mem.pagetable import Permissions
from repro.trace import Tracer
from repro.workloads.guest import TEXT_BASE, BareMachine


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

    def test_auth_failure_is_traced(self, machine):
        _with_keys(machine)
        tracer = machine.cpu.attach_tracer(Tracer())
        machine.cpu.pac_auth("ia", 0xFFFF_0000_0801_2340, 0xAA)
        failures = tracer.events("auth_failure")
        assert [event.data["key"] for event in failures] == ["ia"]


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
        cpu.attach_tracer(Tracer(instructions=False))


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


# ---------------------------------------------------------------------------
# Translation blocks: block-wise dispatch retires like the reference path.
# ---------------------------------------------------------------------------

#: A code page pair the programs may straddle and rewrite, a page of
#: IRQ vectors, a data page and an unmapped page, all EL1.
BLOCK_TEXT = 0xFFFF_0000_0C00_0000
BLOCK_VECTORS = BLOCK_TEXT + 0x2000
BLOCK_DATA = BLOCK_TEXT + 0x3000
BLOCK_UNMAPPED = BLOCK_TEXT + 0x5000
_TEXT_BASE_REG, _DATA_BASE_REG, _PATCH_REG, _UNMAPPED_REG = 21, 20, 22, 24
_MODIFIER_REG, _LOOP_REG, _IRQ_COUNT_REG = 25, 27, 28
#: x23 points 0x80 bytes before the end of the data page (the next page
#: is unmapped); x26 holds a second patch for pair stores.
_PAGE_END_REG, _PATCH_REG_2 = 23, 26
#: Two words a store may write over later code: ADD x3, x3, #5 and
#: MOVZ x4, #0x77.  Storing XZR instead writes two undecodable words.
_PATCH = int.from_bytes(
    isa.AddImm(3, 3, 5).encoding() + isa.Movz(4, 0x77, 0).encoding(), "little"
)
#: Two more: ADD x5, x5, #7 and MOVZ x6, #0x99.
_PATCH_2 = int.from_bytes(
    isa.AddImm(5, 5, 7).encoding() + isa.Movz(6, 0x99, 0).encoding(), "little"
)

_REGS = st.integers(0, 7)
_ALU = st.one_of(
    st.builds(isa.AddImm, _REGS, _REGS, st.integers(0, 99)),
    st.builds(isa.SubImm, _REGS, _REGS, st.integers(0, 99)),
    st.builds(isa.AddReg, _REGS, _REGS, _REGS),
    st.builds(isa.SubsReg, _REGS, _REGS, _REGS),
    st.builds(isa.EorReg, _REGS, _REGS, _REGS),
    st.builds(isa.Movz, _REGS, st.integers(0, 0xFFFF), st.sampled_from((0, 48))),
)
_KEYS = st.sampled_from(("ia", "ib", "da", "db"))
#: Pair slots 0-30 sit in the data page's first 0x100 bytes, 31 ends at
#: the page end and 32 straddles into the unmapped page after it.
_PAIR_SLOTS = st.integers(0, 32)
#: One program element each: (kind, payload).
_OPS = st.one_of(
    st.tuples(st.just("alu"), _ALU),
    st.tuples(st.just("load"), _REGS, st.integers(0, 31)),
    st.tuples(st.just("store"), _REGS, st.integers(0, 31)),
    st.tuples(st.just("pair_load"), _REGS, _REGS, _PAIR_SLOTS),
    st.tuples(st.just("pair_store"), _REGS, _REGS, _PAIR_SLOTS),
    st.tuples(st.just("patch"), st.booleans(), st.integers(1, 6)),
    st.tuples(st.just("pacaut"), _KEYS, _REGS, st.booleans(), st.booleans()),
    st.tuples(st.just("unmapped"), _REGS),
    st.tuples(
        st.just("branch"),
        st.sampled_from(("b", "cbz", "cbnz", "b.eq", "b.lt")),
        _REGS,
        st.integers(1, 3),
    ),
    st.tuples(st.just("irq")),
)


def _raise_irq(cpu):
    cpu.pending_irq = True


def _block_program(ops, start, patch_offsets=None):
    """Assemble ``ops`` at ``start`` as a loop body run twice, ending in
    HLT.  A patch stores over the word of a later op (two words), so the
    program is assembled once more with the offsets that first pass
    gives."""
    asm = Assembler(start)
    asm.label("top")
    patches = []
    for index, op in enumerate(ops):
        kind = op[0]
        asm.label(f"op{index}")
        if kind == "alu":
            asm.emit(op[1])
        elif kind == "load":
            asm.emit(isa.Ldr(op[1], _DATA_BASE_REG, 8 * op[2]))
        elif kind == "store":
            asm.emit(isa.Str(op[1], _DATA_BASE_REG, 8 * op[2]))
        elif kind in ("pair_load", "pair_store"):
            _, first, second, slot = op
            pair = isa.Ldp if kind == "pair_load" else isa.Stp
            if slot < 31:
                asm.emit(pair(first, second, _DATA_BASE_REG, 8 * slot))
            else:
                asm.emit(pair(first, second, _PAGE_END_REG, 8 * slot - 0x88))
        elif kind == "patch":
            source = _PATCH_REG if op[1] else isa.XZR
            offset = patch_offsets[len(patches)] if patch_offsets else 0
            patches.append(f"op{min(index + op[2], len(ops))}")
            asm.emit(isa.Str(source, _TEXT_BASE_REG, offset))
        elif kind == "pacaut":
            _, key, reg, tamper, dereference = op
            asm.emit(isa.Pac(key, reg, _MODIFIER_REG))
            if tamper:
                asm.emit(isa.AddImm(reg, reg, 8))
            asm.emit(isa.Aut(key, reg, _MODIFIER_REG))
            if dereference:
                asm.emit(isa.Ldr(0, reg, 0))
        elif kind == "unmapped":
            asm.emit(isa.Ldr(op[1], _UNMAPPED_REG, 0))
        elif kind == "branch":
            _, mnemonic, reg, distance = op
            target = f"op{min(index + distance, len(ops))}"
            asm.emit(
                isa.B(target) if mnemonic == "b"
                else isa.Cbz(reg, target) if mnemonic == "cbz"
                else isa.Cbnz(reg, target) if mnemonic == "cbnz"
                else isa.BCond(mnemonic[2:], target)
            )
        else:
            asm.emit(isa.HostCall(_raise_irq, "raise_irq"))
    asm.label(f"op{len(ops)}")
    asm.emit(isa.SubImm(_LOOP_REG, _LOOP_REG, 1), isa.Cbnz(_LOOP_REG, "top"))
    asm.emit(isa.Hlt())
    program = asm.assemble()
    if patches and patch_offsets is None:
        offsets = [program.address_of(label) - BLOCK_TEXT for label in patches]
        return _block_program(ops, start, offsets)
    return program


def _block_core(cached, ops, start, timer):
    if cached:
        cpu = CPU()
    else:
        with hotpath.disabled_caches():
            cpu = CPU()
    mmu = cpu.mmu
    mmu.map_range(BLOCK_TEXT, 0x2000, 0x700, Permissions(*[True] * 6))
    mmu.map_range(BLOCK_VECTORS, 0x1000, 0x702, Permissions(r_el1=True, x_el1=True))
    mmu.map_range(BLOCK_DATA, 0x1000, 0x703, Permissions.kernel_data())
    vectors = Assembler(BLOCK_VECTORS)
    vectors.emit(*[isa.Nop()] * (VBAR_OFFSETS[("irq", 1)] // 4))
    vectors.emit(isa.AddImm(_IRQ_COUNT_REG, _IRQ_COUNT_REG, 1), isa.Eret())
    mmu.place_program(vectors.assemble())
    mmu.place_program(_block_program(ops, start))
    regs = cpu.regs
    regs.write_sysreg("VBAR_EL1", BLOCK_VECTORS)
    for name in ("ia", "ib", "da", "db"):
        setattr(regs.keys, name, PAuthKey(0x1234 + len(name), 0x5678))
    for index in range(8):
        regs.write(index, (index * 0x9E37_79B9) & 0xFF if index % 3 else 0)
    regs.write(_DATA_BASE_REG, BLOCK_DATA)
    regs.write(_TEXT_BASE_REG, BLOCK_TEXT)
    regs.write(_PATCH_REG, _PATCH)
    regs.write(_UNMAPPED_REG, BLOCK_UNMAPPED)
    regs.write(_PAGE_END_REG, BLOCK_DATA + 0xF80)
    regs.write(_MODIFIER_REG, 0xAA)
    regs.write(_LOOP_REG, 2)
    regs.current_el = 1
    regs.sp = BLOCK_DATA + 0x800
    regs.pc = start
    cpu.timer_period = timer
    cpu.faults = []

    def skip(cpu, fault):
        cpu.faults.append((type(fault).__name__, cpu.regs.pc))
        cpu.regs.pc += 4
        return True

    cpu.fault_hook = skip
    return cpu


def _block_state(cpu):
    regs = cpu.regs
    phys = cpu.mmu.phys
    return (
        cpu.halted,
        regs.pc,
        tuple(regs.x),
        tuple(regs.sp_el),
        cpu.nzcv,
        regs.current_el,
        cpu.cycles,
        cpu.instructions_retired,
        cpu.irqs_delivered,
        tuple(cpu.faults),
        phys.read(0x703 << 12, 0x100),
        phys.read(0x700 << 12, 0x2000),
    )


#: Steps a program may take; past the HLT the state stays put.
_BLOCK_STEPS = 96


def _stepped_trace(cpu):
    trace = []
    for _ in range(_BLOCK_STEPS):
        if cpu.halted:
            break
        cpu.step()
        trace.append(_block_state(cpu))
    return trace


class TestTranslationBlocks:
    """Block-wise dispatch is architecturally invisible."""

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(_OPS, min_size=1, max_size=14),
        start_slot=st.integers(0, 24),
        timer=st.sampled_from((None, None, 5, 13)),
    )
    def test_blocks_retire_like_the_reference(self, ops, start_slot, timer):
        """A random program — ALU ops, data loads and stores, LDP/STP
        pairs (one straddling into an unmapped page), stores over its
        own later words, PAC/AUT pairs, faults on unmapped pages,
        branches and raised IRQs — gives the same per-instruction trace
        from ``run(n)`` on a cached core, a ``step()`` loop on a cached
        core and a ``step()`` loop on a cache-free twin."""
        # Programs start up to 24 words before the page boundary.
        start = BLOCK_TEXT + 0x1000 - 4 * start_slot
        reference = _stepped_trace(_block_core(False, ops, start, timer))
        assert _stepped_trace(_block_core(True, ops, start, timer)) == reference
        for steps, expected in enumerate(reference, 1):
            cpu = _block_core(True, ops, start, timer)
            try:
                cpu.run(max_steps=steps)
            except ReproError:
                pass
            assert _block_state(cpu) == expected, steps
        if reference[-1][0]:
            cpu = _block_core(True, ops, start, timer)
            cpu.run(max_steps=_BLOCK_STEPS)
            assert _block_state(cpu) == reference[-1]

    def _core(
        self, *instructions, start=BLOCK_TEXT + 0x100, cached=True,
        features=frozenset({"pauth"}),
    ):
        program = Assembler(start).emit(*instructions).assemble()
        if cached:
            cpu = CPU(features=features)
        else:
            with hotpath.disabled_caches():
                cpu = CPU(features=features)
        cpu.mmu.map_range(BLOCK_TEXT, 0x2000, 0x700, Permissions(*[True] * 6))
        cpu.mmu.place_program(program)
        cpu.regs.current_el = 1
        cpu.regs.write(_TEXT_BASE_REG, BLOCK_TEXT)
        cpu.regs.write(_PATCH_REG, _PATCH)
        cpu.regs.pc = start
        return cpu

    @pytest.mark.parametrize("cached", (True, False))
    def test_store_over_next_instruction_runs_the_new_word(self, cached):
        """STR over the next word of the running block: the new word
        (ADD x3, x3, #5) runs, not the MOVZ x3 built into the block."""
        next_word = BLOCK_TEXT + 0x104
        cpu = self._core(
            isa.Str(_PATCH_REG, _TEXT_BASE_REG, next_word - BLOCK_TEXT),
            isa.Movz(3, 1, 0),
            isa.Movz(4, 1, 0),
            isa.Hlt(),
            cached=cached,
        )
        cpu.run(max_steps=10)
        assert (cpu.regs.read(3), cpu.regs.read(4)) == (5, 0x77)
        assert cpu.instructions_retired == 4

    @pytest.mark.parametrize("cached", (True, False))
    def test_pair_store_over_the_next_words_runs_them(self, cached):
        """STP over the next four words of the running block: all four
        new words (two per register) run, not the MOVZs built into it."""
        start = BLOCK_TEXT + 0xFC
        cpu = self._core(
            isa.Stp(_PATCH_REG, _PATCH_REG_2, _TEXT_BASE_REG, 0x100),
            *[isa.Movz(reg, 1, 0) for reg in (3, 4, 5, 6)],
            isa.Hlt(),
            start=start,
            cached=cached,
        )
        cpu.regs.write(_PATCH_REG_2, _PATCH_2)
        cpu.run(max_steps=10)
        assert [cpu.regs.read(reg) for reg in (3, 4, 5, 6)] == [5, 0x77, 7, 0x99]
        assert cpu.instructions_retired == 6

    @pytest.mark.parametrize("cached", (True, False))
    @pytest.mark.parametrize(
        "pair, base",
        [
            (isa.Ldp(1, 2, _PAGE_END_REG, 0x78), BLOCK_DATA + 0xF80),
            (isa.LdpPost(1, 2, _PAGE_END_REG, 0x10), BLOCK_DATA + 0xFF8),
            (isa.Stp(1, 2, _PAGE_END_REG, 0x78), BLOCK_DATA + 0xF80),
            (isa.StpPre(1, 2, _PAGE_END_REG, -0x8), BLOCK_DATA + 0x1000),
        ],
        ids=["ldp", "ldp-post", "stp", "stp-pre"],
    )
    def test_pair_straddling_into_an_unmapped_page(self, pair, base, cached):
        """A pair at page offset 0xFF8 whose second word is unmapped,
        mid-block: the first register is loaded or the first word
        stored, the second not, no writeback, and the fault leaves pc,
        cycles and the retired count at the pair."""
        start = BLOCK_TEXT + 0x100
        cpu = self._core(
            isa.Movz(1, 0x11, 0), isa.Movz(2, 0x22, 0), pair,
            isa.Movz(3, 0x33, 0), isa.Hlt(),
            start=start, cached=cached,
        )
        mmu = cpu.mmu
        mmu.map_range(BLOCK_DATA, 0x1000, 0x703, Permissions.kernel_data())
        mmu.write_u64(BLOCK_DATA + 0xFF8, 0xF00D, 1)
        cpu.regs.write(_PAGE_END_REG, base)
        with pytest.raises(TranslationFault) as info:
            cpu.run(max_steps=10)
        assert info.value.address == BLOCK_DATA + 0x1000
        regs = cpu.regs
        assert (regs.pc, cpu.cycles, cpu.instructions_retired) == (
            start + 8, 4, 2
        )
        assert regs.read(_PAGE_END_REG) == base
        assert regs.read(3) == 0
        if pair.mnemonic == "ldp":
            assert (regs.read(1), regs.read(2)) == (0xF00D, 0x22)
        else:
            assert mmu.read_u64(BLOCK_DATA + 0xFF8, 1) == 0x11

    def test_block_never_crosses_a_page_boundary(self):
        start = BLOCK_TEXT + 0x1000 - 8
        cpu = self._core(*[isa.Nop()] * 5, isa.Hlt(), start=start)
        cpu.run(max_steps=10)
        assert cpu.instructions_retired == 6
        blocks = {
            pc: len(instructions)
            for (pc, _), (instructions, *_) in cpu._decode_cache.items()
        }
        assert blocks == {start: 2, BLOCK_TEXT + 0x1000: 4}

    def test_undecodable_word_past_a_block_never_faults_early(self):
        """The block before an undecodable word ends at it; the fault is
        raised only on reaching the word, and a store that repairs the
        word first lets it run."""
        bad = BLOCK_TEXT + 0x108
        cpu = self._core(isa.Movz(1, 1, 0), isa.Movz(2, 2, 0))
        assert cpu.mmu.read(bad, 4, 1) == bytes(4)
        cpu.step()
        cpu.step()
        assert (cpu.regs.read(1), cpu.regs.read(2)) == (1, 2)
        with pytest.raises(TranslationFault):
            cpu.step()
        assert (cpu.regs.pc, cpu.instructions_retired) == (bad, 2)

        cpu = self._core(isa.Movz(1, 1, 0), isa.Movz(2, 2, 0))
        with pytest.raises(TranslationFault):
            cpu.run(max_steps=10)
        assert (cpu.regs.pc, cpu.instructions_retired) == (bad, 2)
        assert cpu.cycles == 2

        cpu = self._core(
            isa.Movz(1, 1, 0),
            isa.Str(_PATCH_REG, _TEXT_BASE_REG, bad - BLOCK_TEXT),
        )
        cpu.mmu.phys.store_instruction((0x700 << 12) + 0x110, isa.Hlt(), bad + 8)
        cpu.run(max_steps=10)
        assert (cpu.regs.read(3), cpu.regs.read(4)) == (5, 0x77)

    #: An MSR mid-block, on the first run of its block (bare ``execute``
    #: body) and with the block compiled before it runs.
    _MSR_PATHS = pytest.mark.parametrize(
        "hot_runs", (1 << 30, 0), ids=("cold", "compiled")
    )

    def _msr_run(self, instructions, prepare, hot_runs, monkeypatch, **core):
        """Run ``instructions`` (ending in HLT) on a cached core whose
        blocks compile after ``hot_runs`` runs and on a cache-free twin,
        each set up by ``prepare``; both states must match, the program
        must be one block, and that block compiled when ``hot_runs`` is
        0."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", hot_runs)
        states = []
        for cached in (True, False):
            cpu = self._core(*instructions, cached=cached, **core)
            extra = prepare(cpu)
            try:
                cpu.run(max_steps=20)
                fault = None
            except HypervisorTrap as error:
                fault = str(error)
            regs = cpu.regs
            states.append((
                regs.pc, cpu.cycles, cpu.instructions_retired, cpu.halted,
                tuple(regs.x), fault, extra(),
            ))
            if cached:
                (block,) = cpu._decode_cache.values()
                assert len(block[0]) == len(instructions)
                assert (block[4] is not None) == (hot_runs == 0)
        assert states[0] == states[1]
        return states[0]

    @_MSR_PATHS
    def test_locked_msr_mid_block_traps_like_the_reference(
        self, hot_runs, monkeypatch
    ):
        """After lockdown, MSR TTBR0_EL1 mid-block traps to EL2 at its
        own pc, with the cycles and retired count of the two moves
        before it, and the hypervisor logs the one write."""
        def lock(cpu):
            hypervisor = Hypervisor().attach(cpu)
            hypervisor.lockdown()
            return lambda: tuple(hypervisor.trap_log)

        start = BLOCK_TEXT + 0x100
        pc, cycles, retired, halted, x, fault, log = self._msr_run(
            [isa.Movz(1, 0x55, 0), isa.Movz(2, 7, 0),
             isa.Msr("TTBR0_EL1", 1), isa.Movz(3, 9, 0), isa.Hlt()],
            lock, hot_runs, monkeypatch,
        )
        assert (pc, cycles, retired, halted) == (start + 8, 4, 2, False)
        assert "TTBR0_EL1" in fault and log == (("TTBR0_EL1", 0x55),)
        assert (x[2], x[3]) == (7, 0)

    @_MSR_PATHS
    def test_key_msr_then_pac_in_one_block_signs_with_the_new_key(
        self, hot_runs, monkeypatch
    ):
        """MSR APIAKeyLo/Hi followed by PACIA in the same block: the
        pointer is signed under the key just written."""
        pointer, modifier = BLOCK_DATA + 0x40, 0xAA

        def keys(cpu):
            cpu.regs.keys.ia = PAuthKey(0x1111, 0x2222)
            cpu.regs.write(3, modifier)
            return lambda: cpu.regs.keys.ia.as_pair()

        *_, x, fault, key = self._msr_run(
            [isa.Movz(1, 0xBEEF, 0), isa.Msr("APIAKeyLo_EL1", 1),
             isa.Movz(1, 0xCAFE, 16), isa.Msr("APIAKeyHi_EL1", 1),
             isa.Movz(2, pointer & 0xFFFF, 0),
             isa.Movk(2, pointer >> 16 & 0xFFFF, 16),
             isa.Movk(2, pointer >> 32 & 0xFFFF, 32),
             isa.Movk(2, pointer >> 48, 48),
             isa.Pac("ia", 2, 3), isa.Hlt()],
            keys, hot_runs, monkeypatch,
        )
        assert fault is None
        new_key = PAuthKey(0xBEEF, 0xCAFE << 16)
        assert key == new_key.as_pair()
        assert x[2] == PACEngine().add_pac(pointer, modifier, new_key)
        assert x[2] != PACEngine().add_pac(
            pointer, modifier, PAuthKey(0x1111, 0x2222)
        )

    @_MSR_PATHS
    def test_key_bank_select_mid_block_switches_the_next_pac(
        self, hot_runs, monkeypatch
    ):
        """On a pauth-ks core, MSR APKSSEL_EL1 mid-block selects the
        secondary bank for the PACIA right after it."""
        pointer, modifier = BLOCK_DATA + 0x40, 0xAA
        primary, secondary = PAuthKey(0x1111, 0x2222), PAuthKey(0x3333, 0x4444)

        def banks(cpu):
            cpu.regs.keys.ia = primary.copy()
            cpu.regs.alt_keys.ia = secondary.copy()
            cpu.regs.write(2, pointer)
            cpu.regs.write(3, modifier)
            return lambda: cpu.regs.sysregs.get("APKSSEL_EL1")

        *_, x, fault, bank = self._msr_run(
            [isa.Movz(1, 1, 0), isa.Msr("APKSSEL_EL1", 1),
             isa.Pac("ia", 2, 3), isa.Hlt()],
            banks, hot_runs, monkeypatch,
            features=frozenset({"pauth", "pauth-ks"}),
        )
        assert (fault, bank) == (None, 1)
        assert x[2] == PACEngine().add_pac(pointer, modifier, secondary)
        assert x[2] != PACEngine().add_pac(pointer, modifier, primary)

    def test_decode_counters_count_dispatched_instructions(self):
        """Fault-free and IRQ-free: every retired instruction is one
        decode hit or miss, and the second pass over the loop hits."""
        cpu = _loop_machine("timer_irq")
        cpu.timer_period = None
        cpu.run(max_steps=200)
        stats = cpu.decode_stats
        assert stats.hits + stats.misses == cpu.instructions_retired
        assert stats.hits > stats.misses

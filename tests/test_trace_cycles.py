"""Cycle-model regression tests, pinned through the tracer.

The evaluation depends on a handful of calibration constants staying
put: PAuth computations cost ``PAUTH_CYCLES`` (the PA-analogue of the
paper's 4-cycle QARMA estimate), key-register MSRs cost no extra
cycles beyond a plain MSR, and the protected ``cpu_switch_to`` pays
exactly two modifier constructions plus two PAuth ops over the
unprotected one.  Any cycle-model drift fails here first.
"""

import pytest

from repro.arch import isa
from repro.arch.isa import KEY_WRITE_EXTRA_CYCLES, PAUTH_CYCLES
from repro.kernel import System
from repro.trace import Tracer, TraceSession


class TestCalibrationConstants:
    def test_pauth_cycles_is_four(self):
        # Paper Section 6: QARMA in hardware estimated at 4 cycles.
        assert PAUTH_CYCLES == 4

    def test_key_write_extra_cycles_is_zero(self):
        # Section 6.1.1 calibration: plain 2-cycle MSRs already give
        # (12 install + 6 restore) / 2 = 9 cycles per key per switch.
        assert KEY_WRITE_EXTRA_CYCLES == 0
        install = 8 * 1 + 2 * 2  # 8 MOVZ/MOVK + 2 MSR
        restore = 1 * 2 + 2 * 2  # 1 LDP + 2 MSR
        assert (install + restore) / 2 == 9

    def test_pauth_instruction_static_costs(self):
        assert isa.Pac("ia", 0, 1).cycles == PAUTH_CYCLES
        assert isa.Aut("ia", 0, 1).cycles == PAUTH_CYCLES
        assert isa.RetA("ia").cycles == 1 + PAUTH_CYCLES
        assert isa.BlrA("ia", 0, 1).cycles == 1 + PAUTH_CYCLES


class TestTracedInstructionCosts:
    def test_pac_and_aut_retire_at_four_cycles(self, machine):
        tracer = machine.cpu.attach_tracer(Tracer())
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Pac("ia", 0, 1), isa.Aut("ia", 0, 1), isa.Ret())
        machine.run(asm.assemble(), args=(0x1234, 0))
        costs = {
            e.data["mnemonic"]: e.cost
            for e in tracer.events("insn_retire")
        }
        assert costs["pacia"] == PAUTH_CYCLES
        assert costs["autia"] == PAUTH_CYCLES
        assert tracer.stats["pac_add"].mean == PAUTH_CYCLES
        assert tracer.stats["pac_auth"].mean == PAUTH_CYCLES

    def test_hint_forms_retire_as_nops_on_v80(self, v80_machine):
        # PACIASP/AUTIASP are HINT-space: 1-cycle NOPs without
        # FEAT_PAuth (the compat story of Section 4.4).
        tracer = v80_machine.cpu.attach_tracer(Tracer())
        asm = v80_machine.assembler()
        asm.fn("main")
        asm.emit(isa.PacSp("ia"), isa.AutSp("ia"), isa.Ret())
        v80_machine.run(asm.assemble())
        costs = [e.cost for e in tracer.events("insn_retire")]
        assert costs[:2] == [1, 1]

    def test_hint_forms_cost_full_pauth_price_on_v83(self, machine):
        tracer = machine.cpu.attach_tracer(Tracer())
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.PacSp("ia"), isa.AutSp("ia"), isa.Ret())
        machine.run(asm.assemble())
        costs = [e.cost for e in tracer.events("insn_retire")]
        assert costs[:2] == [PAUTH_CYCLES, PAUTH_CYCLES]


def _seed_context(system, task):
    """Give a fresh task a resumable saved context (as fork would)."""
    task.kobj.raw_write("cpu_context_pc", system.cpu._landing_pad())
    if system.profile.dfi:
        task.kobj.set_protected(
            "cpu_context_sp", task.stack_top,
            system.cpu.pac, system.kernel_keys, "db",
        )
    else:
        task.kobj.raw_write("cpu_context_sp", task.stack_top)
    return task


def _traced_switch_cost(profile):
    """Cycles of one ``cpu_switch_to`` plus its PAC op counts."""
    system = System(profile=profile)
    with TraceSession(system) as tracer:
        other = _seed_context(system, system.spawn_process("other"))
        tracer.reset()
        system.scheduler.switch_to(other)
        switch = tracer.events("context_switch")[0]
        return switch.cost, tracer.count("pac_add"), tracer.count("pac_auth")


class TestContextSwitchCost:
    def test_protected_switch_costs_two_modifiers_and_two_pauth_ops(self):
        # Section 5.2: the protected cpu_switch_to signs prev's SP and
        # authenticates next's — per direction one MOVZ+BFI modifier
        # construction (2 cycles) plus one PAC/AUT (PAUTH_CYCLES).
        full_cost, _, _ = _traced_switch_cost("full")
        none_cost, _, _ = _traced_switch_cost("none")
        assert full_cost - none_cost == 2 * (2 + PAUTH_CYCLES)

    def test_protected_switch_performs_one_sign_one_auth(self):
        _, adds, auths = _traced_switch_cost("full")
        # auth_pac recomputes the PAC internally without re-emitting an
        # add event, so the counts are exactly one each.
        assert (adds, auths) == (1, 1)

    def test_unprotected_switch_performs_no_pac_ops(self):
        _, adds, auths = _traced_switch_cost("none")
        assert (adds, auths) == (0, 0)

    def test_switch_cost_stable_across_repeats(self):
        system = System(profile="full")
        with TraceSession(system) as tracer:
            tasks = [
                _seed_context(system, system.spawn_process(f"t{i}"))
                for i in range(3)
            ]
            for task in tasks:
                system.scheduler.switch_to(task)
            costs = {e.cost for e in tracer.events("context_switch")}
        assert len(costs) == 1

"""Profiler tests: symbol binning, attribution conservation, folding.

The load-bearing invariant (checked on both paper workloads): the
profiler never invents or loses cycles.  Per-symbol exclusive cycles
sum exactly to the tracer's ``insn_retire`` total, and per-symbol PAuth
cycles sum exactly to the tracer's PAC-event totals.
"""

from __future__ import annotations

import json

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.observe import (
    HOST_SYMBOL,
    LANDING_SYMBOL,
    ProfileSession,
    Profiler,
    SymbolTable,
    render_profile,
)
from repro.trace import events as ev

PAC_EVENT_KINDS = ("pac_add", "pac_auth", "pac_strip", "pac_generic")


def _pac_total(tracer):
    return sum(
        tracer.stats[kind].total
        for kind in PAC_EVENT_KINDS
        if kind in tracer.stats
    )


def _two_function_program():
    asm = Assembler(0x1000)
    asm.fn("alpha")
    asm.emit(isa.Nop(), isa.Nop(), isa.Nop())
    asm.label("alpha_loop")  # intra-function label: not a symbol entry
    asm.emit(isa.Nop())
    asm.fn("beta")
    asm.emit(isa.Nop(), isa.Hlt())
    return asm.assemble()


class TestSymbolTable:
    def test_functions_bound_by_next_entry(self):
        table = SymbolTable(include_landing_pad=False)
        table.add_program(_two_function_program())
        assert len(table) == 2
        assert table.resolve(0x1000).name == "alpha"
        assert table.resolve(0x100C).name == "alpha"  # the loop label
        beta = table.entry_of("beta")
        assert table.resolve(beta).name == "beta"
        assert table.resolve(beta + 4) == table.resolve(beta + 4)

    def test_adding_a_function_clears_resolved_addresses(self):
        table = SymbolTable(include_landing_pad=False)
        table.add_program(_two_function_program())
        beta = table.entry_of("beta")
        assert table.resolve(beta).name == "beta"
        assert table.resolve(beta + 4) == ("beta", beta, 4, "function")
        table.add_function("gamma", beta + 4, limit=beta + 8)
        assert table.resolve(beta + 4) == ("gamma", beta + 4, 0, "function")
        assert table.resolve(beta).name == "beta"

    def test_labels_are_not_entries(self):
        table = SymbolTable(include_landing_pad=False)
        table.add_program(_two_function_program())
        assert "alpha_loop" not in table

    def test_name_of_offsets(self):
        table = SymbolTable(include_landing_pad=False)
        table.add_program(_two_function_program())
        assert table.name_of(0x1000) == "alpha"
        assert table.name_of(0x1004) == "alpha+0x4"

    def test_misses_classify_into_synthetic_buckets(self):
        table = SymbolTable(include_landing_pad=False)
        assert table.resolve(0x40_0000).name == "<user>"
        assert table.resolve(0xFFFF_0000_0800_0000).name == "<kernel>"
        assert table.resolve(0x7FF0_0000_0000_0000).name == "<invalid>"

    def test_address_past_program_end_is_not_a_function(self):
        table = SymbolTable(include_landing_pad=False)
        program = _two_function_program()
        table.add_program(program)
        assert table.resolve(program.end + 0x100).kind == "synthetic"

    def test_landing_pad_registered_by_default(self):
        table = SymbolTable()
        assert LANDING_SYMBOL in table

    def test_from_system_covers_the_kernel_image(self):
        from repro.kernel import System

        system = System()
        table = SymbolTable.from_system(system)
        for name in ("el0_sync", "sys_read", "vfs_read", "tracefs_read"):
            assert name in table, name
            entry = table.entry_of(name)
            assert table.resolve(entry + 4).name == name

    def test_from_system_registers_the_xom_key_setter(self):
        from repro.boot.bootloader import KEY_SETTER_SYMBOL
        from repro.kernel import System

        system = System(key_management="xom")
        table = SymbolTable.from_system(system)
        assert table.resolve(system.key_setter_address).name == (
            KEY_SETTER_SYMBOL
        )


def _insn(pc, mnemonic="nop", cost=1):
    return ev.TraceEvent(
        ev.INSN_RETIRE, 0, cost, {"pc": pc, "mnemonic": mnemonic, "el": 1}
    )


class TestProfilerStateMachine:
    """Synthetic event streams pin the call/ret/exception transitions."""

    def _profiler(self):
        table = SymbolTable(include_landing_pad=False)
        table.add_program(_two_function_program())
        return Profiler(table), table

    def test_call_pushes_after_the_branch_retires(self):
        profiler, table = self._profiler()
        beta = table.entry_of("beta")
        profiler(_insn(0x1000, "bl"))
        profiler(_insn(beta))
        assert profiler.calls == {"beta": 1}
        assert ("alpha", "beta") in profiler.folded

    def test_ret_pops_the_callee(self):
        profiler, table = self._profiler()
        beta = table.entry_of("beta")
        profiler(_insn(0x1000, "bl"))
        profiler(_insn(beta, "ret"))
        profiler(_insn(0x1004))
        assert profiler.folded.get(("alpha",)) == 2

    def test_pac_cost_bills_the_next_retire(self):
        profiler, table = self._profiler()
        profiler(_insn(0x1000, "bl"))
        profiler(ev.TraceEvent(ev.PAC_ADD, 0, 4, {}))
        profiler(_insn(table.entry_of("beta"), "pacib"))
        assert profiler.pauth == {"beta": 4}

    def test_orphan_pac_cost_lands_on_the_host(self):
        profiler, _ = self._profiler()
        profiler(ev.TraceEvent(ev.PAC_GENERIC, 0, 4, {}))
        profiler(ev.TraceEvent(ev.PAC_GENERIC, 0, 4, {}))
        profiler.finalize()
        assert profiler.pauth == {HOST_SYMBOL: 8}

    def test_exception_and_eret_bracket_handler_frames(self):
        profiler, table = self._profiler()
        handler = 0xFFFF_0000_0800_0000
        profiler(_insn(0x1000))
        profiler(ev.TraceEvent(ev.EXC_ENTRY, 0, 0, {"exc": "svc"}))
        profiler(_insn(0x1004, "svc"))
        profiler(_insn(handler))
        assert ("alpha", "<kernel>") in profiler.folded
        profiler(ev.TraceEvent(ev.EXC_RETURN, 0, 0, {}))
        profiler(_insn(handler + 4, "eret"))
        profiler(_insn(0x1008))
        assert profiler.folded[("alpha",)] == 3


@pytest.mark.slow
class TestConservationE1:
    """Figure 2 workload: instrumented call loop on a bare core."""

    def _profile(self, iterations=25):
        from repro.workloads.callbench import build_call_loop, run_call_loop

        machine, program = build_call_loop("camouflage", iterations)
        session = ProfileSession(machine.cpu, programs=[program])
        with session as profiler:
            run_call_loop(machine, program, iterations)
        return profiler, session.tracer

    def test_exclusive_cycles_sum_to_tracer_total(self):
        profiler, tracer = self._profile()
        assert profiler.total_cycles == tracer.stats["insn_retire"].total

    def test_pauth_cycles_sum_to_pac_event_totals(self):
        profiler, tracer = self._profile()
        assert profiler.total_pauth_cycles == _pac_total(tracer)
        assert profiler.total_pauth_cycles > 0

    def test_callee_attribution(self):
        profiler, _ = self._profile()
        assert profiler.calls.get("callee", 0) == 25
        assert profiler.pauth.get("callee", 0) > 0
        inclusive = profiler.inclusive()
        assert inclusive["bench"] >= profiler.exclusive["bench"]


@pytest.mark.slow
class TestConservationE2:
    """Figure 3 workload: null syscalls through the full kernel path."""

    def _profile(self, iterations=15):
        from repro.workloads.guest import syscall_cycles
        from repro.workloads.lmbench import build_lmbench_system

        system = build_lmbench_system("full")
        system.map_user_stack()
        session = ProfileSession(system, capacity=262144)
        with session as profiler:
            syscall_cycles(system, "null_call", iterations, x0=3)
        return profiler, session.tracer

    def test_exclusive_cycles_sum_to_tracer_total(self):
        profiler, tracer = self._profile()
        assert profiler.total_cycles == tracer.stats["insn_retire"].total

    def test_pauth_cycles_sum_to_pac_event_totals(self):
        profiler, tracer = self._profile()
        assert profiler.total_pauth_cycles == _pac_total(tracer)

    def test_kernel_path_symbols_present(self):
        profiler, _ = self._profile()
        assert "el0_sync" in profiler.exclusive
        assert "sys_null_call" in profiler.exclusive
        assert profiler.calls.get("sys_null_call", 0) == 15


class TestExport:
    def _profiled(self):
        from repro.workloads.callbench import build_call_loop, run_call_loop

        machine, program = build_call_loop("camouflage", 10)
        session = ProfileSession(machine.cpu, programs=[program])
        with session as profiler:
            run_call_loop(machine, program, 10)
        return profiler

    def test_folded_lines_are_collapsed_format(self):
        profiler = self._profiled()
        lines = profiler.folded_lines()
        assert lines
        for line in lines:
            stack, cycles = line.rsplit(" ", 1)
            assert cycles.isdigit() and int(cycles) > 0
            assert all(part for part in stack.split(";"))
        assert any(line.startswith("bench;callee ") for line in lines)

    def test_folded_cycles_sum_to_total(self):
        profiler = self._profiled()
        summed = sum(
            int(line.rsplit(" ", 1)[1]) for line in profiler.folded_lines()
        )
        assert summed == profiler.total_cycles

    def test_json_roundtrip(self, tmp_path):
        profiler = self._profiled()
        path = profiler.write_json(tmp_path / "profile.json")
        data = json.loads(open(path).read())
        assert data["totals"]["cycles"] == profiler.total_cycles
        summed = sum(
            entry["exclusive_cycles"]
            for entry in data["symbols"].values()
        )
        assert summed == data["totals"]["cycles"]

    def test_write_folded(self, tmp_path):
        profiler = self._profiled()
        path = profiler.write_folded(tmp_path / "fg.folded")
        assert open(path).read().splitlines() == profiler.folded_lines()

    def test_top_ranks_and_truncates(self):
        profiler = self._profiled()
        ranked = profiler.top(1)
        assert len(ranked) == 1
        assert ranked[0][0] == "callee"
        full = profiler.top()
        assert [cycles for _, cycles in full] == sorted(
            (cycles for _, cycles in full), reverse=True
        )

    def test_render_profile_mentions_totals(self):
        profiler = self._profiled()
        text = render_profile(profiler)
        assert "callee" in text
        assert f"total: {profiler.total_cycles} cycles" in text
        truncated = render_profile(profiler, top=1)
        assert "top 1" in truncated

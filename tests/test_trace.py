"""Unit and integration tests for the tracing subsystem (repro.trace)."""

import json
import os

import pytest

from repro.arch import isa
from repro.arch.cpu import CPU
from repro.errors import ReproError
from repro.kernel import System
from repro.trace import (
    CycleStats,
    RingBuffer,
    Tracer,
    TraceEvent,
    TraceSession,
    global_tracer,
)
from repro.workloads.guest import BareMachine


class TestRingBuffer:
    def test_append_and_order(self):
        ring = RingBuffer(capacity=8)
        for value in range(5):
            ring.append(value)
        assert list(ring) == [0, 1, 2, 3, 4]
        assert len(ring) == 5
        assert ring.total == 5
        assert ring.dropped == 0

    def test_wrap_keeps_newest(self):
        ring = RingBuffer(capacity=4)
        for value in range(10):
            ring.append(value)
        assert list(ring) == [6, 7, 8, 9]
        assert ring.total == 10
        assert ring.dropped == 6

    def test_snapshot_is_independent(self):
        ring = RingBuffer(capacity=4)
        ring.append("a")
        snap = ring.snapshot()
        ring.append("b")
        assert snap == ["a"]

    def test_clear(self):
        ring = RingBuffer(capacity=4)
        ring.append(1)
        ring.clear()
        assert list(ring) == []
        assert ring.total == 0


class TestCycleStats:
    def test_running_stats(self):
        stats = CycleStats()
        for cost in (4, 4, 12, 0):
            stats.add(cost)
        assert stats.count == 4
        assert stats.total == 20
        assert stats.min == 0
        assert stats.max == 12
        assert stats.mean == 5.0

    def test_power_of_two_buckets(self):
        stats = CycleStats()
        # bucket n holds costs in [2^(n-1), 2^n); bucket 0 holds zero.
        for cost in (0, 1, 2, 3, 4, 7, 8):
            stats.add(cost)
        assert stats.buckets == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1}

    def test_as_dict_shape(self):
        stats = CycleStats()
        stats.add(6)
        d = stats.as_dict()
        assert d["count"] == 1
        assert d["total_cycles"] == 6
        assert d["buckets"] == {"3": 1}


class TestTracer:
    def test_emit_counts_and_stats(self):
        tracer = Tracer()
        tracer.emit("key_switch", cycle=10, cost=12, key="ia")
        tracer.emit("key_switch", cycle=20, cost=6, key="ib")
        assert tracer.count("key_switch") == 2
        assert tracer.stats["key_switch"].mean == 9.0
        events = tracer.events("key_switch")
        assert [e.data["key"] for e in events] == ["ia", "ib"]

    def test_events_filter_and_snapshot(self):
        tracer = Tracer()
        tracer.emit("a", cycle=1)
        tracer.emit("b", cycle=2)
        tracer.emit("a", cycle=3)
        assert [e.kind for e in tracer.events()] == ["a", "b", "a"]
        assert [e.cycle for e in tracer.events("a")] == [1, 3]

    def test_listeners_see_events_in_order(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(seen.append)
        tracer.emit("x", cycle=1)
        tracer.emit("y", cycle=2)
        assert [e.kind for e in seen] == ["x", "y"]
        tracer.remove_listener(seen.append)
        tracer.emit("z", cycle=3)
        assert len(seen) == 2

    def test_clock_used_when_no_cycle_given(self):
        tracer = Tracer()
        tracer.clock = lambda: 42
        event = tracer.emit("tick")
        assert event.cycle == 42

    def test_reset_clears_data_not_listeners(self):
        tracer = Tracer()
        listener = tracer.add_listener(lambda e: None)
        tracer.emit("x")
        tracer.reset()
        assert tracer.count("x") == 0
        assert tracer.events() == []
        assert listener in tracer.listeners

    def test_unknown_pac_op_rejected(self):
        with pytest.raises(ReproError):
            Tracer().pac_event("bogus")


def _pac_program(machine):
    asm = machine.assembler()
    asm.fn("main")
    asm.emit(
        isa.Pac("ia", 0, 1),
        isa.Aut("ia", 0, 1),
        isa.Ret(),
    )
    return asm.assemble()


class TestCpuTracing:
    def test_insn_stream_and_pac_events(self, machine):
        tracer = machine.cpu.attach_tracer(Tracer())
        machine.run(_pac_program(machine), args=(0x1234, 0))
        assert tracer.count("pac_add") == 1
        assert tracer.count("pac_auth") == 1
        mnemonics = [
            e.data["mnemonic"] for e in tracer.events("insn_retire")
        ]
        # cpu.call parks the return on a HLT landing pad.
        assert mnemonics == ["pacia", "autia", "ret", "hlt"]
        assert tracer.count("insn_retire") == (
            machine.cpu.instructions_retired
        )

    def test_tracing_does_not_change_cycles(self, machine):
        untraced = BareMachine()
        untraced.run(_pac_program(untraced), args=(0x1234, 0))

        machine.cpu.attach_tracer(Tracer())
        machine.run(_pac_program(machine), args=(0x1234, 0))
        assert machine.cpu.cycles == untraced.cpu.cycles

    def test_instructions_false_counts_without_retaining(self, machine):
        tracer = machine.cpu.attach_tracer(Tracer(instructions=False))
        machine.run(_pac_program(machine), args=(0x1234, 0))
        assert tracer.count("insn_retire") == 4  # incl. the HLT pad
        assert tracer.events("insn_retire") == []
        assert tracer.insn_mix["pacia"] == [1, 4]


class TestTraceSession:
    def test_cpu_mode(self, machine):
        with TraceSession(machine.cpu) as tracer:
            machine.run(_pac_program(machine), args=(1, 0))
        assert tracer.count("pac_add") == 1
        assert machine.cpu.tracer is None  # detached on exit

    def test_system_mode_attaches_all_layers(self):
        system = System(profile="full")
        with TraceSession(system) as tracer:
            assert system.tracer is tracer
            assert system.cpu.tracer is tracer
            assert system.cpu.pac.trace_hook == tracer.pac_event
            assert system.faults.tracer is tracer
        assert system.tracer is None
        assert system.cpu.tracer is None
        assert system.faults.tracer is None

    def test_global_mode_attaches_booted_systems(self):
        with TraceSession() as tracer:
            assert global_tracer() is tracer
            system = System(profile="full")
            assert system.tracer is tracer
        assert global_tracer() is None

    def test_global_mode_attaches_bare_cores(self):
        # fig2 runs on bare cores: the slot reaches them with no System.
        with TraceSession() as tracer:
            cpu = CPU()
            assert cpu.tracer is tracer
            assert cpu.pac.trace_hook == tracer.pac_event
            assert tracer.clock() == cpu.cycles
        assert CPU().tracer is None

    def test_nested_global_sessions_rejected(self):
        with TraceSession():
            with pytest.raises(ReproError):
                TraceSession().__enter__()

    def test_nested_session_keeps_the_outer_tracer(self):
        with TraceSession() as outer:
            system = System(profile="full")
            with pytest.raises(ReproError):
                with TraceSession(system):
                    pass
            assert system.tracer is outer
            assert system.cpu.tracer is outer

    def test_runs_that_boot_their_own_system_keep_their_own_tracer(self):
        from repro.inject.campaign import CampaignDriver
        from repro.observe import force_pauth_panic

        with TraceSession():
            assert force_pauth_panic().last_crash is not None
            driver = CampaignDriver(invariants=False)
            assert driver.system.tracer is driver.tracer

    def test_cpu_holding_another_tracer_rejects_a_second(self):
        cpu = CPU()
        first = cpu.attach_tracer(Tracer())
        with pytest.raises(ReproError):
            cpu.attach_tracer(Tracer())
        assert cpu.tracer is first
        assert cpu.pac.trace_hook == first.pac_event
        assert cpu.attach_tracer(first) is first

    def test_untraceable_target_rejected(self):
        with pytest.raises(ReproError):
            TraceSession(object()).__enter__()


class TestExport:
    def _populated(self):
        tracer = Tracer()
        tracer.emit("key_switch", cycle=5, cost=12, key="ia")
        tracer.emit("auth_failure", cycle=9, cost=0, key="ib")
        return tracer

    def test_json_round_trip(self):
        data = json.loads(self._populated().to_json())
        assert data["counters"] == {"auth_failure": 1, "key_switch": 1}
        assert data["histograms"]["key_switch"]["total_cycles"] == 12
        assert data["meta"]["total_events"] == 2
        kinds = [e["kind"] for e in data["events"]]
        assert kinds == ["key_switch", "auth_failure"]

    def test_event_limit(self):
        data = json.loads(self._populated().to_json(event_limit=1))
        assert [e["kind"] for e in data["events"]] == ["auth_failure"]
        assert data["meta"]["total_events"] == 2

    def test_export_json_file(self, tmp_path):
        path = tmp_path / "trace.json"
        self._populated().export_json(path)
        data = json.loads(path.read_text())
        assert data["counters"]["key_switch"] == 1

    def test_event_to_dict(self):
        event = TraceEvent("key_switch", 5, 12, {"key": "ia"})
        assert event.to_dict() == {
            "kind": "key_switch",
            "cycle": 5,
            "cost": 12,
            "key": "ia",
        }


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: ``trace syscall|fig2 --iterations 2 --json`` aggregates, pinned.
GOLDEN_EXPORTS = os.path.join(GOLDEN, "trace_exports.json")


class TestCli:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["profile", "syscall", "--iterations", "5"], "profile_syscall"),
            (["profile", "fig2", "--iterations", "5"], "profile_fig2"),
            (["crash"], "crash"),
        ],
        ids=["profile-syscall", "profile-fig2", "crash"],
    )
    def test_json_artifact_matches_golden(
        self, argv, golden, tmp_path, capsys
    ):
        """The profile and crash artifacts are byte-identical to the
        pinned ones: the guest harness, the Figure 2 machine and the
        forced panic all feed them."""
        from repro.__main__ import main

        path = tmp_path / "artifact.json"
        assert main(argv + ["--json", str(path)]) == 0
        capsys.readouterr()
        with open(os.path.join(GOLDEN, f"{golden}.json"), "rb") as handle:
            assert path.read_bytes() == handle.read()

    @pytest.mark.parametrize("workload", ["syscall", "fig2"])
    def test_trace_export_matches_golden(self, workload, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "trace.json"
        rc = main(
            ["trace", workload, "--iterations", "2", "--json", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        data = json.loads(path.read_text())
        with open(GOLDEN_EXPORTS) as handle:
            golden = json.load(handle)[workload]
        assert {key: data[key] for key in golden} == golden

    def test_trace_subcommand_exports_consumable_json(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "syscall", "--iterations", "2", "--json", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "cycles/iteration" in out

        data = json.loads(path.read_text())
        assert data["counters"]["syscall_enter"] == 2
        assert data["counters"]["syscall_exit"] == 2
        assert data["counters"]["key_bank_switch"] == 4
        # Section 6.1.1: two key banks traversed per syscall, three
        # keys each under the full profile.
        hist = data["histograms"]["key_switch"]
        assert hist["count"] == 12
        assert data["instruction_mix"]["msr"]["count"] > 0

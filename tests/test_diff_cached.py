"""Differential tests: the host-side caches are architecturally invisible.

Every workload here runs twice — once with the hot-path caches enabled
(the default) and once inside :func:`repro.hotpath.disabled_caches`, so
every component is built cache-free — and asserts that the two runs are
bit-identical in everything the simulation defines: retired-instruction
streams, cycle counts, PAC values, fault logs and detection matrices.
Only host wall-clock may differ.
"""

from __future__ import annotations

import pytest

from repro import hotpath
from repro.trace import TraceSession


def _run_cached_and_uncached(workload):
    """Run ``workload`` twice; returns (cached_result, uncached_result)."""
    cached = workload()
    with hotpath.disabled_caches():
        uncached = workload()
    return cached, uncached


class TestHotpathSwitchboard:
    def test_default_flags_enabled(self):
        assert all(hotpath.snapshot().values())

    def test_disabled_caches_restores_flags(self):
        before = hotpath.snapshot()
        with hotpath.disabled_caches():
            assert not any(hotpath.snapshot().values())
        assert hotpath.snapshot() == before

    def test_disabled_caches_restores_on_error(self):
        before = hotpath.snapshot()
        with pytest.raises(RuntimeError):
            with hotpath.disabled_caches():
                raise RuntimeError("boom")
        assert hotpath.snapshot() == before

    def test_components_capture_flags_at_construction(self):
        from repro.arch.cpu import CPU

        with hotpath.disabled_caches():
            cold = CPU()
            cold_cipher = cold.pac._cipher(cold.regs.keys.ia)
        warm = CPU()
        assert not cold._decode_enabled
        assert cold_cipher._memo is None
        assert warm._decode_enabled
        assert warm.pac._cipher(warm.regs.keys.ia)._memo is not None


class TestCallbenchDifferential:
    """E1 (Figure 2): per-call cycle costs must not see the caches."""

    @pytest.mark.parametrize(
        "scheme", [None, "sp-only", "parts", "camouflage"]
    )
    def test_cycles_per_call_identical(self, scheme):
        from repro.workloads.callbench import cycles_per_call

        cached, uncached = _run_cached_and_uncached(
            lambda: cycles_per_call(scheme, iterations=40)
        )
        assert cached == uncached

    def test_retired_stream_identical(self):
        from repro.workloads.callbench import build_call_loop, run_call_loop

        def workload():
            machine, program = build_call_loop("camouflage", 25)
            cpu = machine.cpu
            with TraceSession(target=cpu) as tracer:
                per_call = run_call_loop(machine, program, 25)
            stream = [
                (event.data["pc"], event.data["mnemonic"], event.cost)
                for event in tracer.events("insn_retire")
            ]
            return per_call, cpu.cycles, cpu.instructions_retired, stream

        cached, uncached = _run_cached_and_uncached(workload)
        assert cached == uncached


class TestLmbenchDifferential:
    """E2 (Figure 3): syscall round trips must not see the caches."""

    @pytest.mark.parametrize("bench_name", ["null_call", "read_fd"])
    def test_cycles_per_iteration_identical(self, bench_name):
        from repro.workloads.guest import syscall_cycles
        from repro.workloads.lmbench import build_lmbench_system

        def workload():
            system = build_lmbench_system("full")
            system.map_user_stack()
            cycles = syscall_cycles(system, bench_name, 10, x0=3)
            return cycles, system.cpu.cycles, system.cpu.instructions_retired

        cached, uncached = _run_cached_and_uncached(workload)
        assert cached == uncached

    def test_retired_stream_and_key_choreography_identical(self):
        from repro.workloads.guest import syscall_cycles
        from repro.workloads.lmbench import build_lmbench_system

        def workload():
            with TraceSession() as tracer:
                system = build_lmbench_system("full")
                system.map_user_stack()
                syscall_cycles(system, "null_call", 5, x0=3)
            stream = [
                (event.data["pc"], event.data["mnemonic"], event.cost)
                for event in tracer.events("insn_retire")
            ]
            choreography = [
                (event.kind, event.cost)
                for event in tracer.events()
                if event.kind in ("key_switch", "key_bank_switch",
                                  "syscall_enter", "syscall_exit")
            ]
            return stream, choreography

        cached, uncached = _run_cached_and_uncached(workload)
        assert cached[0] == uncached[0]
        assert cached[1] == uncached[1]

    def test_cache_events_never_carry_cycles(self):
        """No host-cache event is traced, and the per-kind cycle totals
        match the cache-free run."""
        from repro.workloads.guest import syscall_cycles
        from repro.workloads.lmbench import build_lmbench_system

        def workload():
            with TraceSession() as tracer:
                system = build_lmbench_system("full")
                system.map_user_stack()
                syscall_cycles(system, "null_call", 5, x0=3)
            totals = {kind: s.total for kind, s in tracer.stats.items()}
            return set(tracer.stats), totals, system.cpu.cycles

        cached, uncached = _run_cached_and_uncached(workload)
        assert not any("cache" in kind for kind in cached[0] | uncached[0])
        assert cached[1:] == uncached[1:]


@pytest.mark.slow
class TestInjectCampaignDifferential:
    """A seeded campaign's detection matrix must not see the caches."""

    def test_detection_matrix_identical(self):
        from repro.inject import DEFAULT_SEED, InjectionCampaign

        def workload():
            campaign = InjectionCampaign(
                profile="full", seed=DEFAULT_SEED, trials=1
            )
            matrix = campaign.run()
            return matrix.to_dict()

        cached, uncached = _run_cached_and_uncached(workload)
        assert cached == uncached

    def test_control_run_identical(self):
        from repro.inject import DEFAULT_SEED, InjectionCampaign

        def workload():
            campaign = InjectionCampaign(
                profile="full", seed=DEFAULT_SEED, trials=1
            )
            return campaign.run_control()

        cached, uncached = _run_cached_and_uncached(workload)
        assert cached == uncached

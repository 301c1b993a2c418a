"""Differential tests: the profiler is architecturally invisible.

Same contract the hot-path caches honour (see test_diff_cached.py):
attaching a :class:`~repro.observe.profiler.Profiler` listener — or the
whole :class:`~repro.observe.profiler.ProfileSession` machinery — must
not change a single simulated outcome.  Every workload runs once with
the profiler attached and once detached; retired-instruction streams,
cycle counts and key choreography must be bit-identical.
"""

from __future__ import annotations

import pytest

from repro import hotpath
from repro.observe import ProfileSession
from repro.trace import TraceSession


def _callbench_outcome(profiled):
    from repro.workloads.callbench import build_call_loop, run_call_loop

    iterations = 25
    machine, program = build_call_loop("camouflage", iterations)
    if profiled:
        session = ProfileSession(machine.cpu, programs=[program])
        with session as _profiler:
            per_call = run_call_loop(machine, program, iterations)
        tracer = session.tracer
    else:
        with TraceSession(target=machine.cpu) as tracer:
            per_call = run_call_loop(machine, program, iterations)
    stream = [
        (event.data["pc"], event.data["mnemonic"], event.cost)
        for event in tracer.events("insn_retire")
    ]
    cpu = machine.cpu
    return per_call, cpu.cycles, cpu.instructions_retired, stream


def _lmbench_outcome(profiled):
    from repro.workloads.guest import syscall_cycles
    from repro.workloads.lmbench import build_lmbench_system

    iterations = 8
    system = build_lmbench_system("full")
    system.map_user_stack()
    if profiled:
        session = ProfileSession(system, capacity=262144)
        with session as _profiler:
            cycles = syscall_cycles(system, "null_call", iterations, x0=3)
        tracer = session.tracer
    else:
        with TraceSession(target=system, capacity=262144) as tracer:
            cycles = syscall_cycles(system, "null_call", iterations, x0=3)
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
    return (
        cycles,
        system.cpu.cycles,
        system.cpu.instructions_retired,
        stream,
        choreography,
    )


class TestCallbenchObserverEffect:
    """E1: the instrumented call loop must not see the profiler."""

    def test_attached_vs_detached_identical(self):
        assert _callbench_outcome(True) == _callbench_outcome(False)

    def test_attached_run_is_cache_invariant(self):
        attached = _callbench_outcome(True)
        with hotpath.disabled_caches():
            uncached = _callbench_outcome(True)
        assert attached == uncached


class TestLmbenchObserverEffect:
    """E2: the syscall round trip must not see the profiler."""

    def test_attached_vs_detached_identical(self):
        assert _lmbench_outcome(True) == _lmbench_outcome(False)

    @pytest.mark.slow
    def test_attached_run_is_cache_invariant(self):
        attached = _lmbench_outcome(True)
        with hotpath.disabled_caches():
            uncached = _lmbench_outcome(True)
        assert attached == uncached


class TestCrashCaptureObserverEffect:
    """Capturing a crash dump reads state; it must not mutate it."""

    def test_capture_leaves_the_wreck_untouched(self):
        from repro.observe import CrashDump, force_pauth_panic

        system = force_pauth_panic()
        cpu = system.cpu
        before = (
            cpu.cycles,
            cpu.instructions_retired,
            {f"x{i}": cpu.regs.read(i) for i in range(31)},
            system.faults.pauth_failures,
            len(system.tracer.events()),
        )
        again = CrashDump.capture(system)
        after = (
            cpu.cycles,
            cpu.instructions_retired,
            {f"x{i}": cpu.regs.read(i) for i in range(31)},
            system.faults.pauth_failures,
            len(system.tracer.events()),
        )
        assert before == after
        assert again.data["frames"] == system.last_crash.data["frames"]

    def test_forced_panic_is_deterministic(self):
        from repro.observe import force_pauth_panic

        first = force_pauth_panic().last_crash.data
        second = force_pauth_panic().last_crash.data
        assert first == second

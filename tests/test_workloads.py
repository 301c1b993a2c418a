"""Tests for the evaluation workloads (repro.workloads)."""

import pytest

from repro.errors import ReproError
from repro.kernel import System
from repro.kernel.system import USER_STEP_BUDGET
from repro.workloads import guest
from repro.workloads.callbench import (
    cycles_per_call,
    figure2_series,
    measure_call_cost,
)
from repro.workloads.guest import run_el0, step_budget, syscall, syscall_cycles
from repro.workloads.lmbench import (
    LMBENCH_BENCHMARKS,
    build_lmbench_system,
    run_suite,
)
from repro.workloads.userspace import WORKLOADS, geometric_mean, run_userspace


class TestCallBench:
    def test_baseline_has_zero_overhead(self):
        cost = measure_call_cost(None, iterations=30)
        assert cost.overhead_cycles == 0

    def test_every_scheme_adds_cost(self):
        for scheme in ("sp-only", "camouflage", "parts"):
            cost = measure_call_cost(scheme, iterations=30)
            assert cost.overhead_cycles > 0

    def test_figure2_ordering(self):
        series = {c.scheme: c for c in figure2_series(iterations=30)}
        assert (
            series["sp-only"].overhead_cycles
            < series["camouflage"].overhead_cycles
            < series["parts"].overhead_cycles
        )

    def test_ns_conversion(self):
        cost = measure_call_cost("sp-only", iterations=30)
        # 1.2 GHz: 1 cycle = 0.8333 ns.
        assert cost.overhead_ns == pytest.approx(
            cost.overhead_cycles / 1.2, rel=1e-6
        )

    def test_overhead_independent_of_iterations(self):
        a = measure_call_cost("camouflage", iterations=20)
        b = measure_call_cost("camouflage", iterations=60)
        assert a.overhead_cycles == pytest.approx(b.overhead_cycles, abs=0.5)


class TestLmbench:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_suite(iterations=5)

    def test_all_benchmarks_present(self, rows):
        assert [r.name for r in rows] == list(LMBENCH_BENCHMARKS)

    def test_monotone_across_profiles(self, rows):
        for row in rows:
            assert (
                row.cycles["none"]
                < row.cycles["backward"]
                < row.cycles["full"]
            )

    def test_double_digit_syscall_overhead(self, rows):
        for row in rows:
            assert 10.0 <= row.overhead_pct("full") < 100.0

    def test_relative_normalisation(self, rows):
        for row in rows:
            assert row.relative()["none"] == 1.0

    def test_select_heaviest(self, rows):
        # select iterates ten fds: by far the most call-dense row.
        select = next(r for r in rows if r.name == "select_10fd")
        others = [r for r in rows if r.name != "select_10fd"]
        assert select.cycles["none"] > max(o.cycles["none"] for o in others)

    def test_system_builds_with_all_syscalls(self):
        system = build_lmbench_system("none")
        for name in LMBENCH_BENCHMARKS:
            assert name in system.syscall_numbers


class TestUserspace:
    @pytest.fixture(scope="class")
    def results(self):
        return run_userspace(iterations=3)

    def test_geomean_below_four_percent(self, results):
        _, geomeans = results
        assert 100.0 * (geomeans["full"] - 1.0) < 4.0

    def test_backward_cheaper_than_full(self, results):
        _, geomeans = results
        assert geomeans["backward"] < geomeans["full"]

    def test_user_heavy_cheapest(self, results):
        rows, _ = results
        by_name = {r.name: r for r in rows}
        assert (
            by_name["jpeg-resize"].overhead_pct("full")
            < by_name["deb-build"].overhead_pct("full")
            < by_name["net-download"].overhead_pct("full")
        )

    def test_jpeg_nearly_free(self, results):
        rows, _ = results
        jpeg = next(r for r in rows if r.name == "jpeg-resize")
        assert jpeg.overhead_pct("full") < 1.0

    def test_workload_mix_spectrum(self):
        works = [spec.user_work for spec in WORKLOADS]
        assert works == sorted(works, reverse=True)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestStepBudget:
    """A counted loop's step budget grows with its iteration count."""

    def test_budget_scales_past_the_fixed_ceiling(self):
        assert step_budget() == USER_STEP_BUDGET
        assert step_budget(1) == USER_STEP_BUDGET
        assert step_budget(14_000) == 14_000 * guest.STEPS_PER_ITERATION
        assert step_budget(14_000) > USER_STEP_BUDGET

    def test_el0_loop_runs_past_the_fixed_budget(self, monkeypatch):
        system = System(profile="full")
        system.map_user_stack()
        number = system.syscall_numbers["getpid"]
        monkeypatch.setattr(guest, "USER_STEP_BUDGET", 1_000)
        # 20 round trips take ~3k steps: over the fixed budget, inside
        # the loop's.
        assert syscall_cycles(system, "getpid", 20) > 0
        with pytest.raises(ReproError, match="exceeded 1000 steps"):
            run_el0(
                system,
                lambda user: [syscall(user, number) for _ in range(20)],
            )

    def test_bare_call_loop_runs_past_the_fixed_budget(self, monkeypatch):
        expected = cycles_per_call("camouflage", 200)
        monkeypatch.setattr(guest, "USER_STEP_BUDGET", 100)
        assert cycles_per_call("camouflage", 200) == expected

"""The perf gate: comparison logic on synthetic reports, plus a smoke
run of the real measurement harness (slow lane)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.perfgate import (
    compare,
    load_report,
    render_report,
    run_perf,
    write_report,
)


def _synthetic_report(host_score=1_000_000.0):
    def workload(cached, uncached, field="instructions_per_sec"):
        return {
            "throughput_field": field,
            "cached": {
                field: cached,
                "cycles_per_iteration": 100.0,
                "instructions": 5000,
                "cache_stats": {},
            },
            "uncached": {
                field: uncached,
                "cycles_per_iteration": 100.0,
                "instructions": 5000,
                "cache_stats": {},
            },
            "speedup": cached / uncached,
            "architectural_match": True,
        }

    return {
        "schema": 1,
        "python": "3.11.7",
        "host_score": host_score,
        "caches": {"decode": True, "translate": True,
                   "pac": True, "cipher": True},
        "workloads": {
            "lmbench_null_call": workload(300_000.0, 120_000.0),
            "callbench_camouflage": workload(500_000.0, 110_000.0),
            "pac_engine": workload(900_000.0, 90_000.0, "pac_ops_per_sec"),
        },
    }


class TestCompare:
    def test_identical_reports_pass(self):
        report = _synthetic_report()
        assert compare(report, copy.deepcopy(report)) == []

    def test_faster_host_alone_does_not_fail(self):
        # Same simulator, host twice as fast: throughput and host_score
        # both double, so the normalised comparison sees no change.
        baseline = _synthetic_report()
        current = _synthetic_report(host_score=2_000_000.0)
        for entry in current["workloads"].values():
            field = entry["throughput_field"]
            entry["cached"][field] *= 2
            entry["uncached"][field] *= 2
        assert compare(current, baseline) == []

    def test_throughput_regression_fails(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.5  # -50% > 25% band
        failures = compare(current, baseline)
        assert len(failures) == 1
        assert "callbench_camouflage" in failures[0]
        assert "throughput regressed" in failures[0]

    def test_regression_within_tolerance_passes(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.80  # inside 25%
        assert compare(current, baseline) == []

    def test_speedup_ratio_is_not_gated(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["pac_engine"]
        # Cached throughput holds and the uncached path got 4x faster
        # (a faster cold cipher): the ratio drops, nothing regressed.
        entry["uncached"]["pac_ops_per_sec"] *= 4
        entry["speedup"] /= 4
        assert compare(current, baseline) == []

    def test_low_lmbench_speedup_is_not_gated(self):
        # There is no absolute speedup floor either: a cached run under
        # 2x its uncached twin passes while its cached throughput holds.
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["lmbench_null_call"]
        entry["uncached"]["instructions_per_sec"] = (
            entry["cached"]["instructions_per_sec"] / 1.5
        )
        entry["speedup"] = 1.5
        assert compare(current, baseline) == []

    def test_architectural_mismatch_fails(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        current["workloads"]["lmbench_null_call"][
            "architectural_match"
        ] = False
        failures = compare(current, baseline)
        assert any("disagree architecturally" in f for f in failures)

    def test_workload_missing_from_baseline_fails(self):
        baseline = _synthetic_report()
        del baseline["workloads"]["pac_engine"]
        failures = compare(_synthetic_report(), baseline)
        assert failures == ["pac_engine: missing from baseline"]

    def test_wider_tolerance_accepts_more(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.6
        assert compare(current, baseline) != []
        assert compare(current, baseline, tolerance=0.5) == []


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = _synthetic_report()
        path = tmp_path / "BENCH_perf.json"
        write_report(report, path)
        assert load_report(path) == report
        # Stable serialisation: keys sorted, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_render_report_lists_all_workloads(self):
        rendered = render_report(_synthetic_report())
        for name in ("lmbench_null_call", "callbench_camouflage",
                     "pac_engine"):
            assert name in rendered
        assert "host_score" in rendered


class TestCommittedBaseline:
    def test_baseline_is_well_formed(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_perf.json",
        )
        baseline = load_report(path)
        assert baseline["schema"] == 1
        for name in ("lmbench_null_call", "callbench_camouflage",
                     "pac_engine"):
            entry = baseline["workloads"][name]
            assert entry["architectural_match"]
            assert entry["speedup"] > 1.0


@pytest.mark.slow
class TestRunPerfSmoke:
    def test_small_run_matches_architecturally(self):
        report = run_perf(iterations=12, pac_operations=200)
        assert set(report["workloads"]) == {
            "lmbench_null_call", "lmbench_profiled",
            "callbench_camouflage", "pac_engine",
        }
        for entry in report["workloads"].values():
            assert entry["architectural_match"]
            assert entry["cached"]["wall_seconds"] > 0
        # The profiler changes host throughput, never simulated state.
        assert report["observer"]["architectural_match"]
        assert report["observer"]["conserved"]
        # A tiny run proves invisibility, not throughput: gated against
        # itself it must pass.
        assert compare(report, report) == []

"""The perfbench comparer (``tools/perf_gate.py``) on synthetic results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BOUNDS = perf_gate.load_bounds()

BASELINE = {
    "runs": 5,
    "workloads": {
        "syscall_mix": {"correct": True, "sim_ips": 220e3, "ops_per_s": 1060.0},
        "pac_stream": {"correct": True, "sim_ips": 330e3, "ops_per_s": 24e3},
        "task_churn": {"correct": True, "sim_ips": 170e3, "ops_per_s": 185.0},
    },
    "observer_cost": 3.0,
}


def _write(results, workload, traced, metrics, raw_ips=200e3, **outcome):
    result = {"correct": True, "attempted": 1000, "failed": 0}
    result.update(outcome)
    result["metrics"] = {
        name: {"value": value, "unit": "-"} for name, value in metrics.items()
    }
    path = perf_gate.result_path(results, workload, traced)
    path.write_text(json.dumps(
        {
            "manifest": {"python": "3.11.7"},
            "result": result,
            "raw_end_to_end": {"sim_ips": raw_ips},
        }
    ))


def _write_all(results, scale=1.0, observer_cost=3.0):
    """Result files matching the baseline, throughput scaled by ``scale``."""
    for name, expected in BASELINE["workloads"].items():
        _write(results, name, False, {
            "sim_ips": expected["sim_ips"] * scale,
            "ops_per_s": expected["ops_per_s"] * scale,
        })
    raw_ips = 200e3
    _write(results, "syscall_mix", True,
           {"observe.listener_s": (observer_cost - 1) / raw_ips}, raw_ips)


def _check(results, baseline=BASELINE):
    return perf_gate.check(results, baseline, BOUNDS)


def test_bounds_come_from_benchmark_json():
    assert BOUNDS == {"sim_ips": 0.2, "ops_per_s": 0.2}


def test_identical_results_pass(tmp_path):
    _write_all(tmp_path)
    passed, failures = _check(tmp_path)
    assert failures == []
    # Four correctness checks, two throughput metrics on three workloads,
    # and the observer cost.
    assert len(passed) == 4 + 2 * 3 + 1


def test_drop_beyond_bound_names_workload_and_metric(tmp_path):
    _write_all(tmp_path)
    _write(tmp_path, "task_churn", False, {
        "sim_ips": BASELINE["workloads"]["task_churn"]["sim_ips"],
        "ops_per_s": BASELINE["workloads"]["task_churn"]["ops_per_s"] * 0.75,
    })
    _, failures = _check(tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("task_churn ops_per_s:")


def test_drop_within_bound_passes(tmp_path):
    _write_all(tmp_path, scale=0.85)
    assert _check(tmp_path)[1] == []


def test_faster_results_pass(tmp_path):
    _write_all(tmp_path, scale=3.0, observer_cost=1.2)
    assert _check(tmp_path)[1] == []


@pytest.mark.parametrize(
    "outcome", [{"correct": False}, {"failed": 7}], ids=["incorrect", "failed"]
)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_incorrect_or_failed_run_fails(tmp_path, outcome, traced):
    _write_all(tmp_path)
    metrics = (
        {"observe.listener_s": 2.0 / 200e3} if traced
        else {"sim_ips": 220e3, "ops_per_s": 1060.0}
    )
    _write(tmp_path, "syscall_mix", traced, metrics, **outcome)
    _, failures = _check(tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("syscall_mix")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workload_missing_from_results_fails(tmp_path, traced):
    _write_all(tmp_path)
    perf_gate.result_path(tmp_path, "syscall_mix", traced).unlink()
    _, failures = _check(tmp_path)
    assert len(failures) == 1
    assert "no result file" in failures[0]


def test_workload_missing_from_baseline_fails(tmp_path):
    _write_all(tmp_path)
    baseline = dict(BASELINE, workloads=dict(BASELINE["workloads"]))
    del baseline["workloads"]["pac_stream"]
    _, failures = _check(tmp_path, baseline)
    assert failures == ["pac_stream: missing from the baseline"]


def test_observer_cost_regression_beyond_bound_fails(tmp_path):
    _write_all(tmp_path, observer_cost=3.0 * 1.3)
    _, failures = _check(tmp_path)
    assert len(failures) == 1
    assert "observer cost" in failures[0]


def test_observer_cost_within_bound_passes(tmp_path):
    _write_all(tmp_path, observer_cost=3.0 * 1.2)
    assert _check(tmp_path)[1] == []


def test_main_exit_status(tmp_path, monkeypatch, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    monkeypatch.setattr(perf_gate, "BASELINE", baseline)
    monkeypatch.setattr(perf_gate, "RESULTS", tmp_path)
    _write_all(tmp_path)
    assert perf_gate.main([]) == 0
    _write_all(tmp_path, scale=0.5)
    assert perf_gate.main([]) == 1
    assert "perf gate: FAILED" in capsys.readouterr().out


def test_record_takes_the_median(tmp_path):
    runs = []
    for index, scale in enumerate((0.9, 1.0, 1.3)):
        directory = tmp_path / str(index)
        directory.mkdir()
        _write_all(directory, scale=scale, observer_cost=2.0 + index)
        runs.append(directory)
    baseline = perf_gate.record(runs)
    assert baseline["runs"] == 3
    assert baseline["python"] == "3.11.7"
    assert baseline["workloads"] == BASELINE["workloads"]
    assert baseline["observer_cost"] == pytest.approx(3.0)


def test_committed_baseline():
    baseline = json.loads(perf_gate.BASELINE.read_text())
    assert set(baseline["workloads"]) == set(perf_gate.WORKLOADS)
    for expected in baseline["workloads"].values():
        assert expected["correct"] is True
        assert expected["sim_ips"] > 0 and expected["ops_per_s"] > 0
    assert baseline["observer_cost"] > 1
    assert baseline["runs"] >= 5

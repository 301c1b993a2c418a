"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import catalog  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _worker(*arguments):
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _traced_layers(workload, *slow):
    arguments = ["--mode", "traced", "--workload", workload, "--seed", "1",
                 "--seconds", "1"]
    for item in slow:
        arguments += ["--slow", item]
    return _worker(*arguments)["traced"]["layers"]


@pytest.mark.parametrize(
    "workload, function, layer",
    [
        ("syscall_mix", "MMU.translate", "mem.mmu"),
        ("pac_stream", "Qarma64.encrypt", "qarma.qarma64"),
    ],
)
def test_slowed_layer_is_named(workload, function, layer):
    """A fixed extra cost in one layer's function shows up as that
    layer's self time, not as some other layer's."""
    before = _traced_layers(workload)
    after = _traced_layers(workload, f"{function}=40")
    assert layers.grown_layer(before, after) == layer


def test_unknown_slowed_function_is_refused():
    with pytest.raises(ValueError):
        layers.instrument(layers.LayerProfile(), {"MMU.no_such_function": 1e-6})


def test_wrapper_cost_is_taken_out():
    overhead = layers.calibrate(rounds=3, calls=5000)
    assert overhead["in_s"] >= 0 and overhead["out_s"] >= 0
    snapshot = {
        "self_s": {"a": 1.0},
        "entries": {"a": 10},
        "child_calls": {"a": 5},
    }
    cost = {"in_s": 0.01, "out_s": 0.02}
    assert layers.self_seconds(snapshot, cost) == {"a": pytest.approx(0.8)}


def _reference(outputs, period=1, periodic=(0, 1), expected=None):
    return {
        "outputs": outputs,
        "expected": expected or [{} for _ in outputs],
        "period": period,
        "periodic": list(periodic),
        "warmup": 1,
    }


def test_verify_flags_changed_outputs():
    reference = _reference([[5, 1], [7, 2], [7, 2]])
    assert run.verify({"outputs": [[5, 1], [7, 2], [7, 2]]}, reference) == []
    assert run.verify({"outputs": [[5, 1], [7, 3]]}, reference) == [1]
    # Past the reference's reach the period stands in for it.
    assert run.verify({"outputs": [[5, 1], [7, 2], [7, 2], [7, 2]]}, reference) == []
    assert run.verify({"outputs": [[5, 1], [7, 2], [7, 2], [8, 2]]}, reference) == [3]


def test_verify_checks_host_expectations():
    reference = _reference(
        [[1, 1, 40], [1, 1, 41]], periodic=(0, 1),
        expected=[{"2": 40}, {"2": 41}, {"2": 42}],
    )
    assert run.verify({"outputs": [[1, 1, 40], [1, 1, 41], [1, 1, 42]]}, reference) == []
    assert run.verify({"outputs": [[1, 1, 40], [1, 1, 41], [1, 1, 43]]}, reference) == [2]


def test_reference_must_repeat_with_its_period():
    reference = _reference([[5, 1], [7, 2], [7, 2], [7, 3]])
    assert run.check_reference(reference)
    assert not run.check_reference(_reference([[5, 1], [7, 2], [7, 2], [7, 2]]))


def test_reference_and_cached_runs_agree():
    """The cache-free reference path and the cached path produce the same
    outputs for every workload, and satisfy the host expectations."""
    for workload in catalog.WORKLOAD_NAMES:
        common = ["--workload", workload, "--seed", "3"]
        cached = _worker("--mode", "timed", *common, "--seconds", "0.3")
        units = max(len(cached["outputs"]), cached["warmup"] + 2 * cached["period"])
        reference = _worker(
            "--mode", "reference", *common, "--seconds", "60", "--units", str(units)
        )
        assert run.check_reference(reference) == []
        assert run.verify(cached, reference) == []


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOAD_NAMES)
    for section, table in (("end_to_end", catalog.END_TO_END),
                           ("per_layer", catalog.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == table


def test_catalog_names_every_workload():
    from workloads import WORKLOADS

    assert set(WORKLOADS) == set(catalog.WORKLOAD_NAMES)

#!/usr/bin/env python3
"""Gate perfbench results against the committed baseline.

    python3 perfbench/run.py --workload syscall_mix --seed 1 --seconds 5
    python3 perfbench/run.py --workload pac_stream --seed 1 --seconds 5
    python3 perfbench/run.py --workload task_churn --seed 1 --seconds 5
    python3 perfbench/run.py --workload syscall_mix --seed 1 --seconds 5 --trace 1
    python3 tools/perf_gate.py

Reads the result files those runs leave in ``perfbench/results/``, the
bounds in ``BENCHMARK.json`` and the baseline ``tools/perf_baseline.json``,
prints one line per check and exits 1 if any fails:

* every run is ``correct`` (each unit matched the cache-free reference
  path) with no failed operation;
* each workload's host-normalised ``sim_ips`` and ``ops_per_s`` are at
  least the baseline's times (1 - the metric's bound);
* the profiler's observer cost on the traced ``syscall_mix`` run,
  ``1 + observe.listener_s * sim_ips`` (raw, untraced), is at most the
  baseline's times (1 + :data:`OBSERVER_BOUND`).

``--record DIR [DIR ...]`` writes a new baseline instead: the median of
each figure over the result directories of repeated runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
BASELINE = ROOT / "tools" / "perf_baseline.json"
#: CI runs every workload with this seed.
SEED = 1
WORKLOADS = ("syscall_mix", "pac_stream", "task_churn")
#: End-to-end metrics gated on every workload, with BENCHMARK.json's bounds.
GATED = ("sim_ips", "ops_per_s")
#: The workload whose traced run gives the observer cost.
OBSERVED = "syscall_mix"
#: Allowed growth of the observer cost.
OBSERVER_BOUND = 0.25
#: The (workload, traced) runs the gate reads.
RUNS = [(name, False) for name in WORKLOADS] + [(OBSERVED, True)]


def result_path(results, workload, traced):
    return Path(results) / f"{workload}-seed{SEED}-trace{int(traced)}.json"


def load_result(results, workload, traced):
    """A perfbench result file as a dict, or None when it is missing."""
    path = result_path(results, workload, traced)
    return json.loads(path.read_text()) if path.is_file() else None


def observer_cost(traced):
    """Host time with the profiler attached over host time without it."""
    listener_s = traced["result"]["metrics"]["observe.listener_s"]["value"]
    return 1.0 + listener_s * traced["raw_end_to_end"]["sim_ips"]


def load_bounds():
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    return {e["name"]: e["bound"] for e in entries if e["name"] in GATED}


def check(results, baseline, bounds):
    """(passed, failures): one human-readable line per check."""
    passed, failures = [], []

    def verdict(ok, line):
        (passed if ok else failures).append(line)

    loaded = {}
    for name, traced in RUNS:
        label = f"{name}{' (traced)' if traced else ''}"
        result = load_result(results, name, traced)
        if result is None:
            path = result_path(results, name, traced)
            failures.append(f"{label}: no result file {path}")
            continue
        loaded[name, traced] = result
        outcome = result["result"]
        verdict(
            outcome["correct"] and outcome["failed"] == 0,
            f"{label}: correct={outcome['correct']} "
            f"failed={outcome['failed']}/{outcome['attempted']}",
        )

    for name in WORKLOADS:
        expected = baseline["workloads"].get(name)
        if expected is None:
            failures.append(f"{name}: missing from the baseline")
            continue
        result = loaded.get((name, False))
        if result is None:
            continue
        metrics = result["result"]["metrics"]
        for metric in GATED:
            if metric not in metrics:
                failures.append(f"{name} {metric}: missing from the result")
                continue
            value = metrics[metric]["value"]
            floor = expected[metric] * (1 - bounds[metric])
            verdict(
                value >= floor,
                f"{name} {metric}: {value:.6g} (baseline "
                f"{expected[metric]:.6g}, floor {floor:.6g})",
            )

    traced = loaded.get((OBSERVED, True))
    if traced is not None:
        cost = observer_cost(traced)
        ceiling = baseline["observer_cost"] * (1 + OBSERVER_BOUND)
        verdict(
            cost <= ceiling,
            f"{OBSERVED} observer cost: {cost:.3f}x (baseline "
            f"{baseline['observer_cost']:.3f}x, ceiling {ceiling:.3f}x)",
        )
    return passed, failures


def _median(label, values):
    """The median of ``values``, printed with their range."""
    middle = statistics.median(values)
    print(f"{label}: median {middle:.6g} min {min(values):.6g} "
          f"max {max(values):.6g}")
    return middle


def record(directories):
    """A baseline holding the median of each figure over ``directories``."""
    workloads, pythons = {}, set()
    for name, traced in RUNS:
        results = [load_result(d, name, traced) for d in directories]
        for directory, result in zip(directories, results):
            if result is None or not result["result"]["correct"]:
                raise SystemExit(f"{directory}: no correct {name} result")
            pythons.add(result["manifest"]["python"])
        if traced:
            costs = [observer_cost(r) for r in results]
            cost = _median(f"{OBSERVED} observer cost", costs)
            continue
        workloads[name] = {"correct": True}
        for metric in GATED:
            values = [r["result"]["metrics"][metric]["value"] for r in results]
            workloads[name][metric] = _median(f"{name} {metric}", values)
    return {
        "python": ", ".join(sorted(pythons)),
        "runs": len(directories),
        "workloads": workloads,
        "observer_cost": cost,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--record", nargs="+", metavar="DIR",
        help="write the baseline from these result directories and exit",
    )
    args = parser.parse_args(argv)

    if args.record:
        BASELINE.write_text(json.dumps(record(args.record), indent=1) + "\n")
        print(f"baseline written to {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    passed, failures = check(RESULTS, baseline, load_bounds())
    for line in passed:
        print(f"ok    {line}")
    for line in failures:
        print(f"FAIL  {line}")
    print(f"perf gate: {'FAILED' if failures else 'passed'} "
          f"({len(passed)} passed, {len(failures)} failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: seeded simulator workloads, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding the simulator sources in
``src/``.  With ``--trace 0`` it runs :data:`REPS` timed repetitions of
``S / REPS`` seconds, each in a fresh interpreter (``worker.py``), and
reports the end-to-end metrics: medians over the repetitions, batch
latencies pooled over them.  With ``--trace 1`` it runs one untraced and
one traced repetition of ``S / 2`` seconds and reports the per-layer
metrics of the traced one.  Either way it then runs the same seed on the
cache-free reference path and checks every unit's simulated outputs
against it.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with its run
manifest, goes to ``perfbench/results/``.  Exits 1 when any output
differs from the reference path or a repetition fails, 2 on bad usage or
missing simulator sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from catalog import END_TO_END, NAMED, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: Timed repetitions per untraced run.
REPS = 5
#: Wall-clock budget of a whole run; workers still running are killed.
BUDGET_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_worker(mode, args, seconds, deadline, extra=()):
    """Run one ``worker.py`` to completion; its JSON result, or an error."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        *extra,
    ]
    # A fixed hash seed keeps dict and set layout, and with it host
    # timing, the same from one repetition to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_DISABLE_CACHES", None)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"{mode} worker ran out of time"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {
            "mode": mode,
            "error": f"{mode} worker exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}",
        }
    return json.loads(lines[-1])


def _earlier_phase(index, length, period):
    """The unit before ``length`` that is ``index``'s phase of the period."""
    return index - period * -(-(index - length + 1) // period)


def verify(rep, reference):
    """Indices of ``rep``'s units whose outputs differ from the reference.

    A unit the reference ran is compared field by field.  Past its
    reach, the periodic fields are compared with the same phase of the
    period.  Host-computed expectations are checked for every unit.
    """
    ref = reference["outputs"]
    expected = reference["expected"]
    periodic = reference["periodic"]
    bad = []
    for index, outputs in enumerate(rep["outputs"]):
        if index < len(ref):
            ok = outputs == ref[index]
        else:
            same = ref[_earlier_phase(index, len(ref), reference["period"])]
            ok = all(outputs[field] == same[field] for field in periodic)
        want = expected[index] if index < len(expected) else {}
        if not ok or any(outputs[int(k)] != v for k, v in want.items()):
            bad.append(index)
    return bad


def check_reference(reference):
    """Problems with the reference run itself.

    Its units must repeat with the workload's period (which is what lets
    :func:`verify` check units past its reach) and match every
    host-computed expectation.
    """
    if reference.get("error"):
        return [f"reference run failed: {reference['error']}"]
    ref, period = reference["outputs"], reference["period"]
    first = reference["warmup"] + period
    if len(ref) < first + period:
        return [f"reference run too short: {len(ref)} units"]
    problems = []
    for index in range(first, len(ref)):
        previous = ref[index - period]
        if any(ref[index][f] != previous[f] for f in reference["periodic"]):
            problems.append(f"reference unit {index} breaks the period {period}")
    for index, outputs in enumerate(ref):
        for position, value in reference["expected"][index].items():
            if outputs[int(position)] != value:
                problems.append(
                    f"reference unit {index} output {position} is "
                    f"{outputs[int(position)]}, inputs imply {value}"
                )
    return problems


def end_to_end(reps, normalise=True):
    """End-to-end metrics of timed repetitions.

    With ``normalise``, every unit's time and the set-up time are scaled
    to the nominal host speed (see ``hostspeed.py``).
    """
    batches, rates, setups = [], [], []
    for rep in reps:
        scale = (
            hostspeed.factors(rep["unit_rates"])
            if normalise else [1.0] * len(rep["unit_seconds"])
        )
        times = [seconds * f for seconds, f in zip(rep["unit_seconds"], scale)]
        batches += times
        rates.append((sum(rep["unit_retired"]), rep["ops"], sum(times)))
        setup_scale = hostspeed.scale(rep["setup_rate"]) if normalise else 1.0
        setups.append(rep["setup_s"] * setup_scale)
    return {
        "sim_ips": statistics.median(insns / time for insns, _, time in rates),
        "ops_per_s": statistics.median(ops / time for _, ops, time in rates),
        "batch_ms_p50": 1e3 * statistics.median(batches),
        "batch_ms_p90": 1e3 * statistics.quantiles(batches, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rep["setup_rss_mb"] for rep in reps),
    }


def git_revision():
    """HEAD's commit read from ``.git``; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = started + BUDGET_S
    if args.trace:
        plan = [("timed", args.seconds / 2), ("traced", args.seconds / 2)]
    else:
        plan = [("timed", args.seconds / REPS)] * REPS
    reps = [run_worker(mode, args, seconds, deadline) for mode, seconds in plan]

    shape = next((rep for rep in reps if "period" in rep), {})
    units = max(
        [len(rep.get("outputs", ())) for rep in reps]
        + [shape.get("warmup", 0) + 2 * shape.get("period", 1)]
    )
    reference = run_worker(
        "reference", args, args.seconds, deadline, ("--units", str(units))
    )
    problems = check_reference(reference)
    reference_ok = not problems

    attempted = failed = 0
    for rep in reps:
        if "outputs" not in rep:
            attempted, failed = attempted + 1, failed + 1
            problems.append(rep["error"])
            continue
        unit_ops = rep["unit_ops"]
        checked = len(rep["outputs"])
        bad = verify(rep, reference) if reference_ok else range(checked)
        attempted += unit_ops * checked
        failed += unit_ops * len(bad)
        if bad:
            problems.append(
                f"{rep['mode']} run: {len(bad)} of {checked} units differ "
                f"from the reference path (first: unit {bad[0]})"
            )
        if rep["error"]:
            attempted, failed = attempted + unit_ops, failed + unit_ops
            problems.append(f"{rep['mode']} run failed: {rep['error']}")

    timed = [rep for rep in reps if rep.get("mode") == "timed" and "ops" in rep]
    traced = next((rep for rep in reps if "traced" in rep), None)
    metrics, raw, catalog = {}, {}, END_TO_END
    if timed:
        metrics, raw = end_to_end(timed), end_to_end(timed, normalise=False)
    trace_overhead = None
    if args.trace:
        catalog = PER_LAYER
        if timed and traced is not None:
            trace_overhead = metrics["sim_ips"] / end_to_end([traced])["sim_ips"]
            metrics = dict(traced["traced"]["metrics"], trace_overhead=trace_overhead)
        else:
            metrics = {}
    if len(metrics) != len(catalog):
        problems.append("no metrics: a repetition failed")
        metrics = {}
    correct = not problems and failed == 0

    error_rate = failed / attempted if attempted else 1.0
    named = {}
    if timed and not args.trace:
        rate_name, latency_name = NAMED[timed[0]["op"]]
        named[rate_name] = metrics.get("ops_per_s")
        if latency_name:
            named[f"{latency_name}_p50"] = metrics.get("batch_ms_p50")
            named[f"{latency_name}_p90"] = metrics.get("batch_ms_p90")
    samples = sum(len(rep["unit_seconds"]) for rep in timed)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "repetitions": len(plan),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "hotpath": shape.get("hotpath"),
        "trace_overhead": trace_overhead,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": catalog[name][0]}
            for name, value in metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {
            "manifest": manifest,
            "result": result,
            "error_rate": error_rate,
            "raw_end_to_end": raw,
            "batch_samples": samples,
            "named": named,
            "problems": problems,
            "repetitions": reps,
            "reference": reference,
        },
        indent=1,
    ))

    for name, entry in result["metrics"].items():
        print(f"{name:34} {entry['value']:.6g} {entry['unit']}")
    for name, value in named.items():
        if value is not None:
            print(f"{name:34} {value:.6g}")
    for name, value in raw.items():
        print(f"{'raw ' + name:34} {value:.6g} (not host-normalised)")
    print(f"{'error_rate':34} {error_rate:.6g} ({failed}/{attempted} ops)")
    if not args.trace:
        print(f"{'batch_samples':34} {samples}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

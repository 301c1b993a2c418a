"""One benchmark repetition, in a fresh interpreter.

``run.py`` starts one worker per repetition, so module-level memos (the
QARMA tweak schedules), ``repro.hotpath`` flags and the global tracer
never carry over from one repetition to the next.  The worker prints one
JSON object as the last line of its standard output.

Modes:

* ``timed``      set up, then run units for ``--seconds``, untraced;
* ``traced``     the same with every layer wrapped (see ``layers.py``);
* ``reference``  the same seed built and run inside
  ``repro.hotpath.disabled_caches()`` for ``--units`` units (or
  ``--seconds``, if that ends first): the outputs the other modes must
  reproduce bit for bit.

Run directly for one repetition, e.g.::

    python3 perfbench/worker.py --mode traced --workload pac_stream \\
        --seed 1 --seconds 2 --slow Qarma64.encrypt=50
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402

hostspeed.rate()  # warm the calibration slice up
#: Host speed as set-up starts (see hostspeed.py).
START_RATE = hostspeed.rate()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

#: Units run with a profiler attached, after the traced timed region,
#: to price the observe layer.
PROBE_UNITS = 2
#: Cold QARMA-64 encryptions timed for ``qarma.cold_encrypt_us``.
COLD_ENCRYPTS = 200

_clock = time.perf_counter


def run_units(workload, first, seconds, stop=None, calibrate=False):
    """Run units ``first``, ``first + 1``, ... until ``seconds`` have
    passed (at least one unit runs) or unit ``stop`` is reached.

    With ``calibrate``, a host-speed calibration slice follows every
    unit, outside the unit's own time.
    """
    cpu = workload.system.cpu
    outputs, durations, retired, rates = [], [], [], []
    ops, error = 0, None
    last = _clock()
    deadline = last + seconds
    index = first
    while (stop is None or index < stop) and (index == first or last < deadline):
        if workload.spans is not None:
            workload.spans.unit = index
        before = cpu.instructions_retired
        try:
            count, out = workload.unit(index)
        except Exception:  # a failed unit is reported, not fatal
            error = f"unit {index}: {traceback.format_exc()}"
            break
        now = _clock()
        durations.append(now - last)
        retired.append(cpu.instructions_retired - before)
        outputs.append(list(out))
        ops += count
        index += 1
        if calibrate:
            rates.append(hostspeed.calibration_slice())
            now = _clock()
        last = now
    return {
        "outputs": outputs,
        "durations": durations,
        "retired": retired,
        "rates": rates,
        "ops": ops,
        "elapsed": sum(durations),
        "error": error,
    }


def cache_counters(system):
    """Host-cache counters, read from outside the simulator's code."""
    cpu = system.cpu
    ciphers = list(cpu.pac._cipher_cache.values())
    return {
        "decode": cpu.decode_stats.to_dict(),
        "pac": cpu.pac.cache_stats.to_dict(),
        "qarma_memo": {
            "hits": sum(cipher.memo_stats.hits for cipher in ciphers),
            "misses": sum(cipher.memo_stats.misses for cipher in ciphers),
        },
    }


def _delta(after, before):
    return {
        name: {key: value - before[name][key] for key, value in table.items()}
        for name, table in after.items()
    }


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _hit_ratio(stats):
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def cold_encrypt_us(encrypt, seed):
    """Median microseconds of one QARMA-64 encryption missing every memo."""
    from repro.qarma import Qarma64

    rng = random.Random(f"cold-encrypt:{seed}")
    cipher = Qarma64(w0=rng.getrandbits(64), k0=rng.getrandbits(64))
    samples = []
    for _ in range(COLD_ENCRYPTS):
        plaintext, tweak = rng.getrandbits(64), rng.getrandbits(64)
        start = _clock()
        encrypt(cipher, plaintext, tweak)
        samples.append(_clock() - start)
    return 1e6 * statistics.median(samples)


def layer_metrics(snapshot, probe, overhead, ops, retired, probe_retired,
                  caches, span_totals, cold_us):
    """The per-layer metrics of ``catalog.PER_LAYER`` but trace_overhead."""
    import layers

    calls = snapshot["calls"]
    selfs = layers.self_seconds(snapshot, overhead)
    probe_selfs = layers.self_seconds(probe, overhead)

    def called(*keys):
        return sum(calls.get(key, 0) for key in keys)

    def per_op(value):
        return value / ops

    def per_insn(value):
        return value / retired if retired else 0.0

    def span_mean(name):
        count, seconds = span_totals.get(name, (0, 0.0))
        return seconds / count if count else 0.0

    translates = called("MMU.translate")
    executes = sum(v for k, v in calls.items() if k.endswith(".execute"))
    return {
        "arch.cpu.step_calls": per_op(called("CPU.step")),
        "arch.cpu.self_s": per_op(selfs["arch.cpu"]),
        "arch.cpu.decode_hit_ratio": _hit_ratio(caches["decode"]),
        "arch.cpu.decode_flushes": per_op(caches["decode"]["flushes"]),
        "arch.isa.execute_calls": per_op(executes),
        "arch.isa.self_s": per_op(selfs["arch.isa"]),
        "arch.registers.calls_per_insn": per_insn(
            snapshot["entries"]["arch.registers"]
        ),
        "arch.registers.self_s": per_op(selfs["arch.registers"]),
        "mem.mmu.translate_calls_per_insn": per_insn(translates),
        # The translation cache has no counters: every miss walks the
        # stage-1 table exactly once.
        "mem.mmu.translate_hit_ratio": (
            1 - called("Stage1Table.lookup") / translates if translates else 0.0
        ),
        "mem.mmu.fetch_calls": per_op(called("MMU.fetch")),
        "mem.mmu.self_s": per_op(selfs["mem.mmu"]),
        "mem.phys.read_calls": per_op(called("PhysicalMemory.read")),
        "mem.phys.write_calls": per_op(called("PhysicalMemory.write")),
        "mem.phys.bytes": per_op(sum(snapshot["bytes"].values())),
        "mem.phys.code_writes": per_op(called("PhysicalMemory.store_instruction")),
        "mem.phys.self_s": per_op(selfs["mem.phys"]),
        "mem.pagetable.lookups": per_op(called("Stage1Table.lookup")),
        "mem.pagetable.mutations": per_op(
            called("Stage1Table.map_page", "Stage1Table.unmap_page")
        ),
        "arch.pac.ops": per_op(called("PACEngine.add_pac", "PACEngine.auth_pac")),
        "arch.pac.self_s": per_op(selfs["arch.pac"]),
        "arch.pac.hit_ratio": _hit_ratio(caches["pac"]),
        "arch.pac.flushes": per_op(caches["pac"]["flushes"]),
        "arch.pac.key_writes": per_op(called("PACEngine.note_key_write")),
        "qarma.encrypt_calls": per_op(called("Qarma64.encrypt")),
        "qarma.memo_hit_ratio": _hit_ratio(caches["qarma_memo"]),
        "qarma.cold_encrypt_us": cold_us,
        "qarma.self_s": per_op(selfs["qarma.qarma64"]),
        "kernel.spawn_s": span_mean("spawn_process"),
        "kernel.load_program_s": span_mean("load_user_program"),
        "kernel.switch_s": span_mean("switch_to"),
        "kernel.exceptions": per_op(called("CPU.take_exception")),
        "kernel.msr_writes": per_op(called("CPU.write_sysreg_checked")),
        "kernel.self_s": per_op(selfs["kernel"]),
        "observe.listener_s": probe_selfs["observe"] / probe_retired,
        "observe.events": probe["calls"].get("Tracer.emit", 0) / probe_retired,
    }


def traced_report(workload, profile, snapshot, timed, retired, caches):
    """Per-layer figures of a traced run, plus its spans."""
    import layers

    cpu = workload.system.cpu
    before, start_retired = profile.snapshot(), cpu.instructions_retired
    first = workload.warmup + len(timed["outputs"])
    workload.attach_profiler()
    run_units(workload, first, float("inf"), first + PROBE_UNITS)
    workload.detach_profiler()
    probe = layers.subtract(profile.snapshot(), before)
    probe_retired = cpu.instructions_retired - start_retired
    overhead = layers.calibrate()
    cold_us = cold_encrypt_us(profile.originals["Qarma64.encrypt"], workload.seed)
    return {
        "overhead": overhead,
        "metrics": layer_metrics(
            snapshot, probe, overhead, timed["ops"], retired, probe_retired,
            caches, profile.span_totals, cold_us,
        ),
        "layers": layers.layer_table(snapshot, overhead, timed["ops"]),
        "calls": snapshot["calls"],
        "span_totals": profile.span_totals,
        "spans": profile.spans,
    }


def measure(args, workload, profile):
    workload.setup()
    warm = run_units(workload, 0, float("inf"), workload.warmup)
    result = {
        "mode": args.mode,
        "workload": workload.name,
        "seed": args.seed,
        "op": workload.op,
        "unit_ops": workload.unit_ops,
        "warmup": workload.warmup,
        "period": workload.period,
        "periodic": list(workload.periodic),
        "python": platform.python_version(),
        "outputs": warm["outputs"],
        "error": warm["error"],
    }
    if warm["error"] is not None:
        return result
    result["setup_s"] = _clock() - STARTED
    result["setup_rate"] = (START_RATE + hostspeed.rate()) / 2
    # Peak RSS through set-up and warm-up, a fixed amount of work.  The
    # end-of-run peak also grows with the number of units a repetition
    # got through (task_churn keeps every task), i.e. with host speed.
    result["setup_rss_mb"] = _rss_mb()
    cpu = workload.system.cpu
    counters = cache_counters(workload.system)
    retired, cycles = cpu.instructions_retired, cpu.cycles
    if profile is not None:
        profile.reset()
    timed = run_units(
        workload, workload.warmup, args.seconds, args.units,
        calibrate=args.mode != "reference",
    )
    snapshot = profile.snapshot() if profile is not None else None
    retired = cpu.instructions_retired - retired
    caches = _delta(cache_counters(workload.system), counters)
    result.update(
        elapsed_s=timed["elapsed"],
        ops=timed["ops"],
        retired=retired,
        cycles=cpu.cycles - cycles,
        unit_seconds=timed["durations"],
        unit_retired=timed["retired"],
        unit_rates=timed["rates"],
        outputs=warm["outputs"] + timed["outputs"],
        error=timed["error"],
        caches=caches,
    )
    if args.mode == "reference":
        units = max(args.units or 0, len(result["outputs"]))
        result["expected"] = [workload.expected(index) for index in range(units)]
    if profile is not None and timed["error"] is None:
        result["traced"] = traced_report(
            workload, profile, snapshot, timed, retired, caches
        )
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description="One benchmark repetition.")
    parser.add_argument(
        "--mode", choices=("timed", "traced", "reference"), required=True
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--units", type=int, default=None,
        help="stop after this many units, warm-up included",
    )
    parser.add_argument(
        "--slow", action="append", default=[], metavar="CLASS.ATTR=US",
        help="traced mode: add US microseconds to every call of a wrapped "
        "function (repeatable)",
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    profile = None
    if args.mode == "traced":
        import layers

        profile = layers.LayerProfile()
        slow = {}
        for item in args.slow:
            key, _, micros = item.partition("=")
            slow[key] = float(micros) / 1e6
        layers.instrument(profile, slow)
    from repro import hotpath
    from workloads import WORKLOADS

    caches = (
        hotpath.disabled_caches()
        if args.mode == "reference"
        else contextlib.nullcontext()
    )
    with caches:
        result = measure(args, WORKLOADS[args.workload](args.seed, profile), profile)
        result["hotpath"] = hotpath.snapshot()
    result["peak_rss_mb"] = _rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

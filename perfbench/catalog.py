"""Workload names and metric catalogue: metric name -> (unit, better).

``BENCHMARK.json`` lists the same workloads and metrics; the benchmark's
own tests keep the two in step.

End-to-end metrics are host-side and reported on every workload (one
"op" is the workload's unit of work: a syscall round trip on
``syscall_mix``, one PAC sign or authenticate on
``pac_stream``, one task lifecycle on ``task_churn``; one "batch" is one
host call into the simulator, and on ``task_churn`` one lifecycle).
Per-layer metrics come from the traced run; counts are per op or per
retired instruction so that they do not depend on run length.
"""

WORKLOAD_NAMES = ("syscall_mix", "pac_stream", "task_churn")

END_TO_END = {
    "sim_ips": ("insn/s", "higher"),
    "ops_per_s": ("op/s", "higher"),
    "batch_ms_p50": ("ms", "lower"),
    "batch_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "arch.cpu.step_calls": ("1/op", "lower"),
    "arch.cpu.self_s": ("s/op", "lower"),
    "arch.cpu.decode_hit_ratio": ("ratio", "higher"),
    "arch.cpu.decode_flushes": ("1/op", "lower"),
    "arch.isa.execute_calls": ("1/op", "lower"),
    "arch.isa.self_s": ("s/op", "lower"),
    "arch.registers.calls_per_insn": ("1/insn", "lower"),
    "arch.registers.self_s": ("s/op", "lower"),
    "mem.mmu.translate_calls_per_insn": ("1/insn", "lower"),
    "mem.mmu.translate_hit_ratio": ("ratio", "higher"),
    "mem.mmu.fetch_calls": ("1/op", "lower"),
    "mem.mmu.self_s": ("s/op", "lower"),
    "mem.phys.read_calls": ("1/op", "lower"),
    "mem.phys.write_calls": ("1/op", "lower"),
    "mem.phys.bytes": ("B/op", "lower"),
    "mem.phys.code_writes": ("1/op", "lower"),
    "mem.phys.self_s": ("s/op", "lower"),
    "mem.pagetable.lookups": ("1/op", "lower"),
    "mem.pagetable.mutations": ("1/op", "lower"),
    "arch.pac.ops": ("1/op", "lower"),
    "arch.pac.self_s": ("s/op", "lower"),
    "arch.pac.hit_ratio": ("ratio", "higher"),
    "arch.pac.flushes": ("1/op", "lower"),
    "arch.pac.key_writes": ("1/op", "lower"),
    "qarma.encrypt_calls": ("1/op", "lower"),
    "qarma.memo_hit_ratio": ("ratio", "higher"),
    "qarma.cold_encrypt_us": ("us", "lower"),
    "qarma.self_s": ("s/op", "lower"),
    "kernel.spawn_s": ("s", "lower"),
    "kernel.load_program_s": ("s", "lower"),
    "kernel.switch_s": ("s", "lower"),
    "kernel.exceptions": ("1/op", "lower"),
    "kernel.msr_writes": ("1/op", "lower"),
    "kernel.self_s": ("s/op", "lower"),
    "observe.listener_s": ("s/insn", "lower"),
    "observe.events": ("1/insn", "lower"),
    "trace_overhead": ("x", "lower"),
}

#: The workload-specific names for ``ops_per_s`` and the batch latency.
NAMED = {
    "syscall": ("syscalls_per_s", None),
    "pac_op": ("pac_ops_per_s", None),
    "task": ("tasks_per_s", "task_ms"),
}

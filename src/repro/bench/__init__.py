"""Benchmark harness: experiment runners and table rendering."""

from collections import namedtuple
from functools import partial

from repro.bench.ablations import (
    run_canary_ablation,
    run_ctx_switch,
    run_hardened_abi,
    run_frame_mac_ablation,
    run_irq_overhead,
    run_key_mgmt_ablation,
    run_pac_size_sweep,
)
from repro.bench.experiments import (
    run_bruteforce,
    run_compat,
    run_fig2,
    run_fig3,
    run_fig4,
    run_gadget_census,
    run_key_switch,
    run_replay_matrix,
    run_security_matrix,
    run_survey,
    run_vmsa_tables,
)
from repro.bench.harness import ExperimentRecord, ns_from_cycles
from repro.bench.injection import run_injection_matrix


#: ``run()`` returns the experiment's ExperimentRecord; ``note``
#: explains its measured line where that needs explaining.
Experiment = namedtuple("Experiment", "id run note", defaults=("",))


#: Every experiment, in EXPERIMENTS.md order, with the parameters its
#: committed record was measured at.  The ``experiments`` command,
#: ``tools/generate_experiments_md.py`` and ``benchmarks/`` all run
#: this table.
EXPERIMENTS = (
    Experiment("E1", partial(run_fig2, iterations=200)),
    Experiment(
        "E2",
        partial(run_fig3, iterations=20),
        "relative latencies; the call-dense select row pays the most, "
        "matching the paper's explanation that syscall paths have a "
        "high rate of function calls to computation",
    ),
    Experiment("E3", partial(run_fig4, iterations=10)),
    Experiment(
        "E4",
        partial(run_key_switch, iterations=40),
        "isolated as the marginal null-syscall cost between the 1-key "
        "and 3-key builds over two extra keys x two switch directions; "
        "paper measured 8.88 avg",
    ),
    Experiment("E5", run_survey),
    Experiment("E6+E10", run_security_matrix),
    Experiment("E6b", run_replay_matrix),
    Experiment("E7", run_bruteforce),
    Experiment("E8+E9", run_vmsa_tables),
    Experiment("E11", partial(run_compat, iterations=100)),
    Experiment("E17", run_injection_matrix),
    Experiment(
        "E18",
        run_gadget_census,
        "the compat build keeps its terminator count: the HINT-space "
        "X17 shuttle re-opens a one-instruction window after each "
        "AUTIB1716, the residual §5.5 explicitly trades for ARMv8.0 "
        "binary compatibility",
    ),
    Experiment("A1", run_key_mgmt_ablation),
    Experiment("A2", run_frame_mac_ablation),
    Experiment("A3", run_irq_overhead),
    Experiment("A4", run_ctx_switch),
    Experiment("A5", run_pac_size_sweep),
    Experiment("A6", run_hardened_abi),
    Experiment("A7", run_canary_ablation),
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_key_mgmt_ablation",
    "run_frame_mac_ablation",
    "run_irq_overhead",
    "run_ctx_switch",
    "run_pac_size_sweep",
    "run_hardened_abi",
    "run_canary_ablation",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_gadget_census",
    "run_key_switch",
    "run_survey",
    "run_security_matrix",
    "run_replay_matrix",
    "run_bruteforce",
    "run_vmsa_tables",
    "run_compat",
    "run_injection_matrix",
    "ExperimentRecord",
    "ns_from_cycles",
]

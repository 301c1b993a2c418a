"""Benchmark harness: experiment runners and table rendering."""

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
from repro.bench.harness import ExperimentRecord, TextTable, ns_from_cycles
from repro.bench.injection import run_injection_matrix

__all__ = [
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
    "TextTable",
    "ns_from_cycles",
]

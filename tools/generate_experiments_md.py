#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment.

Usage: python tools/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys

from repro.bench import (
    run_bruteforce,
    run_canary_ablation,
    run_ctx_switch,
    run_frame_mac_ablation,
    run_irq_overhead,
    run_hardened_abi,
    run_key_mgmt_ablation,
    run_pac_size_sweep,
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
from repro.inject import render_profile_table

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *Camouflage: Hardware-assisted CFI for the
ARM Linux kernel* (DAC 2020), regenerated on the simulation substrate
described in DESIGN.md.  This file is produced by
`python tools/generate_experiments_md.py`; the same experiments run
under pytest-benchmark via `pytest benchmarks/ --benchmark-only`.

Absolute cycle counts come from the simulator's Cortex-A53-like cost
model (PA-analogue: 4 cycles per PAuth instruction, 1.2 GHz clock); the
reproduction target is the *shape* of each result — orderings, ratios
and crossovers — not the authors' testbed numbers.

"""


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    sections = []
    records = []

    def add(record, note=""):
        records.append(record)
        block = [f"## {record.experiment_id}", ""]
        status = "**REPRODUCED**" if record.reproduced else "**DIVERGED**"
        block.append(f"- status: {status}")
        block.append(f"- paper claim: {record.paper_claim}")
        block.append(f"- measured: {record.measured}")
        if note:
            block.append(f"- note: {note}")
        block.append("")
        for table in record.tables:
            block.append("```")
            block.append(table.render())
            block.append("```")
            block.append("")
        sections.append("\n".join(block))

    print("running E1 (Figure 2)...")
    add(run_fig2(iterations=200))
    print("running E2 (Figure 3)...")
    add(
        run_fig3(iterations=20),
        note=(
            "relative latencies; the call-dense select row pays the "
            "most, matching the paper's explanation that syscall "
            "paths have a high rate of function calls to computation"
        ),
    )
    print("running E3 (Figure 4)...")
    add(run_fig4(iterations=10))
    print("running E4 (key switch)...")
    add(
        run_key_switch(iterations=40),
        note=(
            "isolated as the marginal null-syscall cost between the "
            "1-key and 3-key builds over two extra keys x two switch "
            "directions; paper measured 8.88 avg"
        ),
    )
    print("running E5 (survey)...")
    add(run_survey())
    print("running E6/E10 (security matrix)...")
    record, matrices = run_security_matrix()
    add(record)
    sections.append("```\n" + render_profile_table(matrices) + "\n```\n")
    print("running E6b (replay windows)...")
    add(run_replay_matrix())
    print("running E7 (brute force)...")
    add(run_bruteforce())
    print("running E8/E9 (VMSA tables)...")
    add(run_vmsa_tables())
    print("running E11 (compat)...")
    add(run_compat(iterations=100))
    print("running E18 (gadget census)...")
    add(
        run_gadget_census(),
        note=(
            "the compat build keeps its terminator count: the "
            "HINT-space X17 shuttle re-opens a one-instruction window "
            "after each AUTIB1716, the residual §5.5 explicitly "
            "trades for ARMv8.0 binary compatibility"
        ),
    )
    sections.append(
        "# Ablations — beyond the published tables\n\n"
        "The remaining experiments quantify arguments the paper makes "
        "in prose and the Section 8 future-work extension implemented "
        "by this reproduction.\n"
    )
    print("running A1 (key management ablation)...")
    add(run_key_mgmt_ablation())
    print("running A2 (frame MAC)...")
    add(run_frame_mac_ablation())
    print("running A3 (interrupt path)...")
    add(run_irq_overhead())
    print("running A4 (context switch)...")
    add(run_ctx_switch())
    print("running A5 (PAC sweep)...")
    add(run_pac_size_sweep())
    print("running A6 (hardened ABI)...")
    add(run_hardened_abi())
    print("running A7 (PACed canaries)...")
    add(run_canary_ablation())

    reproduced = sum(1 for r in records if r.reproduced)
    summary = (
        f"**Summary: {reproduced}/{len(records)} experiments "
        f"reproduced.**\n\n"
    )
    with open(out_path, "w") as handle:
        handle.write(HEADER)
        handle.write(summary)
        handle.write("\n".join(sections))
    print(f"wrote {out_path}: {reproduced}/{len(records)} reproduced")
    return 0 if reproduced == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment.

Usage: python tools/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys

from repro.bench import EXPERIMENTS

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


ABLATIONS = (
    "# Ablations — beyond the published tables\n\n"
    "The remaining experiments quantify arguments the paper makes in "
    "prose and the Section 8 future-work extension implemented by this "
    "reproduction.\n"
)


def render(record, note=""):
    """One ``## <experiment id>`` section of EXPERIMENTS.md."""
    status = "**REPRODUCED**" if record.reproduced else "**DIVERGED**"
    block = [
        f"## {record.experiment_id}",
        "",
        f"- status: {status}",
        f"- paper claim: {record.paper_claim}",
        f"- measured: {record.measured}",
    ]
    if note:
        block.append(f"- note: {note}")
    block.append("")
    for table in record.tables:
        block += ["```", table.render(), "```", ""]
    return "\n".join(block)


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    first_ablation = next(e.id for e in EXPERIMENTS if e.id.startswith("A"))
    sections = []
    reproduced = 0
    for experiment in EXPERIMENTS:
        if experiment.id == first_ablation:
            sections.append(ABLATIONS)
        print(f"running {experiment.id}...")
        record = experiment.run()
        reproduced += record.reproduced
        sections.append(render(record, experiment.note))
    total = len(EXPERIMENTS)
    summary = f"**Summary: {reproduced}/{total} experiments reproduced.**"
    with open(out_path, "w") as handle:
        handle.write(HEADER)
        handle.write(summary + "\n\n")
        handle.write("\n".join(sections))
    print(f"wrote {out_path}: {reproduced}/{total} reproduced")
    return 0 if reproduced == total else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shared benchmark plumbing: units and experiment records.

Every experiment returns an :class:`ExperimentRecord` whose tables are
:class:`~repro.trace.report.TextTable` objects, so the regenerated
tables/figures all read the same way and can be pasted into
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpu import CYCLES_PER_SECOND

__all__ = ["ns_from_cycles", "ExperimentRecord"]


def ns_from_cycles(cycles):
    """Convert simulated cycles to nanoseconds at the platform clock."""
    return cycles / (CYCLES_PER_SECOND / 1e9)


@dataclass
class ExperimentRecord:
    """Structured result of one experiment (id, claim, measurement)."""

    experiment_id: str
    paper_claim: str
    measured: str
    reproduced: bool
    tables: list = field(default_factory=list)

    def summary(self):
        status = "REPRODUCED" if self.reproduced else "DIVERGED"
        return (
            f"[{status}] {self.experiment_id}\n"
            f"  paper:    {self.paper_claim}\n"
            f"  measured: {self.measured}"
        )

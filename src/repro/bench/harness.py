"""Shared benchmark plumbing: tables, units, experiment records.

Every experiment renders its results through this module so the
regenerated tables/figures all read the same way and can be pasted into
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.cpu import CYCLES_PER_SECOND

__all__ = ["ns_from_cycles", "TextTable", "ExperimentRecord"]


def ns_from_cycles(cycles):
    """Convert simulated cycles to nanoseconds at the platform clock."""
    return cycles / (CYCLES_PER_SECOND / 1e9)


class TextTable:
    """Fixed-width text table with a title (one per paper artifact)."""

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows = []

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append([self._fmt(v) for v in values])
        return self

    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    def render(self):
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

        out = [self.title, "=" * len(self.title), line(self.columns)]
        out.append("-" * len(out[-1]))
        out.extend(line(r) for r in self.rows)
        return "\n".join(out)

    def print(self):
        print()
        print(self.render())
        print()
        return self


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

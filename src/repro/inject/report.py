"""Rendering detection matrices (text tables for the CLI and docs)."""

from __future__ import annotations

from repro.inject.scenarios import SCENARIOS
from repro.trace.report import TextTable

__all__ = [
    "profile_rows",
    "render_matrix",
    "render_profile_table",
    "render_site_listing",
]


def _clip(text, width=52):
    text = " ".join(str(text).split())
    return text if len(text) <= width else text[: width - 1] + "…"


def render_matrix(matrix):
    """One campaign's detection matrix as one printable string."""
    table = TextTable(
        f"Injection detection matrix "
        f"(profile={matrix.profile}, seed={matrix.seed:#x}, "
        f"invariants={'on' if matrix.invariants else 'off'})",
        ["site", "trial", "outcome", "detected by", "detail"],
    )
    for result in matrix.results:
        table.add_row(
            result.site,
            result.trial,
            result.outcome,
            result.detected_by or "-",
            _clip(result.detail),
        )
    summary = (
        f"{matrix.injected} injected: {matrix.detected} detected, "
        f"{matrix.blocked} blocked, {matrix.escaped} escaped "
        f"({matrix.skipped} skipped)"
    )
    return table.render() + "\n\n" + summary


def profile_rows(matrices):
    """``(scenario, [cell per matrix])`` rows across per-profile
    matrices, in scenario order.  A cell is the scenario's outcome; if
    its trials disagree, their distinct outcomes joined by ``/``."""
    cells = {}
    for column, matrix in enumerate(matrices):
        for result in matrix.results:
            row = cells.setdefault(result.site, [[] for _ in matrices])
            if result.outcome not in row[column]:
                row[column].append(result.outcome)
    return [
        (name, ["/".join(cell) or "-" for cell in row])
        for name, row in cells.items()
    ]


def render_profile_table(matrices):
    """The cross-profile outcome table: one column per matrix."""
    rows = profile_rows(matrices)
    width = max(len(name) for name, _ in rows) + 2
    header = "attack".ljust(width) + "".join(
        m.profile.rjust(12) for m in matrices
    )
    lines = [header, "-" * len(header)]
    for name, row in rows:
        lines.append(name.ljust(width) + "".join(c.rjust(12) for c in row))
    return "\n".join(lines)


def render_site_listing():
    """Every scenario, for ``inject --list``."""
    table = TextTable(
        "Adversarial scenarios",
        ["site", "requires", "expected", "invariants-only", "residual",
         "description"],
    )
    for scenario in SCENARIOS:
        table.add_row(
            scenario.name,
            "+".join(scenario.requires) or "-",
            "+".join(scenario.expected),
            "yes" if scenario.needs_invariants else "no",
            "yes" if scenario.residual else "no",
            _clip(scenario.description, 60),
        )
    return table.render()

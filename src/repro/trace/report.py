"""Human-readable rendering of a trace: summary and mix tables.

Kept separate from :mod:`repro.trace.tracer` so the tracer core stays
free of benchmark-layer imports (the tables reuse the bench harness's
:class:`~repro.bench.harness.TextTable` renderer, which the rest of the
evaluation artifacts already use).
"""

from __future__ import annotations

from repro.bench.harness import TextTable
from repro.trace import events as ev

__all__ = ["summary_table", "instruction_mix_table", "render_summary"]


def _layer(kind):
    if kind in ev.KERNEL_EVENTS:
        return "kernel"
    if kind in ev.ARCH_EVENTS:
        return "arch"
    return "other"


def summary_table(tracer, title="Trace summary", top=None):
    """Per-event-kind counts and cycle statistics as a TextTable.

    ``top`` switches from the canonical event ordering to a
    cycles-consumed ranking and keeps only the ``top`` hottest kinds.
    """
    table = TextTable(
        title, ["event", "layer", "count", "cycles", "min", "avg", "max"]
    )
    ordering = {kind: index for index, kind in enumerate(ev.ALL_EVENTS)}
    stats = tracer.stats
    kinds = sorted(stats, key=lambda k: (ordering.get(k, 99), k))
    if top is not None:
        kinds = sorted(kinds, key=lambda k: (-stats[k].total, k))[:top]
        table.title = f"{title} (top {top} by cycles)"
    for kind in kinds:
        # Every recorded kind has at least one event, so min/max are set.
        row = stats[kind]
        table.add_row(
            kind, _layer(kind), row.count, row.total, row.min, row.mean,
            row.max,
        )
    return table

def instruction_mix_table(tracer, title="Instruction mix", top=12):
    """The ``top`` mnemonics by cycles consumed."""
    table = TextTable(title, ["mnemonic", "count", "cycles", "share"])
    ranked = sorted(
        tracer.insn_mix.items(), key=lambda item: -item[1][1]
    )
    total = sum(cycles for _, (_, cycles) in tracer.insn_mix.items()) or 1
    for mnemonic, (count, cycles) in ranked[:top]:
        table.add_row(mnemonic, count, cycles, f"{100.0 * cycles / total:.1f}%")
    return table


def render_summary(tracer, top=None):
    """Both tables plus the drop note, as one printable string.

    ``top`` ranks both tables by cycles and truncates them to N rows.
    """
    parts = [summary_table(tracer, top=top).render()]
    if tracer.insn_mix:
        parts.append(
            instruction_mix_table(
                tracer, top=top if top is not None else 12
            ).render()
        )
    if tracer.dropped:
        parts.append(
            f"(ring buffer wrapped: {tracer.dropped} of "
            f"{tracer.ring.total} events dropped)"
        )
    return "\n\n".join(parts)

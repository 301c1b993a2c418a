"""Human-readable rendering: :class:`TextTable`, and a trace's summary
and mix tables.

:class:`TextTable` is the one table renderer every text artifact uses:
these trace tables, the profile and crash views, the injection matrices
and the experiment records.  It lives here, in the lowest layer that
renders with it, so nothing beneath the benchmark harness imports it.
"""

from __future__ import annotations

from repro.trace import events as ev

__all__ = [
    "TextTable",
    "summary_table",
    "instruction_mix_table",
    "render_summary",
]


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

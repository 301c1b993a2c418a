"""Text rendering: llef-style crash context and profile tables.

The crash view follows the pane layout of register/stack/disassembly
debugger frontends (see the ``llef`` LLDB plugin this repo's related
set carries): registers first, then the stack window, the disassembly
around the faulting PC, the authenticated backtrace, and finally the
evidence streams (trace ring tail, dmesg).  Everything is plain ASCII
so CI artifacts and piped output stay readable.
"""

from __future__ import annotations

from repro.trace.report import TextTable

__all__ = ["render_crash", "render_profile"]

_WIDTH = 78


def _pane(title):
    dashes = _WIDTH - len(title) - 4
    return f"-- {title} " + "-" * max(dashes, 4)


def _hex(value):
    if value is None:
        return "<none>"
    return f"{value:#018x}"


def render_crash(dump):
    """Render a :class:`~repro.observe.crashdump.CrashDump` (or dict)."""
    data = dump if isinstance(dump, dict) else dump.to_dict()
    lines = []

    fault = data.get("fault") or {}
    lines.append(_pane("panic"))
    lines.append(
        f"reason: {data['reason']}  profile: {data['profile']}  "
        f"cycle: {data['cycle']}  "
        f"pauth failures: {data['pauth_failures']}/{data['fault_threshold']}"
    )
    if fault:
        poison = fault.get("poison")
        lines.append(
            f"fault:  {fault.get('kind')} at {_hex(fault.get('address'))}"
            + (f"  (poisoned {poison}-key pointer)" if poison else "")
        )

    registers = data["registers"]
    lines.append("")
    lines.append(_pane("registers"))
    names = [f"x{index}" for index in range(31)]
    for row_start in range(0, len(names), 3):
        row = names[row_start:row_start + 3]
        lines.append(
            "  ".join(
                f"{name:>4} {_hex(registers[name])}" for name in row
            )
        )
    lines.append(
        f"  pc {_hex(registers['pc'])}    sp {_hex(registers['sp'])}  "
        f"  el {registers['current_el']}"
    )
    lines.append(
        f" elr {_hex(registers['elr_el1'])}  spsr "
        f"{registers['spsr_el1']:#x}  nzcv {registers['nzcv']}"
    )

    stack = data.get("stack") or ()
    if stack:
        lines.append("")
        lines.append(_pane("stack"))
        for slot in stack:
            lines.append(
                f"  {slot['address']:#018x} : {slot['value']:#018x}"
            )

    disassembly = data.get("disassembly") or ()
    if disassembly:
        lines.append("")
        lines.append(_pane("disassembly"))
        for row in disassembly:
            marker = "->" if row["pc"] else "  "
            lines.append(f" {marker} {row['address']:#x}: {row['text']}")

    lines.append("")
    lines.append(_pane("backtrace (authenticated unwind)"))
    for index, frame in enumerate(data["frames"]):
        if frame["authenticated"] is True:
            check = "[pac ok]" if frame["kind"] == "return" else "[mac ok]"
        elif frame["authenticated"] is False:
            check = (
                "[BROKEN: authentication failed — frame untrusted]"
                if frame["kind"] == "return"
                else "[TAMPERED: frame MAC mismatch — context untrusted]"
            )
        else:
            check = ""
        symbol = frame["symbol"] if frame["symbol"] else "???"
        lines.append(
            f" #{index:<2} {frame['kind']:<9} {_hex(frame['address'])} "
            f" {symbol:<28} {check}".rstrip()
        )

    events = data.get("events") or ()
    if events:
        lines.append("")
        lines.append(_pane(f"trace ring tail ({len(events)} events)"))
        for event in events:
            detail = " ".join(
                f"{key}={value}"
                for key, value in sorted(event.items())
                if key not in ("kind", "cycle", "cost")
            )
            lines.append(
                f"  {event['cycle']:>12}  {event['cost']:>4}  "
                f"{event['kind']}  {detail}".rstrip()
            )

    dmesg = data.get("dmesg") or ()
    if dmesg:
        lines.append("")
        lines.append(_pane("dmesg"))
        lines.extend(f"  {line}" for line in dmesg)

    return "\n".join(lines)


def render_profile(profiler, top=None, title="Cycle attribution"):
    """Per-symbol attribution table, ranked by exclusive cycles."""
    profiler.finalize()
    inclusive = profiler.inclusive()
    total = profiler.total_cycles or 1
    table = TextTable(
        title,
        ["symbol", "excl cycles", "incl cycles", "pauth", "calls", "excl %"],
    )
    ranked = profiler.top(top)
    for name, exclusive in ranked:
        table.add_row(
            name,
            exclusive,
            inclusive.get(name, 0),
            profiler.pauth.get(name, 0),
            profiler.calls.get(name, 0),
            f"{100 * exclusive / total:.1f}",
        )
    lines = [table.render()]
    shown = sum(cycles for _, cycles in ranked)
    if top is not None and shown < profiler.total_cycles:
        lines.append(
            f"(top {top} symbols cover {shown} of "
            f"{profiler.total_cycles} cycles; "
            f"{profiler.total_pauth_cycles} PAuth cycles overall)"
        )
    else:
        lines.append(
            f"total: {profiler.total_cycles} cycles, "
            f"{profiler.total_pauth_cycles} in PAuth operations, "
            f"{len(profiler.folded)} unique stacks"
        )
    return "\n".join(lines)

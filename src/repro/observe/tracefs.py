"""A tracefs/procfs analogue mounted in the simulated VFS.

Real Linux exposes its own observability through the filesystem:
``/proc/<pid>/status`` for task state, ``/sys/kernel/debug/tracing/
trace`` for the ftrace ring.  This module reproduces that self-hosting
pattern on top of the existing ``file_operations`` machinery: the
kernel image carries a ``tracefs`` driver whose sealed fops table is
dispatched through the *same* authenticated ``vfs_read`` path every
other driver uses (Listing 4 — the protected ``f_ops`` pointer, the
keyed indirect call), and only the innermost leaf differs: after the
modelled copy-loop cost, a host call renders the file's current
content and copies it into the caller's buffer.

So a guest program doing ``read(fd, buf, ...)`` on a tracefs fd pays
the full instrumented kernel path — syscall entry, key switch, fd
lookup, f_ops authentication — and receives *live* text: the trace
file renders the attached tracer's most recent events at the moment of
the read.

Files are opened host-side (there is no path-walk model):
:meth:`TracefsRegistry.open` allocates the ``struct file`` (signing
``f_ops`` exactly like any other open) and binds its address to a
path; :meth:`TracefsRegistry.open_fd` also installs it in the fd
table.  :func:`mount_tracefs` opens the standard set.
"""

from __future__ import annotations

import re

from repro.errors import ReproError

__all__ = [
    "TRACEFS_DRIVER",
    "TRACE_PATH",
    "TRACEFS_PATHS",
    "TracefsRegistry",
    "mount_tracefs",
]

#: Driver name: ``<name>_read`` text symbol, ``<name>_fops`` table.
TRACEFS_DRIVER = "tracefs"

TRACE_PATH = "/sys/kernel/debug/tracing/trace"
AVAILABLE_EVENTS_PATH = "/sys/kernel/debug/tracing/available_events"
UPTIME_PATH = "/proc/uptime"

#: One read returns at most this many bytes (one page, like a real
#: seq_file chunk; content is truncated, never split across reads).
READ_CHUNK = 4096

_STATUS_RE = re.compile(r"^/proc/(self|\d+)/status$")


def _render_status(system, match):
    """``/proc/<pid>/status``: the task-struct fields we model."""
    selector = match.group(1)
    if selector == "self":
        task = system.tasks.current
    else:
        task = system.tasks.tasks.get(int(selector))
    if task is None:
        return f"Pid:\t{selector}\nState:\tX (dead)\n"
    state = "R (running)" if task.alive else "Z (zombie)"
    current = system.tasks.current is task
    lines = [
        f"Name:\t{task.name or 'unnamed'}",
        f"Pid:\t{task.tid}",
        f"State:\t{state if current or task.alive else 'S (sleeping)'}",
        f"KernelStack:\t{task.stack_top - task.stack_base} bytes"
        f" @ {task.stack_base:#x}",
        f"TaskStruct:\t{task.address:#x}",
        "Threads:\t1",
    ]
    return "\n".join(lines) + "\n"


def _render_uptime(system, match):
    """``/proc/uptime``: seconds derived from the cycle counter."""
    from repro.arch.cpu import CYCLES_PER_SECOND

    seconds = system.cpu.cycles / CYCLES_PER_SECOND
    return f"{seconds:.6f} {seconds:.6f}\n"


def _render_trace(system, match):
    """``trace``: the attached tracer's ring tail, ftrace-style."""
    tracer = system.tracer
    if tracer is None:
        return "# tracer: nop\n# (no tracer attached)\n"
    events = tracer.events()
    header = [
        "# tracer: repro",
        f"# entries-in-buffer/entries-written: "
        f"{len(events)}/{tracer.ring.total}",
        "#",
        f"# {'CYCLE':>12}  {'COST':>5}  EVENT",
    ]
    lines = []
    # Newest events win the page budget; render from the tail back.
    budget = READ_CHUNK - sum(len(line) + 1 for line in header)
    for event in reversed(events):
        detail = " ".join(
            f"{key}={value:#x}" if isinstance(value, int) and key in
            ("pc", "address", "pointer") else f"{key}={value}"
            for key, value in sorted(event.data.items())
        )
        line = f"  {event.cycle:>12}  {event.cost:>5}  {event.kind}"
        if detail:
            line += f"  {detail}"
        budget -= len(line) + 1
        if budget < 0:
            break
        lines.append(line)
    lines.reverse()
    return "\n".join(header + lines) + "\n"


def _render_available_events(system, match):
    from repro.trace import ALL_EVENTS

    return "\n".join(ALL_EVENTS) + "\n"


#: (compiled matcher, renderer) table; first match wins.
TRACEFS_PATHS = (
    (_STATUS_RE, _render_status),
    (re.compile(re.escape(UPTIME_PATH) + "$"), _render_uptime),
    (re.compile(re.escape(TRACE_PATH) + "$"), _render_trace),
    (
        re.compile(re.escape(AVAILABLE_EVENTS_PATH) + "$"),
        _render_available_events,
    ),
)


def _resolve_renderer(path):
    for matcher, renderer in TRACEFS_PATHS:
        match = matcher.match(path)
        if match is not None:
            return match, renderer
    raise ReproError(f"tracefs has no file at {path!r}")


class TracefsRegistry:
    """Maps live ``struct file`` addresses to tracefs paths.

    Created before the system boots (the driver's read body closes over
    :meth:`host_read`), bound to the system once boot completes.
    """

    def __init__(self):
        self.system = None
        self._files = {}  # file-object address -> path

    def bind(self, system):
        self.system = system
        return self

    # -- opening -------------------------------------------------------------

    def open(self, path):
        """Allocate a ``struct file`` for ``path``; returns the object."""
        from repro.kernel.vfs import open_file

        if self.system is None:
            raise ReproError("tracefs is not bound to a booted system")
        _resolve_renderer(path)  # fail fast on unknown paths
        fobj = open_file(self.system, f"{TRACEFS_DRIVER}_fops")
        self._files[fobj.address] = path
        return fobj

    def open_fd(self, path, fd):
        """Open ``path`` and install it as ``fd``; returns the object."""
        fobj = self.open(path)
        self.system.install_fd(fd, fobj)
        return fobj

    def render(self, path):
        """Current content of ``path`` (host-side view, un-truncated)."""
        match, renderer = _resolve_renderer(path)
        return renderer(self.system, match)

    # -- the in-kernel read leaf ----------------------------------------------

    def host_read(self, cpu):
        """Host half of ``tracefs_read`` (reached via ``vfs_read``).

        X0 holds the dispatched file object's address, X1 the caller's
        buffer (0 = size probe: content is rendered and counted but not
        copied).  Leaves the byte count — or ``-EBADF`` for a file this
        registry never opened — in X0.
        """
        file_address = cpu.regs.read(0)
        buffer = cpu.regs.read(1)
        path = self._files.get(file_address)
        if path is None or self.system is None:
            cpu.regs.write(0, (-9) & ((1 << 64) - 1))  # -EBADF
            return None
        data = self.render(path).encode("ascii", "replace")[:READ_CHUNK]
        if buffer:
            cpu.mmu.write(buffer, data, el=1)
        cpu.regs.write(0, len(data))
        return None  # a HostCall's return value would redirect the PC


def mount_tracefs(system, pids=("self",)):
    """Open the standard tracefs files; returns ``{path: file object}``.

    Opens the trace ring, the event list, ``/proc/uptime`` and one
    ``/proc/<pid>/status`` per requested pid.  Installing fds is left
    to the caller (``system.tracefs.open_fd`` binds extras).
    """
    paths = [TRACE_PATH, AVAILABLE_EVENTS_PATH, UPTIME_PATH]
    paths.extend(f"/proc/{pid}/status" for pid in pids)
    return {path: system.tracefs.open(path) for path in paths}

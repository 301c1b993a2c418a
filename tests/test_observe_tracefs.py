"""Tracefs tests: guest reads of live observability files.

The point under test: a guest ``read(fd, buf, ...)`` on a tracefs fd
travels the *same* authenticated VFS dispatch path as every other
driver (fd lookup, ``f_ops`` authentication, keyed indirect call) and
copies live text — the trace file renders the attached tracer's ring at
the moment of the read.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.kernel import System, layout
from repro.observe import mount_tracefs
from repro.observe.tracefs import (
    AVAILABLE_EVENTS_PATH,
    TRACE_PATH,
    UPTIME_PATH,
)
from repro.trace import Tracer
from repro.workloads.guest import run_el0, syscall


def _guest_read(system, fd, buffer=layout.USER_DATA_BASE):
    number = system.syscall_numbers["read"]

    def body(user):
        user.mov_imm(1, buffer)
        syscall(user, number, fd)

    run_el0(system, body)
    count = system.cpu.regs.read(0)
    if count >= (1 << 63):  # negative errno
        return count - (1 << 64), b""
    if not buffer:  # size probe: nothing was copied
        return count, b""
    data = bytes(system.cpu.mmu.read(buffer, count, el=1))
    return count, data


@pytest.fixture()
def system():
    system = System()
    system.map_user_stack()
    system.map_user_data()
    return system


class TestGuestReads:
    def test_trace_file_returns_live_event_text(self, system):
        tracer = Tracer(capacity=4096)
        system.attach_tracer(tracer)
        system.tracefs.open_fd(TRACE_PATH, 3)
        count, data = _guest_read(system, 3)
        text = data.decode("ascii")
        assert count == len(data) > 0
        assert text.startswith("# tracer: repro")
        # Live events: the read's own syscall path retired instructions
        # that the rendered ring must already contain.  The page budget
        # keeps the newest events, so the tail is the in-flight read.
        assert "insn_retire" in text
        assert "mnemonic=work" in text  # the copy-loop leaf, just before
        assert "blr" in text  # the authenticated f_ops dispatch

    def test_trace_render_reflects_the_moment_of_the_read(self, system):
        tracer = Tracer(capacity=4096)
        system.attach_tracer(tracer)
        system.tracefs.open_fd(TRACE_PATH, 3)
        _, first = _guest_read(system, 3)
        _, second = _guest_read(system, 3)
        assert first != second  # the first read is part of the second

    def test_proc_status_renders_the_current_task(self, system):
        system.tracefs.open_fd("/proc/self/status", 3)
        _, data = _guest_read(system, 3)
        text = data.decode("ascii")
        task = system.tasks.current
        assert f"Name:\t{task.name}" in text
        assert f"Pid:\t{task.tid}" in text
        assert f"TaskStruct:\t{task.address:#x}" in text

    def test_zero_buffer_is_a_size_probe(self, system):
        system.tracefs.open_fd(UPTIME_PATH, 3)
        count, _ = _guest_read(system, 3, buffer=0)
        assert count == len(system.tracefs.render(UPTIME_PATH))

    def test_available_events_lists_every_kind(self, system):
        from repro.trace import ALL_EVENTS

        system.tracefs.open_fd(AVAILABLE_EVENTS_PATH, 3)
        _, data = _guest_read(system, 3)
        listed = data.decode("ascii").split()
        assert listed == list(ALL_EVENTS)

    def test_unregistered_file_reads_ebadf(self, system):
        from repro.kernel.vfs import open_file

        # A tracefs-fops file the registry never opened: the host read
        # leaf must refuse it rather than guess a path.
        orphan = open_file(system, "tracefs_fops")
        system.install_fd(3, orphan)
        count, _ = _guest_read(system, 3)
        assert count == -9  # -EBADF

    def test_read_pays_the_instrumented_kernel_path(self, system):
        tracer = Tracer(capacity=65536)
        system.attach_tracer(tracer)
        system.tracefs.open_fd(TRACE_PATH, 3)
        _guest_read(system, 3)
        assert tracer.count("syscall_enter") == 1
        assert tracer.count("pac_auth") >= 1  # f_ops authentication


class TestRegistry:
    def test_unknown_path_rejected(self, system):
        with pytest.raises(ReproError):
            system.tracefs.open("/proc/does/not/exist")

    def test_unbound_registry_rejects_open(self):
        from repro.observe.tracefs import TracefsRegistry

        with pytest.raises(ReproError):
            TracefsRegistry().open(TRACE_PATH)

    def test_mount_opens_the_standard_set(self, system):
        assert set(mount_tracefs(system)) == {
            TRACE_PATH,
            AVAILABLE_EVENTS_PATH,
            UPTIME_PATH,
            "/proc/self/status",
        }

    def test_status_of_a_specific_pid(self, system):
        task = system.spawn_process("worker")
        text = system.tracefs.render(f"/proc/{task.tid}/status")
        assert f"Pid:\t{task.tid}" in text
        assert "worker" in text

    def test_status_of_a_dead_pid(self, system):
        assert "X (dead)" in system.tracefs.render("/proc/999/status")

    def test_uptime_tracks_the_cycle_counter(self, system):
        from repro.arch.cpu import CYCLES_PER_SECOND

        seconds = float(system.tracefs.render(UPTIME_PATH).split()[0])
        # Rendered with six decimals: compare at that resolution.
        assert seconds == pytest.approx(
            system.cpu.cycles / CYCLES_PER_SECOND, abs=5e-7
        )

    def test_trace_without_tracer_says_nop(self, system):
        assert "# tracer: nop" in system.tracefs.render(TRACE_PATH)

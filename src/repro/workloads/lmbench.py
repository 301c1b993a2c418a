"""lmbench-like syscall micro-benchmarks (paper Figure 3).

Each benchmark is a real syscall on the simulated kernel, with a
handler whose call depth and computational weight follow the shape of
the corresponding lmbench item (kernel syscall paths are call-heavy
relative to their computation — the very property the paper credits
for the double-digit syscall-level overhead).  Measuring a benchmark
means running a user-mode loop of N invocations under each protection
profile and comparing cycles per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import isa
from repro.kernel.syscalls import SyscallSpec
from repro.kernel.system import System
from repro.kernel.vfs import open_file
from repro.kernel import layout
from repro.workloads.guest import syscall_cycles

__all__ = ["LMBENCH_BENCHMARKS", "LmbenchRow", "run_suite", "build_lmbench_system"]


def _chain_spec(name, depth, leaf_work, mid_work=0):
    """A syscall whose handler is a call chain of ``depth`` functions."""

    def build(asm, ctx):
        mid = [isa.Work(mid_work)] if mid_work else []
        entry = ctx.compiler.call_chain(
            asm,
            f"__{name}_lvl",
            depth,
            leaf_body=[isa.Work(leaf_work), isa.Movz(0, 0, 0)],
            mid_body=mid,
        )

        def body(a):
            a.emit(isa.Bl(entry))

        ctx.compiler.function(asm, f"sys_{name}", body)

    return SyscallSpec(name, build)


def _select_spec(name="select_10fd", fds=10):
    """select(): iterate the fd set, polling each through vfs_read."""

    def build(asm, ctx):
        def body(a):
            for fd in range(fds):
                a.mov_imm(0, 3 + (fd % 2))
                a.emit(isa.Bl("__fd_poll"))

        def poll(a):
            a.mov_imm(9, ctx.fd_table)
            a.emit(
                isa.LslImm(10, 0, 3),
                isa.AddReg(9, 9, 10),
                isa.Ldr(0, 9, 0),
                isa.Bl("vfs_read"),
            )

        ctx.compiler.function(asm, "__fd_poll", poll)
        ctx.compiler.function(asm, f"sys_{name}", body)

    return SyscallSpec(name, build)


def _open_close_spec():
    """open()+close(): path walk, then assign f_ops via the setter."""

    def build(asm, ctx):
        def body(a):
            a.emit(isa.Bl("__path_walk"))
            # Allocate-and-bind: x0 = scratch file object, x1 = table.
            a.mov_imm(0, layout.KERNEL_PERCPU_BASE + 0x800)
            a.mov_imm(1, 0)  # patched at runtime via the fops pointer
            a.emit(isa.Bl("__bind_ops"))
            a.emit(isa.Bl("__release_file"))

        def path_walk(a):
            a.emit(isa.Work(18))

        def bind_ops(a):
            a.emit(isa.Bl("set_file_ops"))

        def release(a):
            a.emit(isa.Work(6))

        ctx.compiler.function(asm, "__path_walk", path_walk)
        ctx.compiler.function(asm, "__bind_ops", bind_ops)
        ctx.compiler.function(asm, "__release_file", release)
        ctx.compiler.function(asm, "sys_open_close", body)

    return SyscallSpec("open_close", build)


#: The Figure 3 benchmark set: (spec factory, description).
def _benchmark_specs():
    return [
        _chain_spec("null_call", depth=2, leaf_work=1),
        SyscallSpec("read_fd", _build_read_fd),
        SyscallSpec("write_fd", _build_write_fd),
        _chain_spec("stat", depth=4, leaf_work=14, mid_work=2),
        _chain_spec("fstat", depth=3, leaf_work=8, mid_work=1),
        _open_close_spec(),
        _select_spec(),
        _chain_spec("sig_install", depth=3, leaf_work=6, mid_work=1),
        _chain_spec("sig_deliver", depth=4, leaf_work=10, mid_work=2),
        _chain_spec("pipe_latency", depth=5, leaf_work=20, mid_work=3),
    ]


def _build_read_fd(asm, ctx):
    def body(a):
        a.mov_imm(9, ctx.fd_table)
        a.emit(
            isa.LslImm(10, 0, 3),
            isa.AddReg(9, 9, 10),
            isa.Ldr(0, 9, 0),
            isa.Bl("vfs_read"),
        )

    ctx.compiler.function(asm, "sys_read_fd", body)


def _build_write_fd(asm, ctx):
    def body(a):
        a.mov_imm(9, ctx.fd_table)
        a.emit(
            isa.LslImm(10, 0, 3),
            isa.AddReg(9, 9, 10),
            isa.Ldr(0, 9, 0),
            isa.Bl("vfs_write"),
        )

    ctx.compiler.function(asm, "sys_write_fd", body)


#: Names in presentation order (Figure 3's x axis).
LMBENCH_BENCHMARKS = (
    "null_call",
    "read_fd",
    "write_fd",
    "stat",
    "fstat",
    "open_close",
    "select_10fd",
    "sig_install",
    "sig_deliver",
    "pipe_latency",
)


def build_lmbench_system(profile):
    """A booted system with the whole lmbench syscall set installed."""
    system = System(profile=profile, syscalls=_benchmark_specs())
    for fd, driver in ((3, "ext4_fops"), (4, "sockfs_fops")):
        system.install_fd(fd, open_file(system, driver))
    return system


@dataclass(frozen=True)
class LmbenchRow:
    """One benchmark's latency per profile."""

    name: str
    cycles: dict  # profile name -> cycles per iteration

    def relative(self, baseline="none"):
        base = self.cycles[baseline]
        return {name: value / base for name, value in self.cycles.items()}

    def overhead_pct(self, profile, baseline="none"):
        return 100.0 * (self.cycles[profile] / self.cycles[baseline] - 1.0)


def run_suite(profiles=("none", "backward", "full"), iterations=20):
    """Run every benchmark under every profile.

    Returns a list of :class:`LmbenchRow` in presentation order.  Each
    profile gets one freshly booted system; each benchmark runs as a
    user-mode loop of real syscalls on it.
    """
    cycles = {name: {} for name in LMBENCH_BENCHMARKS}
    for profile in profiles:
        system = build_lmbench_system(profile)
        system.map_user_stack()
        for name in LMBENCH_BENCHMARKS:
            cycles[name][profile] = syscall_cycles(
                system, name, iterations, x0=3
            )
    return [LmbenchRow(name, cycles[name]) for name in LMBENCH_BENCHMARKS]

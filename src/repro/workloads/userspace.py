"""User-space workload models (paper Figure 4).

Three workloads spanning the user/kernel instruction-mix spectrum:

1. **JPEG picture resize** — predominantly user computation, touching
   the kernel only to stream the image in;
2. **Debian package build** — balanced: compile bursts interleaved with
   stat/open/read/write traffic;
3. **Network download** — mostly kernel: a tight recv loop with little
   user-side processing.

Kernel protection cost is (almost) a fixed tax per syscall, so the
workload overhead is that tax diluted by the user computation — which
is why the geometric mean across these workloads lands below 4 % even
though syscall micro-benchmarks show double-digit overheads.

Each workload runs as a real EL0 program: a loop of ``Work`` blocks
(the user computation) interleaved with actual syscalls on the
simulated kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch import isa
from repro.workloads.guest import run_el0, syscall
from repro.workloads.lmbench import build_lmbench_system

__all__ = ["WorkloadSpec", "WORKLOADS", "UserspaceRow", "run_userspace", "geometric_mean"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Instruction mix of one user workload.

    ``user_work`` is the cycles of pure user computation per loop
    iteration; ``syscalls`` lists the (name, fd) syscalls each
    iteration performs.
    """

    name: str
    user_work: int
    syscalls: tuple

    def description(self):
        return (
            f"{self.user_work} user cycles + "
            f"{len(self.syscalls)} syscalls per iteration"
        )


#: Calibrated mixes for the three Figure 4 workloads.  ``user_work``
#: covers every cycle outside instrumented kernel code — for the
#: download that is mostly DMA/I/O wait rather than computation, which
#: is why a "mostly kernel" workload still dilutes the syscall tax.
WORKLOADS = (
    WorkloadSpec(
        "jpeg-resize",
        user_work=30_000,
        syscalls=(("read_fd", 3),),
    ),
    WorkloadSpec(
        "deb-build",
        user_work=12_000,
        syscalls=(("stat", 3), ("read_fd", 3), ("write_fd", 4)),
    ),
    WorkloadSpec(
        "net-download",
        user_work=2_000,
        syscalls=(("read_fd", 4), ("read_fd", 4)),
    ),
)


@dataclass(frozen=True)
class UserspaceRow:
    """One workload's cycles per iteration under each profile."""

    name: str
    cycles: dict

    def overhead_pct(self, profile, baseline="none"):
        return 100.0 * (self.cycles[profile] / self.cycles[baseline] - 1.0)


def geometric_mean(values):
    """Geometric mean of multiplicative factors."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_userspace(profiles=("none", "backward", "full"), iterations=10):
    """Run the three workloads under each profile.

    Returns (rows, geomean_by_profile): per-workload cycle counts and
    the geometric-mean relative slowdown of each protected profile.
    """
    cycles = {spec.name: {} for spec in WORKLOADS}
    for profile in profiles:
        system = build_lmbench_system(profile)
        system.map_user_stack()
        for spec in WORKLOADS:

            def body(user, spec=spec):
                user.emit(isa.Work(spec.user_work))
                for name, fd in spec.syscalls:
                    syscall(user, system.syscall_numbers[name], x0=fd)

            cycles[spec.name][profile] = (
                run_el0(system, body, iterations) / iterations
            )
    rows = [UserspaceRow(spec.name, cycles[spec.name]) for spec in WORKLOADS]
    geomeans = {}
    for profile in profiles:
        if profile == "none":
            continue
        geomeans[profile] = geometric_mean(
            [row.cycles[profile] / row.cycles["none"] for row in rows]
        )
    return rows, geomeans

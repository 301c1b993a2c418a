"""Shared test fixtures: bare CPUs with mapped code and stack."""

from __future__ import annotations

import pytest

from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.mem.pagetable import Permissions

TEXT_BASE = 0xFFFF_0000_0801_0000
STACK_TOP = 0xFFFF_0000_0900_0000
DATA_BASE = 0xFFFF_0000_0A00_0000


class BareMachine:
    """A CPU with one text region, a stack and a data page mapped."""

    def __init__(self, features=frozenset({"pauth"})):
        self.cpu = CPU(features=features)
        self.cpu.mmu.map_range(
            TEXT_BASE, 0x8000, 0x400, Permissions(r_el1=True, x_el1=True)
        )
        self.cpu.mmu.map_range(
            STACK_TOP - 0x8000, 0x8000, 0x500, Permissions.kernel_data()
        )
        self.cpu.mmu.map_range(
            DATA_BASE, 0x2000, 0x600, Permissions.kernel_data()
        )

    def assembler(self):
        return Assembler(TEXT_BASE)

    def place(self, program):
        return self.cpu.mmu.place_program(program)

    def run(self, program, entry="main", args=(), max_steps=100_000):
        self.place(program)
        return self.cpu.call(
            program.address_of(entry),
            args=args,
            stack_top=STACK_TOP,
            max_steps=max_steps,
        )


@pytest.fixture
def machine():
    return BareMachine()


@pytest.fixture
def v80_machine():
    return BareMachine(features=frozenset())


@pytest.fixture(scope="module")
def traced_system():
    """A booted full-profile system with a tracer attached.

    The common kernel-test setup in one place: full protection profile,
    user stack mapped, an ext4-backed file at fd 3, and a
    :class:`~repro.trace.Tracer` wired through every layer.  Attaching
    the tracer never changes simulated cycle counts, so cycle-exact
    assertions hold on it too.  Module-scoped — tests that assert on
    event counts should ``system.tracer.reset()`` first.
    """
    from repro.kernel import System, open_file
    from repro.trace import Tracer

    system = System(profile="full")
    system.map_user_stack()
    system.install_fd(3, open_file(system, "ext4_fops"))
    system.attach_tracer(Tracer())
    return system

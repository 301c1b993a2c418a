"""Shared test fixtures.

``machine`` / ``v80_machine`` are the guest harness's
:class:`~repro.workloads.guest.BareMachine` (a bare core with text,
stack and data mapped), with and without PAuth; ``traced_system`` is a
booted full-profile kernel with a tracer attached.
"""

from __future__ import annotations

import pytest

from repro.workloads.guest import BareMachine


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

"""Tests for the interrupt path: delivery, key switching, timer."""

import pytest

from repro.arch import isa
from repro.kernel import System
from repro.workloads.guest import run_el0


def _spin(system, iterations=200):
    return run_el0(system, lambda user: user.emit(isa.Work(40)), iterations)


@pytest.fixture
def system():
    s = System(profile="full")
    s.map_user_stack()
    return s


class TestTimerDelivery:
    def test_ticks_delivered_during_user_execution(self, system):
        system.enable_timer(1_000)
        _spin(system)
        assert system.cpu.irqs_delivered >= 3
        assert system.jiffies == system.cpu.irqs_delivered

    def test_no_timer_no_irqs(self, system):
        _spin(system, iterations=50)
        assert system.cpu.irqs_delivered == 0

    def test_raise_irq_once(self, system):
        system.cpu.pending_irq = True
        _spin(system, iterations=50)
        assert system.cpu.irqs_delivered == 1

    def test_irq_not_delivered_while_masked(self, system):
        # kernel_call runs with interrupts masked: the pending IRQ must
        # stay pending.
        system.cpu.pending_irq = True
        system.kernel_call("ext4_read", args=(0,))
        assert system.cpu.pending_irq
        assert system.cpu.irqs_delivered == 0


class TestIrqTransparency:
    def test_user_state_preserved_across_irq(self, system):
        system.cpu.regs.write(20, 0xABCD)
        system.enable_timer(400)
        run_el0(
            system,
            lambda user: user.emit(isa.Work(25), isa.AddImm(20, 20, 1)),
            100,
        )
        assert system.cpu.irqs_delivered >= 2
        assert system.cpu.regs.read(20) == 0xABCD + 100

    def test_user_keys_restored_after_irq(self, system):
        system.enable_timer(1_000)
        task = system.tasks.current
        _spin(system)
        assert system.cpu.regs.keys.ib.lo == task.user_keys.ib.lo

    def test_kernel_keys_active_in_irq_handler(self, system):
        observed = []
        system.irq_actions.append(
            lambda s: observed.append(s.cpu.regs.keys.ib.lo)
        )
        system.enable_timer(1_500)
        _spin(system)
        assert observed
        assert all(v == system.kernel_keys.ib.lo for v in observed)

    def test_irq_actions_invoked_per_tick(self, system):
        hits = []
        system.irq_actions.append(lambda s: hits.append(1))
        system.enable_timer(900)
        _spin(system)
        assert len(hits) == system.cpu.irqs_delivered

    def test_irq_costs_cycles_under_protection(self):
        totals = {}
        for profile in ("none", "full"):
            s = System(profile=profile)
            s.map_user_stack()
            s.enable_timer(800)
            totals[profile] = (_spin(s, iterations=100), s.cpu.irqs_delivered)
        none_cycles, none_irqs = totals["none"]
        full_cycles, full_irqs = totals["full"]
        assert none_irqs > 0 and full_irqs > 0
        assert full_cycles > none_cycles

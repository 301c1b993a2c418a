"""Golden trace: the Section 6.1.1 syscall key choreography.

The paper measures key switching at ~9 cycles per key per switch
(avg 8.88) with two key-bank traversals per syscall: kernel keys are
installed from immediates inside the XOM setter on entry
(8 moves + 2 MSRs = 12 cycles per key) and user keys restored from the
task struct on exit (1 LDP + 2 MSRs = 6 cycles per key, after a 6-cycle
``current``-pointer prologue the first key absorbs).  These tests pin
that exact event sequence, so any change to the entry path, the key
setter, or the cycle model shows up as a golden-trace diff.
"""

import pytest

from repro.workloads.guest import run_el0, syscall

#: Keys switched per direction under the full profile (install order).
FULL_PROFILE_KEYS = ["db", "ia", "ib"]

#: Section 6.1.1 calibration (see repro.arch.cpu.KEY_WRITE_EXTRA_CYCLES).
INSTALL_CYCLES_PER_KEY = 12  # 8 MOVZ/MOVK + 2 MSR
RESTORE_CYCLES_PER_KEY = 6  # 1 LDP + 2 MSR
RESTORE_PROLOGUE_CYCLES = 6  # current-pointer load, first key absorbs it


@pytest.fixture
def one_syscall(traced_system):
    """Run exactly one getpid syscall; return the fresh tracer."""
    system = traced_system
    system.tracer.reset()
    run_el0(system, lambda user: syscall(user, system.syscall_numbers["getpid"]))
    return system.tracer


class TestGoldenKeyChoreography:
    def test_event_counts_per_syscall(self, one_syscall):
        tracer = one_syscall
        assert tracer.count("syscall_enter") == 1
        assert tracer.count("syscall_exit") == 1
        # Two bank traversals (kernel on entry, user on exit), three
        # keys each, two MSR halves per key.
        assert tracer.count("key_bank_switch") == 2
        assert tracer.count("key_switch") == 6
        assert tracer.count("key_write") == 12

    def test_bank_order_and_key_census(self, one_syscall):
        banks = one_syscall.events("key_bank_switch")
        assert [e.data["bank"] for e in banks] == ["kernel", "user"]
        assert [e.data["keys"] for e in banks] == [3, 3]

    def test_keys_switched_in_install_order(self, one_syscall):
        keys = [e.data["key"] for e in one_syscall.events("key_switch")]
        assert keys == FULL_PROFILE_KEYS * 2

    def test_entry_installs_cost_12_cycles_each(self, one_syscall):
        entry = [
            e for e in one_syscall.events("key_switch")
            if e.data["bank"] == "kernel"
        ]
        assert [e.cost for e in entry] == [INSTALL_CYCLES_PER_KEY] * 3

    def test_exit_restores_cost_6_cycles_after_prologue(self, one_syscall):
        exit_keys = [
            e for e in one_syscall.events("key_switch")
            if e.data["bank"] == "user"
        ]
        expected = [
            RESTORE_CYCLES_PER_KEY + RESTORE_PROLOGUE_CYCLES,
            RESTORE_CYCLES_PER_KEY,
            RESTORE_CYCLES_PER_KEY,
        ]
        assert [e.cost for e in exit_keys] == expected

    def test_steady_state_matches_paper_9_cycles_per_key(self):
        # Section 6.1.1: "approximately 9 cycles per key per switch"
        # (measured average 8.88).  A key is installed once on entry and
        # restored once on exit, so the steady-state per-key cost is the
        # average of the two paths.
        steady = (INSTALL_CYCLES_PER_KEY + RESTORE_CYCLES_PER_KEY) / 2
        assert steady == 9

    def test_semantic_event_ordering(self, one_syscall):
        semantic = [
            e.kind
            for e in one_syscall.events()
            if e.kind in (
                "syscall_enter",
                "syscall_exit",
                "key_bank_switch",
                "key_switch",
            )
        ]
        assert semantic == [
            "syscall_enter",
            "key_switch", "key_switch", "key_switch",
            "key_bank_switch",  # kernel bank complete
            "key_switch", "key_switch", "key_switch",
            "key_bank_switch",  # user bank restored
            "syscall_exit",
        ]

    def test_syscall_exit_carries_kernel_path_cost(self, one_syscall):
        enter = one_syscall.events("syscall_enter")[0]
        exit_ = one_syscall.events("syscall_exit")[0]
        assert enter.data["nr"] == exit_.data["nr"]
        assert exit_.cost == exit_.cycle - enter.cycle
        assert exit_.cost > 0

    def test_key_write_msr_census(self, one_syscall):
        # Every key is two 64-bit halves; each write is one MSR.
        writes = one_syscall.events("key_write")
        registers = {e.data["register"] for e in writes}
        expected = {
            f"AP{key.upper()}Key{half}_EL1"
            for key in FULL_PROFILE_KEYS
            for half in ("Lo", "Hi")
        }
        assert registers == expected

    def test_bank_cost_includes_all_keys(self, one_syscall):
        banks = {
            e.data["bank"]: e.cost
            for e in one_syscall.events("key_bank_switch")
        }
        # The traversal cost covers the per-key work plus the
        # surrounding glue (branch in, scrub, RET), so it dominates
        # the sum of its key switches.
        assert banks["kernel"] >= 3 * INSTALL_CYCLES_PER_KEY
        assert banks["user"] >= (
            3 * RESTORE_CYCLES_PER_KEY + RESTORE_PROLOGUE_CYCLES
        )

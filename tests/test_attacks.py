"""Tests for the Section 6.2 attack scenarios: the security matrix.

These assert the paper's Section 6.2 claims attack by attack: what an
unprotected kernel loses, what each protection level stops, and which
residual windows remain.  Every attack runs through the one campaign
(``repro.inject``) with the invariant checker off, as E6/E10 does.
"""

import random

import pytest

from repro.errors import KernelPanic
from repro.inject import (
    CampaignDriver,
    InjectionCampaign,
    profile_rows,
    render_profile_table,
    scenario_by_name,
)
from repro.inject.scenarios import (
    cross_thread_replay_accepted,
    expected_guesses,
    guess_f_ops_pac,
    replay_profile,
    success_probability,
)
from repro.kernel import System


def _run(name, profile):
    (result,) = InjectionCampaign(
        profile=profile, trials=1, invariants=False, sites=[name]
    ).run().results
    return result


def _replay(variant, scheme):
    return _run(f"replay-{variant}", replay_profile("backward", scheme))


class TestRopInjection:
    def test_succeeds_unprotected(self):
        assert _run("rop-injection", "none").outcome == "escaped"

    @pytest.mark.parametrize("profile", ["backward", "full"])
    def test_detected_with_backward_cfi(self, profile):
        result = _run("rop-injection", profile)
        assert result.outcome == "detected"
        assert result.detected_by == "fault"


class TestReplay:
    def test_cross_function_defeats_sp_only(self):
        assert _replay("cross-function", "sp-only").outcome == "escaped"

    @pytest.mark.parametrize("scheme", ["camouflage", "parts"])
    def test_cross_function_stopped_by_function_binding(self, scheme):
        result = _replay("cross-function", scheme)
        assert result.outcome == "detected"

    @pytest.mark.parametrize("scheme", ["sp-only", "camouflage", "parts"])
    def test_same_function_residual_window(self, scheme):
        # The residual the paper acknowledges in Section 6.2.1.
        result = _replay("same-function", scheme)
        assert result.outcome == "escaped"
        assert result.expected  # a documented residual
        assert f"[{scheme}]" in result.detail

    def test_parts_cross_thread_64k(self):
        assert cross_thread_replay_accepted("parts", 65536)

    def test_parts_cross_thread_4k_safe(self):
        assert not cross_thread_replay_accepted("parts", 4096)

    @pytest.mark.parametrize("stride", [4096, 65536])
    def test_camouflage_cross_thread_safe(self, stride):
        assert not cross_thread_replay_accepted("camouflage", stride)

    def test_sp_only_full_sp_cross_thread_safe(self):
        # Full-SP modifiers don't collide across threads — SP-only's
        # weakness is *within* a thread.
        assert not cross_thread_replay_accepted("sp-only", 65536)


class TestPointerOverwrites:
    @pytest.mark.parametrize(
        "name",
        [
            pytest.param("fnptr-overwrite", id="WritableFnPtrAttack"),
            pytest.param("jop-gadget", id="JopGadgetAttack"),
        ],
    )
    def test_fnptr_attacks_need_forward_cfi(self, name):
        assert _run(name, "none").outcome == "escaped"
        assert _run(name, "backward").outcome == "escaped"  # not covered
        assert _run(name, "full").outcome == "detected"

    def test_ops_table_swap_needs_dfi(self):
        assert _run("ops-table-swap", "none").outcome == "escaped"
        assert _run("ops-table-swap", "full").outcome == "detected"

    def test_rodata_write_always_blocked(self):
        for profile in ("none", "full"):
            assert _run("rodata-fops-write", profile).outcome == "blocked"

    def test_cred_pointer_needs_dfi(self):
        assert _run("cred-pointer-swap", "none").outcome == "escaped"
        assert _run("cred-pointer-swap", "full").outcome == "detected"


class TestBruteForce:
    def test_expected_guesses_15_bits(self):
        assert expected_guesses(15) == 1 << 14

    def test_success_probability_small_with_threshold(self):
        probability = success_probability(8, 15)
        assert probability < 0.001

    def test_threshold_stops_guessing(self):
        result = _run("pac-brute-force", "full")
        assert result.outcome == "detected"
        assert result.detected_by == "panic"
        assert "threshold" in result.detail

    def test_unlimited_guessing_succeeds(self):
        system = System(profile="full")
        system.faults.panic_on_threshold = False
        guesses = guess_f_ops_pac(system, random.Random(1))
        assert 1 <= guesses <= 1 << 15
        assert system.faults.pauth_failures == guesses - 1

    def test_no_pac_no_guessing_needed(self):
        result = _run("pac-brute-force", "none")
        assert result.outcome == "escaped"
        assert "first write" in result.detail


class TestKeyConfidentiality:
    def test_xom_read_blocked(self):
        assert _run("xom-key-read", "full").outcome == "blocked"

    def test_module_mrs_blocked(self):
        assert _run("module-mrs-keys", "full").outcome == "blocked"

    def test_sctlr_blocked(self):
        result = _run("sctlr-disable", "full")
        assert result.outcome == "blocked"
        assert "SCTLR_EL1" in result.detail  # the run-time MSR trapped

    def test_oracle_bounded_by_threshold(self):
        scenario = scenario_by_name("verification-oracle")
        driver = CampaignDriver(
            profile="full", invariants=False, scenario=scenario
        )
        driver.system.faults.threshold = 5
        try:
            with pytest.raises(KernelPanic, match="5/5"):
                scenario.inject(driver, random.Random(0))
        finally:
            driver.close()
        assert driver.system.faults.pauth_failures == 5


class TestCampaign:
    def test_matrix_shape(self):
        matrices = [
            InjectionCampaign(
                profile=profile,
                trials=1,
                invariants=False,
                sites=["rop-injection", "rodata-fops-write"],
            ).run()
            for profile in ("none", "full")
        ]
        rows = dict(profile_rows(matrices))
        assert len(rows) == 2
        assert rows["rop-injection"] == ["escaped", "detected"]

    def test_render_contains_profiles(self):
        matrix = InjectionCampaign(
            profile="none",
            trials=1,
            invariants=False,
            sites=["rodata-fops-write"],
        ).run()
        assert "none" in render_profile_table([matrix])
        assert "rodata" in render_profile_table([matrix])

"""Tests for the adversarial-scenario framework (``repro.inject``)."""

import json
import os

import pytest

from repro.cfi.policy import PROFILE_BACKWARD
from repro.inject import (
    ATTACKS,
    CORRUPTIONS,
    DEFAULT_SEED,
    SCENARIOS,
    CampaignDriver,
    InjectionCampaign,
    render_matrix,
    render_profile_table,
    render_site_listing,
    scenario_by_name,
)
from repro.inject.scenarios import replay_profile

EXPECTED_SITES = {
    "canary.linear-overflow",
    "cpu.key-register-corruption",
    "cpu.sctlr-enable-clear",
    "entry.frame-elr-tamper",
    "entry.frame-spsr-el-escalation",
    "fault.counter-rollback",
    "fault.threshold-tamper",
    "pac.signed-sp-bitflip",
    "pac.wrong-modifier-resign",
    "sched.mid-switch-sp-redirect",
}

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden",
    "scenario_matrices.json",
)


@pytest.fixture(scope="module")
def full_matrix():
    return InjectionCampaign(profile="full", trials=1).run()


@pytest.fixture(scope="module")
def full_matrix_no_invariants():
    return InjectionCampaign(
        profile="full", trials=1, invariants=False
    ).run()


class TestRegistry:
    def test_all_sites_registered(self):
        assert {s.name for s in CORRUPTIONS} == EXPECTED_SITES
        assert len(ATTACKS) == 14
        assert SCENARIOS == ATTACKS + CORRUPTIONS
        assert len({s.name for s in SCENARIOS}) == len(SCENARIOS)

    def test_points_sorted_and_complete(self):
        names = [s.name for s in CORRUPTIONS]
        assert names == sorted(names)

    def test_point_by_name(self):
        scenario = scenario_by_name("pac.signed-sp-bitflip")
        assert scenario.requires == ("dfi",)
        assert "fault" in scenario.expected
        with pytest.raises(KeyError):
            scenario_by_name("no.such-site")

    def test_unknown_site_rejected(self):
        with pytest.raises(Exception, match="unknown injection site"):
            InjectionCampaign(sites=["no.such-site"]).selected_scenarios()

    def test_site_listing_renders_every_point(self):
        listing = render_site_listing()
        for scenario in SCENARIOS:
            assert scenario.name in listing

    def test_no_scenario_code_in_core_packages(self):
        import repro

        root = os.path.dirname(repro.__file__)
        for package in ("arch", "kernel", "mem", "qarma", "cfi"):
            for dirpath, _, files in os.walk(os.path.join(root, package)):
                for name in files:
                    if name.endswith(".py"):
                        with open(os.path.join(dirpath, name)) as handle:
                            text = handle.read()
                        assert "repro.inject" not in text, name
                        assert "register_point" not in text, name


class TestFullProfile:
    def test_zero_escapes(self, full_matrix):
        # Every scenario applies to the full profile; the only escape
        # is the documented same-function replay window.
        assert full_matrix.injected == len(SCENARIOS)
        assert full_matrix.skipped == 0
        assert [r.site for r in full_matrix.escapes()] == [
            "replay-same-function"
        ]
        assert full_matrix.unexpected_escapes() == []
        assert EXPECTED_SITES <= {r.site for r in full_matrix.results}
        assert all(
            r.outcome == "detected"
            for r in full_matrix.results
            if r.site in EXPECTED_SITES
        )

    def test_detections_match_declared_expectations(self, full_matrix):
        for result in full_matrix.results:
            scenario = scenario_by_name(result.site)
            assert result.expected, result.site
            if result.outcome == "detected":
                assert result.detected_by in scenario.expected, result.site
            elif result.outcome == "blocked":
                assert "blocked" in scenario.expected, result.site
            else:
                assert scenario.residual, result.site

    def test_render_includes_summary(self, full_matrix):
        text = render_matrix(full_matrix)
        assert (
            f"{len(SCENARIOS)} injected: {full_matrix.detected} detected, "
            f"4 blocked, 1 escaped (0 skipped)"
        ) in text

    def test_sp_attacks_detected_by_fault(self, full_matrix):
        sites = {
            "pac.signed-sp-bitflip",
            "pac.wrong-modifier-resign",
            "sched.mid-switch-sp-redirect",
            "cpu.key-register-corruption",
        }
        rows = [r for r in full_matrix.results if r.site in sites]
        assert {r.site for r in rows} == sites
        assert all(r.detected_by == "fault" for r in rows)

    def test_canary_detected_by_panic(self, full_matrix):
        (result,) = [
            r for r in full_matrix.results if r.site == "canary.linear-overflow"
        ]
        assert result.detected_by == "panic"

    def test_single_site_row_equals_full_campaign_row(self, full_matrix):
        # A trial's seed depends on the scenario's name, not on its
        # position in the selection: a reported row reproduces alone.
        for result in full_matrix.results:
            (alone,) = InjectionCampaign(
                profile="full", trials=1, sites=[result.site]
            ).run().results
            assert alone.to_dict() == result.to_dict()


class TestInvariantsOff:
    def test_exactly_invariant_only_sites_escape(
        self, full_matrix_no_invariants
    ):
        escaped = {r.site for r in full_matrix_no_invariants.escapes()}
        invariant_only = {s.name for s in SCENARIOS if s.needs_invariants}
        residual = {s.name for s in SCENARIOS if s.residual}
        assert escaped == invariant_only | residual
        assert {
            r.site for r in full_matrix_no_invariants.unexpected_escapes()
        } == invariant_only


class TestGoldenMatrices:
    """The merged framework reproduces the matrices the two separate
    frameworks produced (pinned in ``golden/scenario_matrices.json``);
    the old vocabulary's ``succeeded`` is ``escaped`` here."""

    PROFILES = ("none", "backward", "full")

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as handle:
            return json.load(handle)

    def test_attack_matrix(self, golden):
        renamed = {"succeeded": "escaped"}
        for profile in self.PROFILES:
            matrix = InjectionCampaign(
                profile=profile,
                trials=1,
                invariants=False,
                sites=golden["attack_order"],
            ).run()
            assert [r.site for r in matrix.results] == golden["attack_order"]
            for result in matrix.results:
                cell = golden["attacks"][result.site][profile]
                assert result.outcome == renamed.get(cell, cell), (
                    profile, result.site,
                )

    @pytest.mark.parametrize("invariants", [True, False])
    def test_site_matrix(self, golden, invariants):
        key = "invariants_on" if invariants else "invariants_off"
        for profile in self.PROFILES:
            matrix = InjectionCampaign(
                profile=profile,
                seed=DEFAULT_SEED,
                trials=1,
                invariants=invariants,
                sites=golden["site_order"],
            ).run()
            assert [r.site for r in matrix.results] == golden["site_order"]
            for result in matrix.results:
                cell = {
                    "outcome": result.outcome,
                    "detected_by": result.detected_by,
                    "evidence": result.evidence,
                }
                assert cell == golden["sites"][key][profile][result.site], (
                    profile, result.site,
                )


class TestDeterminism:
    SITES = [
        "pac.signed-sp-bitflip",
        "fault.threshold-tamper",
        "canary.linear-overflow",
    ]

    def test_same_seed_same_matrix(self):
        first = InjectionCampaign(
            profile="full", seed=1234, trials=2, sites=self.SITES
        ).run()
        second = InjectionCampaign(
            profile="full", seed=1234, trials=2, sites=self.SITES
        ).run()
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_trial_seeds(self):
        a = InjectionCampaign(profile="full", seed=1, sites=self.SITES)
        b = InjectionCampaign(profile="full", seed=2, sites=self.SITES)
        name = self.SITES[0]
        assert a._derived_seed(name, 0) != b._derived_seed(name, 0)
        assert a._derived_seed(name, 0) != a._derived_seed(name, 1)


class TestUnprotectedProfiles:
    def test_none_profile_canary_escapes(self):
        matrix = InjectionCampaign(
            profile="none", trials=1, sites=["canary.linear-overflow"]
        ).run()
        assert matrix.escaped == 1
        assert matrix.unexpected_escapes()

    def test_dfi_sites_skipped_without_dfi(self):
        matrix = InjectionCampaign(
            profile="backward",
            trials=1,
            sites=["pac.signed-sp-bitflip", "entry.frame-elr-tamper"],
        ).run()
        outcomes = {r.site: r.outcome for r in matrix.results}
        assert outcomes["pac.signed-sp-bitflip"] == "skipped"
        assert outcomes["entry.frame-elr-tamper"] == "detected"


class TestControl:
    @pytest.mark.parametrize("profile", ["none", "backward", "full"])
    def test_control_run_is_clean(self, profile):
        evidence = InjectionCampaign(
            profile=profile, trials=1
        ).run_control()
        assert evidence["faults"] == 0
        assert evidence["auth_failures"] == 0
        assert evidence["syscalls"] >= 1


class TestDriver:
    def test_provoked_failures_are_counted(self):
        driver = CampaignDriver(profile="full")
        try:
            driver.provoke_pauth_failures(2)
            assert driver.system.faults.pauth_failures == 2
            evidence = driver.evidence()
            assert evidence["faults"] == 2
            assert evidence["threshold_ticks"] == 2
        finally:
            driver.close()

    def test_scenario_text_is_built_into_the_kernel(self):
        driver = CampaignDriver(
            profile="none", scenario=scenario_by_name("rop-injection")
        )
        try:
            assert "vuln" in driver.system.syscall_numbers
            assert driver.system.kernel_symbol("__rop_gadget")
        finally:
            driver.close()

    def test_bench_experiment_reproduces(self):
        from repro.bench import run_injection_matrix

        record = run_injection_matrix(trials=1)
        assert record.reproduced
        assert record.tables


class TestReplayProfile:
    def test_passed_profile_is_not_mutated(self):
        # Booting the prototype caches its scheme object; the copy must
        # not inherit that cache.
        assert PROFILE_BACKWARD.scheme.name == "camouflage"
        profile = replay_profile(PROFILE_BACKWARD, "sp-only")
        (result,) = InjectionCampaign(
            profile=profile,
            trials=1,
            invariants=False,
            sites=["replay-cross-function"],
        ).run().results
        assert result.outcome == "escaped"
        assert "[sp-only]" in result.detail
        assert profile is not PROFILE_BACKWARD
        assert PROFILE_BACKWARD.backward_scheme == "camouflage"
        assert PROFILE_BACKWARD.scheme.name == "camouflage"

    def test_unprotected_profile_unchanged(self):
        from repro.cfi.policy import PROFILE_NONE

        assert replay_profile(PROFILE_NONE, "parts") is PROFILE_NONE


class TestCli:
    def _inject(self, *argv):
        from repro.__main__ import main

        return main(["inject", "--smoke", *argv])

    def test_full_profile_passes(self, capsys):
        assert self._inject("--site", "pac.signed-sp-bitflip",
                            "--site", "replay-same-function") == 0
        assert "1 escaped" in capsys.readouterr().out

    def test_none_profile_exits_1(self, capsys):
        assert self._inject("--profile", "none") == 1
        assert "rop-injection" in capsys.readouterr().out

    def test_repeated_profile_renders_cross_profile_table(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "m.json"
        code = self._inject(
            "--profile", "backward", "--profile", "full",
            "--site", "rop-injection", "--json", str(out_file),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backward        full" in out
        data = json.loads(out_file.read_text())
        assert [m["profile"] for m in data] == ["backward", "full"]

    def test_profile_table_matches_matrices(self):
        matrices = [
            InjectionCampaign(
                profile=p, trials=1, invariants=False,
                sites=["rodata-fops-write"],
            ).run()
            for p in ("none", "full")
        ]
        table = render_profile_table(matrices)
        assert table.splitlines()[-1].split() == [
            "rodata-fops-write", "blocked", "blocked",
        ]


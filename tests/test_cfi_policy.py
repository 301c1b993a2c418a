"""Tests for protection profiles and key allocation (repro.cfi)."""

import pytest

from repro.cfi.keys import KeyAllocation, KeyRole
from repro.cfi.policy import (
    PROFILE_BACKWARD,
    PROFILE_FULL,
    PROFILE_NONE,
    ProtectionProfile,
    profile_by_name,
)
from repro.errors import ReproError


class TestKeyAllocation:
    def test_default_paper_allocation(self):
        allocation = KeyAllocation.default()
        # Listing 3 signs return addresses with PACIB; Listing 4
        # authenticates data with AUTDB.
        assert allocation.key_for(KeyRole.BACKWARD) == "ib"
        assert allocation.key_for(KeyRole.FORWARD) == "ia"
        assert allocation.key_for(KeyRole.DFI) == "db"

    def test_compat_collapses_onto_ib(self):
        allocation = KeyAllocation.compat()
        for role in KeyRole.ALL:
            assert allocation.key_for(role) == "ib"

    def test_unknown_role(self):
        with pytest.raises(ReproError):
            KeyAllocation.default().key_for("sideways")

    def test_invalid_key_rejected(self):
        with pytest.raises(ReproError):
            KeyAllocation(backward="zz")


class TestProfiles:
    def test_none_profile(self):
        profile = profile_by_name("none")
        assert not profile.protects_backward
        assert profile.scheme is None
        assert profile.keys_to_switch() == ()

    def test_backward_profile(self):
        profile = profile_by_name("backward")
        assert profile.protects_backward
        assert profile.scheme.name == "camouflage"
        assert profile.keys_to_switch() == ("ib",)

    def test_full_profile_switches_three_keys(self):
        profile = profile_by_name("full")
        # The paper's Section 6.1.1 micro-benchmarks use three keys.
        assert profile.keys_to_switch() == ("db", "ia", "ib")

    def test_compat_profile_switches_one_key(self):
        profile = ProtectionProfile(
            name="compat-full", backward_scheme="camouflage",
            forward=True, dfi=True, compat=True,
        )
        assert profile.keys_to_switch() == ("ib",)

    def test_scheme_is_cached(self):
        profile = profile_by_name("full")
        assert profile.scheme is profile.scheme

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ReproError):
            ProtectionProfile(name="x", backward_scheme="bogus")

    def test_unknown_profile_name(self):
        with pytest.raises(ReproError):
            profile_by_name("paranoid")

    def test_profile_by_name_returns_fresh_instances(self):
        assert profile_by_name("full") is not profile_by_name("full")

    def test_prototypes_exist(self):
        assert PROFILE_NONE.name == "none"
        assert PROFILE_BACKWARD.name == "backward"
        assert PROFILE_FULL.name == "full"

    def test_describe(self):
        assert "backward(camouflage)" in profile_by_name("full").describe()
        assert profile_by_name("none").describe().endswith("none")

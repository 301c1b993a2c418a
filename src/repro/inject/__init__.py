"""Adversarial scenarios and invariant checking (``repro.inject``).

One framework for every way this reproduction attacks the kernel: the
Section 6.2 exploits (ROP, replay, pointer overwrites, key leaks, brute
force) and direct state corruptions (PAC bit-flips, key-register
corruption, exception-frame tampering, mid-``cpu_switch_to`` rewrites,
canary smashes).  :data:`~repro.inject.scenarios.SCENARIOS` lists them
all; an :class:`InjectionCampaign` runs them as seeded, deterministic
trials whose product is a *detection matrix*: detected vs. blocked vs.
escaped.
"""

from repro.inject.campaign import (
    DEFAULT_SEED,
    CampaignDriver,
    DetectionMatrix,
    InjectionCampaign,
    InjectionResult,
)
from repro.inject.invariants import InvariantChecker, InvariantViolation
from repro.inject.report import (
    profile_rows,
    render_matrix,
    render_profile_table,
    render_site_listing,
)
from repro.inject.scenarios import (
    ATTACKS,
    CORRUPTIONS,
    SCENARIOS,
    ArbitraryMemoryPrimitive,
    Scenario,
    scenario_by_name,
)

__all__ = [
    "ATTACKS",
    "CORRUPTIONS",
    "DEFAULT_SEED",
    "SCENARIOS",
    "ArbitraryMemoryPrimitive",
    "CampaignDriver",
    "DetectionMatrix",
    "InjectionCampaign",
    "InjectionResult",
    "InvariantChecker",
    "InvariantViolation",
    "Scenario",
    "profile_rows",
    "render_matrix",
    "render_profile_table",
    "render_site_listing",
    "scenario_by_name",
]

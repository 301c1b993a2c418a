"""Fault-injection detection matrix as a bench experiment.

Runs the state-corruption scenarios of
:data:`~repro.inject.scenarios.CORRUPTIONS` across the three
protection profiles, invariant checker on, and condenses the outcomes
into one table: which corruptions each profile detects, which it lets
escape and which do not even apply to it.  The paper's security
argument is exactly this matrix — the full profile turns every
modelled corruption into a fault, a panic or an invariant violation.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentRecord
from repro.inject import CORRUPTIONS, InjectionCampaign, profile_rows
from repro.trace.report import TextTable

__all__ = ["run_injection_matrix"]

_PROFILES = ("none", "backward", "full")


def run_injection_matrix(seed=None, trials=1):
    """One campaign per profile; reproduced iff ``full`` has no escapes."""
    kwargs = {} if seed is None else {"seed": seed}
    matrices = [
        InjectionCampaign(
            profile=profile,
            trials=trials,
            sites=[s.name for s in CORRUPTIONS],
            **kwargs,
        ).run()
        for profile in _PROFILES
    ]
    table = TextTable(
        "Fault-injection detection matrix (outcome per profile)",
        ["site"] + list(_PROFILES),
    )
    for name, cells in profile_rows(matrices):
        table.add_row(name, *cells)
    full = matrices[-1]
    measured = ", ".join(
        f"{m.profile}: {m.detected}/{m.injected} detected"
        f" ({m.escaped} escaped)"
        for m in matrices
    )
    return ExperimentRecord(
        experiment_id="E17 / fault injection",
        paper_claim=(
            "every modelled state corruption against the protected "
            "kernel is detected (fault, panic or invariant)"
        ),
        measured=measured,
        reproduced=full.injected > 0 and full.escaped == 0,
        tables=[table],
    )

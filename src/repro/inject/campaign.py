"""Seeded adversarial-scenario campaigns over a live simulated kernel.

A campaign boots one fresh system per (scenario, trial), lets the
scenario (:mod:`repro.inject.scenarios`) corrupt live state and drive
the victim, and classifies the outcome in one place
(:meth:`InjectionCampaign._run_trial`):

* ``fault`` — the kernel killed the task (``TaskKilled``: the paper's
  poisoned-pointer detection path);
* ``panic`` — the kernel halted (``KernelPanic``: threshold, frame MAC,
  canary);
* ``invariant`` — the :class:`~repro.inject.invariants.InvariantChecker`
  caught it (``InvariantViolation``);
* ``blocked`` — the attacker's primitive itself was refused
  (``PermissionFault``, ``ModuleRejected``, ``HypervisorTrap``);
* ``escaped`` — no exception: the corruption survived undetected.
  Escapes are the product: each one is either a documented residual
  (the scenario says so) or a gap.

The first three are reported as outcome ``detected``, with the kind in
``detected_by``.

Everything is deterministic: a trial's sub-seed is a stable hash of
(campaign seed, scenario name, trial) — no ``hash()``, no wall clock —
and feeds both the trial's ``random.Random`` and the booted system's
firmware entropy.  The same seed reproduces the same matrix byte for
byte, and a single scenario run alone reproduces its row of the full
campaign.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field

from repro.cfi.keys import KeyRole
from repro.cfi.policy import profile_by_name
from repro.errors import (
    HypervisorTrap,
    KernelPanic,
    PermissionFault,
    ReproError,
    SimFault,
)
from repro.inject.invariants import InvariantChecker, InvariantViolation
from repro.inject.scenarios import (
    CANARY_VICTIM_SYMBOL,
    SCENARIOS,
    build_canary_victim,
)
from repro.kernel.fault import TaskKilled
from repro.kernel.module import ModuleRejected
from repro.kernel.system import System
from repro.trace import Tracer
from repro.workloads.guest import run_el0, syscall

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "CampaignDriver",
    "InjectionCampaign",
    "InjectionResult",
    "DetectionMatrix",
    "capabilities_of",
]

#: Default campaign seed (the one CI pins).
DEFAULT_SEED = 0xC4F1
DEFAULT_TRIALS = 2


def capabilities_of(profile):
    """Capability tags a profile provides to scenarios."""
    caps = set()
    if profile.dfi:
        caps.add("dfi")
    if profile.keys_to_switch():
        caps.add("key-switch")
    if profile.protects_backward or profile.forward or profile.dfi:
        caps.add("pac")
    return caps


class CampaignDriver:
    """One trial's worth of live kernel: a booted system plus the
    victim workloads scenarios corrupt and then drive.

    The kernel carries the canary victim plus whatever text and
    syscalls ``scenario`` adds.  The driver owns a tracer (instruction
    events on, so mid-run corruptions can key on function entries) and,
    when enabled, the invariant checker.  Scenarios use only these
    helpers plus public system API.
    """

    def __init__(
        self,
        profile="full",
        invariants=True,
        system_seed=0xC0FFEE,
        scenario=None,
    ):
        text, syscalls = (
            (scenario.text, scenario.syscalls) if scenario else ((), ())
        )
        self.system = System(
            profile=profile,
            seed=system_seed,
            syscalls=syscalls,
            text_builders=(build_canary_victim,) + tuple(text),
        )
        self.tracer = Tracer(capacity=16384, instructions=True)
        # The evidence counts this trial alone: drop the tracer a
        # process-wide session gave the system at boot.
        self.system.detach_tracer()
        self.system.attach_tracer(self.tracer)
        self.checker = (
            InvariantChecker(self.system, self.tracer) if invariants else None
        )

    def close(self):
        if self.checker is not None:
            self.checker.detach()
        self.system.detach_tracer()

    @property
    def cpu(self):
        return self.system.cpu

    @property
    def capabilities(self):
        return capabilities_of(self.system.profile)

    def at_entry(self, symbol, action):
        """Call ``action(cpu)`` whenever the first instruction of kernel
        function ``symbol`` retires — the moment a bug in that function
        would strike, with its caller's frame live."""
        entry = self.system.kernel_symbol(symbol)
        cpu = self.system.cpu

        def listener(event):
            if event.kind == "insn_retire" and event.data.get("pc") == entry:
                action(cpu)

        self.tracer.add_listener(listener)

    # -- context-switch victim workload --------------------------------------

    def prepare_switch_target(self, sp=None, sign=True):
        """Spawn a task ready to be switched to.

        Its saved PC is the host landing pad and its saved SP is
        ``sp`` (default: its own stack top) — signed under the DFI key
        when the profile protects the slot, raw otherwise.
        """
        system = self.system
        task = system.spawn_process("victim")
        task.kobj.raw_write("cpu_context_pc", system.cpu._landing_pad())
        value = sp if sp is not None else task.stack_top
        if sign and system.profile.dfi:
            key = system.profile.key_for(KeyRole.DFI)
            task.kobj.set_protected(
                "cpu_context_sp",
                value,
                system.cpu.pac,
                system.kernel_keys,
                key,
            )
        else:
            task.kobj.raw_write("cpu_context_sp", value)
        return task

    def switch_to(self, task):
        return self.system.scheduler.switch_to(task)

    def touch_stack(self):
        """Run an instrumented kernel function on the *live* SP.

        ``kernel_call`` would reset SP to the current task's stack top,
        masking a hijacked or poisoned stack pointer — this helper
        deliberately keeps whatever SP the context switch installed, so
        the function prologue's frame push is the first dereference of
        it (exactly how a poisoned SP detonates on real hardware).
        """
        cpu = self.system.cpu
        cpu.regs.current_el = 1
        cpu.regs.interrupts_masked = True
        return cpu.call(
            self.system.kernel_symbol("sys_getpid"), stack_top=None
        )

    def switch_and_touch(self, task):
        self.switch_to(task)
        return self.touch_stack()

    def provoke_pauth_failures(self, count):
        """Take ``count`` real PAuth-signature faults (Section 5.4 food).

        Each round switches to a task whose saved SP carries no valid
        PAC; the AUTDB poisons it and the next stack touch faults.
        """
        for _ in range(count):
            victim = self.prepare_switch_target(sign=False)
            self.switch_to(victim)
            try:
                self.touch_stack()
            except TaskKilled:
                pass
            else:
                raise ReproError(
                    "expected a PAuth-signature fault and saw none"
                )
            # Back onto a sane stack for the next round.
            self.system.cpu.regs.set_sp_of(1, victim.stack_top)

    # -- user-mode syscall workload ------------------------------------------

    def run_user_syscall(self, name="getpid", x0=None):
        """One ``name`` round trip from EL0 through the full entry path.

        Maps the user stack and runs ``main: [x0 = x0;] x8 = nr; svc
        #0; hlt`` on the current task, on a budget that stops a trial
        whose corruption sends the kernel into a loop.
        """
        system = self.system
        system.map_user_stack()
        number = system.syscall_numbers[name]
        return run_el0(
            system, lambda user: syscall(user, number, x0), max_steps=200_000
        )

    # -- canary victim workload ----------------------------------------------

    def call_canary_victim(self):
        return self.system.kernel_call(CANARY_VICTIM_SYMBOL)

    # -- evidence ------------------------------------------------------------

    def evidence(self):
        """Deterministic trace-derived evidence for the result row."""
        return {
            "auth_failures": self.tracer.count("auth_failure"),
            "faults": self.tracer.count("fault"),
            "threshold_ticks": self.tracer.count("panic_threshold_tick"),
            "syscalls": self.tracer.count("syscall_enter"),
            "context_switches": self.tracer.count("context_switch"),
        }


@dataclass
class InjectionResult:
    """Outcome of one (scenario, trial)."""

    site: str
    trial: int
    seed: int
    outcome: str  # "detected" | "blocked" | "escaped" | "skipped"
    detected_by: str = None  # "fault" | "panic" | "invariant"
    #: The outcome is the designed one: a detection or block of an
    #: expected kind, or the escape of a documented residual.
    expected: bool = None
    detail: str = ""
    evidence: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "site": self.site,
            "trial": self.trial,
            "seed": self.seed,
            "outcome": self.outcome,
            "detected_by": self.detected_by,
            "expected": self.expected,
            "detail": self.detail,
            "evidence": dict(self.evidence),
        }


@dataclass
class DetectionMatrix:
    """All results of one campaign, plus the campaign's identity."""

    profile: str
    seed: int
    invariants: bool
    trials: int
    results: list = field(default_factory=list)

    def _count(self, outcome):
        return sum(1 for r in self.results if r.outcome == outcome)

    @property
    def injected(self):
        return sum(1 for r in self.results if r.outcome != "skipped")

    @property
    def detected(self):
        return self._count("detected")

    @property
    def blocked(self):
        return self._count("blocked")

    @property
    def escaped(self):
        return self._count("escaped")

    @property
    def skipped(self):
        return self._count("skipped")

    def escapes(self):
        return [r for r in self.results if r.outcome == "escaped"]

    def unexpected_escapes(self):
        """Escapes that are not a documented residual."""
        return [r for r in self.escapes() if not r.expected]

    def to_dict(self):
        return {
            "profile": self.profile,
            "seed": self.seed,
            "invariants": self.invariants,
            "trials": self.trials,
            "summary": {
                "injected": self.injected,
                "detected": self.detected,
                "blocked": self.blocked,
                "escaped": self.escaped,
                "skipped": self.skipped,
            },
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


class InjectionCampaign:
    """A seeded sweep of every applicable scenario.

    Parameters
    ----------
    profile:
        Protection profile each trial's system boots with: a name or a
        :class:`~repro.cfi.policy.ProtectionProfile`.
    seed:
        Campaign seed; per-trial sub-seeds are derived from it.
    trials:
        Trials per scenario (different sub-seed, fresh system each).
    invariants:
        Attach the :class:`InvariantChecker` (the default).  Disabling
        it shows which corruptions only the checker can see.
    sites:
        Optional iterable of scenario names to restrict the campaign to.
    """

    def __init__(
        self,
        profile="full",
        seed=DEFAULT_SEED,
        trials=DEFAULT_TRIALS,
        invariants=True,
        sites=None,
    ):
        self.profile = profile
        self.seed = seed
        self.trials = trials
        self.invariants = invariants
        self.sites = None if sites is None else frozenset(sites)

    def _derived_seed(self, name, trial):
        # A stable hash: hash() is salted per process, and a position
        # in the selected list would change with the selection.
        key = f"{self.seed}/{name}/{trial}".encode()
        return zlib.crc32(key) & 0x7FFF_FFFF

    def selected_scenarios(self):
        scenarios = SCENARIOS
        if self.sites is not None:
            unknown = self.sites - {s.name for s in scenarios}
            if unknown:
                raise ReproError(
                    f"unknown injection site(s): {sorted(unknown)}"
                )
            scenarios = tuple(s for s in scenarios if s.name in self.sites)
        return scenarios

    def run(self):
        profile = self.profile
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        caps = capabilities_of(profile)
        matrix = DetectionMatrix(
            profile=profile.name,
            seed=self.seed,
            invariants=self.invariants,
            trials=self.trials,
        )
        for scenario in self.selected_scenarios():
            missing = [c for c in scenario.requires if c not in caps]
            for trial in range(self.trials):
                derived = self._derived_seed(scenario.name, trial)
                if missing:
                    matrix.results.append(
                        InjectionResult(
                            site=scenario.name,
                            trial=trial,
                            seed=derived,
                            outcome="skipped",
                            detail=(
                                f"profile {profile.name!r} lacks "
                                f"{'+'.join(missing)}"
                            ),
                        )
                    )
                    continue
                matrix.results.append(
                    self._run_trial(scenario, trial, derived)
                )
        return matrix

    def _run_trial(self, scenario, trial, derived):
        driver = CampaignDriver(
            profile=self.profile,
            invariants=self.invariants,
            system_seed=derived,
            scenario=scenario,
        )
        kind = None
        try:
            try:
                detail = scenario.inject(driver, random.Random(derived))
                if driver.checker is not None:
                    driver.checker.sweep()
            except KernelPanic as exc:
                kind, detail = "panic", str(exc)
            except TaskKilled as exc:
                kind, detail = "fault", str(exc)
            except InvariantViolation as exc:
                kind, detail = "invariant", str(exc)
            except (PermissionFault, ModuleRejected, HypervisorTrap) as exc:
                kind, detail = "blocked", str(exc)
            except (ReproError, SimFault) as exc:
                # An unclassified error is NOT a detection — the
                # corruption broke the harness, not the kernel's
                # defences.  Report it as an escape so it gets fixed.
                detail = f"harness error: {exc}"
            evidence = driver.evidence()
        finally:
            driver.close()
        result = InjectionResult(
            site=scenario.name,
            trial=trial,
            seed=derived,
            outcome="escaped",
            expected=scenario.residual,
            detail=detail or "corruption survived undetected",
            evidence=evidence,
        )
        if kind == "blocked":
            result.outcome = "blocked"
        elif kind is not None:
            result.outcome, result.detected_by = "detected", kind
        if kind is not None:
            result.expected = kind in scenario.expected
        return result

    def run_control(self):
        """One clean trial: every workload, no corruption, full sweep.

        Returns the evidence dict; raises if anything trips — a
        detection here would be a false positive in the checker or the
        fault machinery, which would make the whole matrix worthless.
        """
        driver = CampaignDriver(
            profile=self.profile,
            invariants=self.invariants,
            system_seed=self.seed,
        )
        try:
            if "dfi" in driver.capabilities:
                target = driver.prepare_switch_target()
                driver.switch_and_touch(target)
            driver.run_user_syscall()
            driver.call_canary_victim()
            if driver.checker is not None:
                driver.checker.sweep()
            return driver.evidence()
        finally:
            driver.close()

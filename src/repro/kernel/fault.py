"""Kernel fault handling and the brute-force mitigation (Section 5.4).

A failed pointer authentication does not trap by itself: it poisons the
pointer, and the subsequent dereference (or instruction fetch) raises a
memory fault on a non-canonical address.  The stock kernel would SIGKILL
the offending process and possibly OOPS; Camouflage additionally counts
these failures and *halts the system* once a threshold is crossed,
because with only 15 PAC bits (typical configuration, Appendix A) an
attacker allowed unlimited guesses would brute-force a PAC in an
expected 2^14 attempts.

The manager also realises the verification-oracle defence of
Section 6.2.3: every failure is logged with its context, so repeated
probing of any kernel path is visible and bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.vmsa import AddressKind
from repro.errors import KernelPanic, ReproError, SimFault, TranslationFault

__all__ = ["TaskKilled", "FaultRecord", "FaultManager", "DEFAULT_PAUTH_FAULT_THRESHOLD"]

#: Default number of tolerated PAuth-signature failures before panic.
DEFAULT_PAUTH_FAULT_THRESHOLD = 8


class TaskKilled(ReproError):
    """The kernel terminated the current task (SIGKILL semantics)."""

    def __init__(self, message, fault=None):
        super().__init__(message)
        self.fault = fault


@dataclass
class FaultRecord:
    """One logged fault.

    ``address`` is ``None`` when the fault carried no faulting address
    (e.g. an undefined-instruction fault); a genuine fault at address
    ``0x0`` keeps the integer 0.  The two must stay distinguishable —
    a NULL-pointer dereference is an address, "no address" is not.

    ``cycle`` is the core's cycle counter when the fault was taken, so
    dmesg lines order against trace-event timestamps; ``None`` for
    records logged outside a running core (tests, injections).
    """

    kind: str
    address: int = None
    el: int = 1
    pauth_related: bool = False
    task_id: int = None
    cycle: int = None


@dataclass
class FaultManager:
    """Counts faults, kills tasks, panics past the threshold.

    Installed as the CPU's ``fault_hook``.  A fault whose address is
    non-canonical while *inside* the valid pointer width is the
    signature of a poisoned (failed-authentication) pointer; plain wild
    accesses (unmapped but canonical) are ordinary bugs and do not count
    toward the PAuth threshold.
    """

    config: object = None  # VMSAConfig, set by the system
    threshold: int = DEFAULT_PAUTH_FAULT_THRESHOLD
    panic_on_threshold: bool = True
    records: list = field(default_factory=list)
    pauth_failures: int = 0
    current_task_id: int = None
    #: Nullable tracer; every handled fault emits a ``fault`` event and
    #: PAuth signatures additionally tick ``panic_threshold_tick``.
    tracer: object = None
    #: Nullable ``hook(cpu, fault, record)`` invoked right before a
    #: threshold panic is raised — the system installs the crash-dump
    #: capture (:mod:`repro.observe.crashdump`) here, while the register
    #: file and the kernel stack still describe the wreck.
    crash_hook: object = None

    def is_pauth_signature(self, fault):
        """Heuristic the kernel applies: non-canonical faulting address."""
        if not isinstance(fault, TranslationFault) or fault.address is None:
            return False
        if self.config is None:
            return False
        return self.config.classify(fault.address) == AddressKind.INVALID

    def __call__(self, cpu, fault):
        """CPU fault hook.  Never returns True: the faulting execution
        is always torn down, either as a task kill or a panic."""
        if not isinstance(fault, SimFault):
            return False
        pauth_related = self.is_pauth_signature(fault)
        record = FaultRecord(
            kind=type(fault).__name__,
            address=fault.address,
            el=cpu.regs.current_el,
            pauth_related=pauth_related,
            task_id=self.current_task_id,
            cycle=cpu.cycles,
        )
        self.records.append(record)
        if self.tracer is not None:
            self.tracer.emit(
                "fault",
                cycle=cpu.cycles,
                fault=type(fault).__name__,
                address=fault.address,
                el=cpu.regs.current_el,
                pauth=pauth_related,
                task=self.current_task_id,
            )
        if pauth_related:
            self.pauth_failures += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "panic_threshold_tick",
                    cycle=cpu.cycles,
                    failures=self.pauth_failures,
                    remaining=max(0, self.threshold - self.pauth_failures),
                )
            if self.panic_on_threshold and self.pauth_failures >= self.threshold:
                if self.crash_hook is not None:
                    self.crash_hook(cpu, fault, record)
                raise KernelPanic(
                    f"PAuth failure threshold reached "
                    f"({self.pauth_failures}/{self.threshold}): "
                    f"likely kernel exploitation attempt",
                    reason="pauth-threshold",
                )
        # Default kernel policy: unconditional SIGKILL of the process
        # whose system call faulted.
        where = (
            hex(fault.address) if fault.address is not None else "<no address>"
        )
        raise TaskKilled(
            f"{type(fault).__name__} at {where} "
            f"(EL{cpu.regs.current_el}) — task killed",
            fault=fault,
        )

    def log(self, kind, address=None, el=1, cycle=None):
        """Append a kernel-originated log line outside the fault hook.

        Used by subsystems that refuse work without taking a CPU fault
        — e.g. the module loader rejecting an LKM that failed static
        verification — so the operator sees the event in ``dmesg()``
        next to real faults.
        """
        record = FaultRecord(
            kind=kind,
            address=address,
            el=el,
            task_id=self.current_task_id,
            cycle=cycle,
        )
        self.records.append(record)
        if self.tracer is not None:
            self.tracer.emit(
                "fault",
                cycle=cycle,
                fault=kind,
                address=address,
                el=el,
                pauth=False,
                task=self.current_task_id,
            )
        return record

    @property
    def remaining_attempts(self):
        """Guesses an attacker has left before the system halts."""
        return max(0, self.threshold - self.pauth_failures)

    def dmesg(self):
        """Render the fault log the way an operator would read it.

        Section 6.2.3: "Any failures are also logged, ensuring that
        such vulnerable code paths can be fixed" — this is that log.
        """
        lines = []
        for record in self.records:
            tag = "PAUTH" if record.pauth_related else "FAULT"
            task = (
                f" task={record.task_id}"
                if record.task_id is not None
                else ""
            )
            where = (
                f"{record.address:#x}"
                if record.address is not None
                else "<no address>"
            )
            # The timestamp is the emitting fault's cycle count — the
            # same clock trace events carry, so dmesg interleaves with
            # trace output in order (printk-style "[ time]" prefix).
            stamp = (
                f"{record.cycle:12d}" if record.cycle is not None else "?" * 12
            )
            lines.append(
                f"[{stamp}] {tag}: {record.kind} at "
                f"{where} (EL{record.el}){task}"
            )
        if self.pauth_failures:
            lines.append(
                f"[{'-' * 12}] pauth failures: {self.pauth_failures}/"
                f"{self.threshold} before panic"
            )
        return "\n".join(lines)

    def reset(self):
        self.records.clear()
        self.pauth_failures = 0

"""The simulated AArch64 core.

An interpreter over :mod:`repro.arch.isa` instruction objects with:

* exception levels EL0 (user) and EL1 (kernel), with architectural
  exception entry/return (SVC, faults) through VBAR_EL1 vectors;
* the ARMv8.3 PAuth data path (PAC add/auth/strip against the shared
  key bank, gated by the SCTLR enable bits);
* a cycle cost model in which every PAuth computation costs the
  PA-analogue 4 cycles and PAuth key-register writes carry the extra
  cost the paper measures as ~9 cycles per key (Section 6.1.1);
* an optional feature set: construct with ``features=frozenset()`` for
  an ARMv8.0 core, on which HINT-space PAuth instructions are NOPs and
  general PAuth instructions are undefined (Section 5.5).

The core itself has no notion of tasks or system calls beyond the
exception mechanism — that is the mini-kernel's job.
"""

from __future__ import annotations

from repro import hotpath
from repro.arch.isa import SP
from repro.arch.pac import PACEngine
from repro.arch.registers import (
    KEY_REGISTER_NAMES,
    RegisterFile,
    _key_register_target,
)
from repro.arch.vmsa import VMSAConfig
from repro.errors import ReproError, SimFault
from repro.mem.mmu import MMU

__all__ = ["CPU", "CYCLES_PER_SECOND", "DecodeCacheStats", "VBAR_OFFSETS"]

_MASK64 = (1 << 64) - 1

#: Clock of the evaluation platform (Raspberry Pi 3, Cortex-A53 @1.2GHz).
CYCLES_PER_SECOND = 1_200_000_000

#: Vector offsets from VBAR_EL1 (subset: synchronous + IRQ, from
#: current-EL-with-SPx and lower-EL-AArch64).
VBAR_OFFSETS = {
    ("sync", 1): 0x200,
    ("irq", 1): 0x280,
    ("sync", 0): 0x400,
    ("irq", 0): 0x480,
}

#: Extra MSR cycles when writing half of a PAuth key register.  Zero in
#: the default calibration: with 2-cycle MSRs, installing one key from
#: immediates (8 moves + 2 MSRs = 12 cycles) and restoring one key from
#: memory (1 LDP + 2 MSRs = 6 cycles) average exactly 9 cycles per key
#: per switch — the paper's Section 6.1.1 measurement (avg 8.88).
KEY_WRITE_EXTRA_CYCLES = 0


class DecodeCacheStats:
    """Host-side decode-cache counters (never affect simulated state)."""

    __slots__ = ("hits", "misses", "flushes")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def to_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
        }


class CPU:
    """One simulated core.

    Parameters
    ----------
    mmu:
        The memory system; a fresh one is created if not given.
    config:
        VMSA configuration (pointer geometry).
    features:
        Architecture features; include ``"pauth"`` for ARMv8.3.
    """

    def __init__(self, mmu=None, config=None, features=frozenset({"pauth"})):
        self.config = config or VMSAConfig()
        self.mmu = mmu or MMU(config=self.config)
        self.regs = RegisterFile()
        self.pac = PACEngine(self.config)
        self.features = frozenset(features)
        self.cycles = 0
        self.instructions_retired = 0
        self.halted = False
        self.nzcv = (False, False, False, False)
        #: Hypervisor hook: called for every MSR; may raise HypervisorTrap.
        self.sysreg_write_hook = None
        #: Kernel hook: called with a SimFault when one is raised during
        #: execution; may handle it (return True) or re-raise.
        self.fault_hook = None
        #: Hypervisor-call service (EL2 key management ablation).
        self.hvc_hook = None
        #: Auth-failure observer (fault-free statistics for experiments).
        self.auth_failure_hook = None
        #: Nullable tracer (:class:`repro.trace.Tracer`).  Every emit
        #: site is behind one ``is not None`` check, so the disabled
        #: path costs a single attribute read and simulated cycle
        #: counts are identical with and without tracing.  A bare core
        #: created inside a process-wide trace session picks it up here
        #: (architectural events only; booting a full System layers the
        #: kernel tracepoints on top).
        self.tracer = None
        from repro.trace import attach_cpu, global_tracer

        if global_tracer() is not None:
            attach_cpu(self, global_tracer())
        #: Asynchronous interrupt plumbing: a pending IRQ line plus an
        #: optional free-running timer raising it every ``timer_period``
        #: cycles (the preemption-tick model).  IRQs are delivered
        #: between instructions whenever PSTATE.I is clear.
        self.pending_irq = False
        self.timer_period = None
        self._timer_next = None
        self.irqs_delivered = 0
        #: Host-side decode cache (see repro.hotpath): retired
        #: instructions dispatch through bound handlers keyed by
        #: (PC, EL), stamped with the MMU's fetch epoch so any write to
        #: a code page, mapping change or stage-2 update flushes it.
        #: Purely host-visible — cycle counts and retired streams are
        #: identical with the cache off (tests/test_diff_cached.py).
        self._decode_enabled = hotpath.decode_cache_enabled()
        self._decode_cache = {}
        self._decode_stamp = -1
        self.decode_stats = DecodeCacheStats()

    # -- feature queries ----------------------------------------------------

    @property
    def has_pauth(self):
        return "pauth" in self.features

    @property
    def has_banked_keys(self):
        """The Section 8 proposed ISA extension: two key banks selected
        by the ``APKSSEL_EL1`` flag, so the kernel and user key sets can
        coexist without per-entry reloading (and without XOM)."""
        return "pauth-ks" in self.features

    @property
    def _active_bank(self):
        if (
            self.has_banked_keys
            and self.regs.read_sysreg("APKSSEL_EL1") == 1
        ):
            return self.regs.alt_keys
        return self.regs.keys

    # -- operand plumbing ----------------------------------------------------

    def read_operand(self, index):
        """Read a GPR, XZR or SP operand."""
        if index == SP:
            return self.regs.sp
        return self.regs.read(index)

    def write_operand(self, index, value):
        if index == SP:
            self.regs.sp = value
            return
        self.regs.write(index, value)

    # -- memory --------------------------------------------------------------

    def load_u64(self, address):
        return self.mmu.read_u64(address, self.regs.current_el)

    def store_u64(self, address, value):
        self.mmu.write_u64(address, value, self.regs.current_el)

    # -- PAuth data path ------------------------------------------------------

    def _key(self, name):
        return self._active_bank.get(name)

    def pac_add(self, key_name, pointer, modifier):
        """PAC* semantics, honouring the SCTLR enable bit."""
        if not self.regs.sctlr_el1.enabled_for(key_name):
            return pointer & _MASK64
        return self.pac.add_pac(pointer, modifier, self._key(key_name))

    def pac_auth(self, key_name, pointer, modifier):
        """AUT* semantics: returns the stripped or poisoned pointer."""
        if not self.regs.sctlr_el1.enabled_for(key_name):
            return pointer & _MASK64
        result = self.pac.auth_pac(
            pointer, modifier, self._key(key_name), key_name=key_name
        )
        if not result.ok:
            if self.auth_failure_hook is not None:
                self.auth_failure_hook(key_name, pointer, modifier)
            if self.tracer is not None:
                self.tracer.emit(
                    "auth_failure",
                    cycle=self.cycles,
                    key=key_name,
                    pointer=pointer,
                    el=self.regs.current_el,
                )
        return result.pointer

    def pac_strip(self, pointer):
        return self.pac.strip(pointer)

    def pac_generic(self, value, modifier):
        return self.pac.generic_mac(value, modifier, self._key("ga"))

    # -- system registers -------------------------------------------------------

    def write_sysreg_checked(self, name, value):
        """MSR path: hypervisor lock check + key-write surcharge."""
        if self.sysreg_write_hook is not None:
            self.sysreg_write_hook(self, name, value)
        if name == "APKSSEL_EL1" and not self.has_banked_keys:
            from repro.errors import UndefinedInstructionFault

            raise UndefinedInstructionFault(
                "APKSSEL_EL1 requires the banked-keys ISA extension",
                el=self.regs.current_el,
            )
        if name == "APKSSEL_EL1" and self.tracer is not None:
            self.tracer.emit(
                "key_bank_select",
                cycle=self.cycles,
                bank=value & 1,
                el=self.regs.current_el,
            )
        if name in KEY_REGISTER_NAMES:
            if self.tracer is not None:
                self.tracer.emit(
                    "key_write",
                    cycle=self.cycles,
                    register=name,
                    el=self.regs.current_el,
                    shadow=not self.has_pauth,
                )
            if not self.has_pauth:
                # The registers do not exist on v8.0; the paper's
                # PA-analogue substitutes CONTEXTIDR_EL1 writes.
                self.regs.sysregs[f"shadow:{name}"] = value
                self.cycles += KEY_WRITE_EXTRA_CYCLES
                return
            self.cycles += KEY_WRITE_EXTRA_CYCLES
            prefix, half = _key_register_target(name)
            if (
                self.has_banked_keys
                and self.regs.read_sysreg("APKSSEL_EL1") == 1
            ):
                # Banked: MSR targets the currently selected bank.
                target = self.regs.alt_keys.get(prefix)
                self.pac.note_key_write(target)
                setattr(target, half, value & _MASK64)
                return
            # Flush MACs cached under the value being replaced — the
            # key-bank model requires a register write to invalidate.
            self.pac.note_key_write(self.regs.keys.get(prefix))
        self.regs.write_sysreg(name, value)

    def read_sysreg_checked(self, name):
        return self.regs.read_sysreg(name)

    # -- exceptions ----------------------------------------------------------------

    def take_exception(self, kind, syndrome=0):
        """Architectural exception entry to EL1.

        Saves the return address and source EL, masks interrupts and
        redirects the PC to the VBAR_EL1 vector for (kind, source EL).
        ``kind`` is ``"svc"`` (return PC is the next instruction) or
        ``"irq"`` (return PC is the interrupted instruction).
        """
        source_el = self.regs.current_el
        vbar = self.regs.read_sysreg("VBAR_EL1")
        if vbar == 0:
            raise ReproError(
                f"exception ({kind}) with no vector table installed"
            )
        return_pc = self.regs.pc + 4 if kind == "svc" else self.regs.pc
        if self.tracer is not None:
            self.tracer.emit(
                "exception_entry",
                cycle=self.cycles,
                exc=kind,
                source_el=source_el,
                syndrome=syndrome,
                pc=self.regs.pc,
                syscall=self.regs.read(8) if kind == "svc" else None,
            )
        self.regs.elr[1] = return_pc
        self.regs.spsr[1] = source_el
        self.regs.sysregs["ESR_EL1"] = syndrome
        self.regs.current_el = 1
        self.regs.interrupts_masked = True
        vector_kind = "irq" if kind == "irq" else "sync"
        offset = VBAR_OFFSETS[(vector_kind, source_el)]
        self.regs.pc = (vbar + offset) & _MASK64

    def exception_return(self):
        """ERET: restore the saved EL and return the saved PC."""
        target_el = self.regs.spsr[1]
        return_pc = self.regs.elr[1]
        if self.tracer is not None:
            self.tracer.emit(
                "exception_return",
                cycle=self.cycles,
                target_el=target_el,
                return_pc=return_pc,
            )
        self.regs.current_el = target_el
        self.regs.interrupts_masked = False
        return return_pc

    # -- execution -----------------------------------------------------------------

    def _maybe_deliver_irq(self):
        """Deliver a pending (or timer-raised) IRQ between instructions."""
        if self.timer_period is not None:
            if self._timer_next is None:
                self._timer_next = self.cycles + self.timer_period
            if self.cycles >= self._timer_next:
                self.pending_irq = True
                self._timer_next = self.cycles + self.timer_period
        if (
            self.pending_irq
            and not self.regs.interrupts_masked
            and self.regs.read_sysreg("VBAR_EL1")
        ):
            self.pending_irq = False
            self.irqs_delivered += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "irq_delivered",
                    cycle=self.cycles,
                    el=self.regs.current_el,
                )
            self.take_exception("irq")
            return True
        return False

    def step(self):
        """Fetch, execute and account one instruction."""
        if self.halted:
            raise ReproError("CPU is halted")
        if self._maybe_deliver_irq():
            return
        pc = self.regs.pc
        try:
            if self._decode_enabled:
                epoch = self.mmu.fetch_epoch
                if epoch != self._decode_stamp:
                    if self._decode_cache:
                        self._decode_cache.clear()
                        self.decode_stats.flushes += 1
                    self._decode_stamp = epoch
                key = (pc, self.regs.current_el)
                entry = self._decode_cache.get(key)
                if entry is None:
                    instruction = self.mmu.fetch(pc, self.regs.current_el)
                    # The bound execute method and the cost are both
                    # cacheable: cost_on depends only on the immutable
                    # feature set, and instruction objects are never
                    # mutated in place (code changes go through
                    # store/erase_instruction, which bump the epoch).
                    entry = (
                        instruction,
                        instruction.execute,
                        instruction.cost_on(self),
                    )
                    self._decode_cache[key] = entry
                    self.decode_stats.misses += 1
                else:
                    self.decode_stats.hits += 1
                instruction, execute, cost = entry
                self.cycles += cost
                next_pc = execute(self)
            else:
                instruction = self.mmu.fetch(pc, self.regs.current_el)
                cost = instruction.cost_on(self)
                self.cycles += cost
                next_pc = instruction.execute(self)
        except SimFault as fault:
            if self.fault_hook is not None and self.fault_hook(self, fault):
                return
            raise
        self.instructions_retired += 1
        if self.tracer is not None:
            self.tracer.insn(self, pc, instruction, cost)
        self.regs.pc = (pc + 4 if next_pc is None else next_pc) & _MASK64

    def run(self, max_steps=1_000_000):
        """Step until HLT (returns cycle count) or raise on overrun."""
        steps = 0
        while not self.halted:
            if steps >= max_steps:
                raise ReproError(f"exceeded {max_steps} steps at pc={self.regs.pc:#x}")
            self.step()
            steps += 1
        return self.cycles

    def call(self, address, args=(), stack_top=None, max_steps=1_000_000):
        """Host-level helper: call a simulated function and run to return.

        Sets up arguments in X0..X7, points LR at a HLT landing pad and
        runs until the function returns.  Returns (x0, cycles elapsed).
        """
        if stack_top is not None:
            self.regs.sp = stack_top
        for index, value in enumerate(args):
            self.regs.write(index, value)
        landing = self._landing_pad()
        self.regs.write(30, landing)
        self.regs.pc = address
        self.halted = False
        start_cycles = self.cycles
        steps = 0
        while not self.halted:
            if steps >= max_steps:
                raise ReproError(f"call overran {max_steps} steps")
            self.step()
            steps += 1
        self.halted = False
        return self.regs.read(0), self.cycles - start_cycles

    _LANDING_LABEL = "__landing_pad__"

    def _landing_pad(self):
        """Lazily install a HLT at a fixed kernel address."""
        existing = self.regs.sysregs.get("sim:landing")
        if existing:
            return existing
        from repro.arch.isa import Hlt

        address = 0xFFFF_0000_0000_0000 | 0x0000_FFFF_FFF0_0000
        # Map one page for the pad.
        frame = 0x7FF00
        from repro.mem.pagetable import Permissions

        self.mmu.map_range(
            address, 4096, frame, Permissions(r_el1=True, x_el1=True, x_el0=True, r_el0=True)
        )
        pa = (frame << self.mmu.page_shift)
        self.mmu.phys.store_instruction(pa, Hlt())
        self.regs.sysregs["sim:landing"] = address
        return address

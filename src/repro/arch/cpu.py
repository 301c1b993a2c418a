"""The simulated AArch64 core.

An interpreter over :mod:`repro.arch.isa` instruction objects with:

* exception levels EL0 (user) and EL1 (kernel), with architectural
  exception entry/return (SVC, faults) through VBAR_EL1 vectors;
* the ARMv8.3 PAuth data path (PAC add/auth/strip against the shared
  key bank, gated by the SCTLR enable bits);
* a cycle cost model in which every PAuth computation costs the
  PA-analogue 4 cycles and PAuth key-register writes carry the extra
  cost the paper measures as ~9 cycles per key (Section 6.1.1,
  ``isa.KEY_WRITE_EXTRA_CYCLES``);
* an optional feature set: construct with ``features=frozenset()`` for
  an ARMv8.0 core, on which HINT-space PAuth instructions are NOPs and
  general PAuth instructions are undefined (Section 5.5).

The core itself has no notion of tasks or system calls beyond the
exception mechanism — that is the mini-kernel's job.
"""

from __future__ import annotations

import re
from itertools import accumulate

from repro import hotpath
from repro.arch import isa
from repro.arch.isa import get_operand, set_operand
from repro.arch.pac import PACEngine
from repro.arch.registers import KEY_REGISTERS, RegisterFile
from repro.arch.vmsa import VMSAConfig
from repro.errors import ReproError, SimFault, UndefinedInstructionFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions

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

#: Longest translation block, in instructions.
BLOCK_LIMIT = 64

#: Runs of a cached block after which it heads a trace
#: (``CPU._form_trace``).  Most of a new task's blocks run only a few
#: times, too few to repay the compile.
HOT_BLOCK_RUNS = 8


#: A call out of generated code, which may raise or run host code.
_CALL = re.compile(r"\bcpu\.\w+\(")
#: A templated branch's exit.
_RETURN = re.compile(r"\breturn (.+)")


def _compile_trace(blocks, el, page_size):
    """One function running the trace ``blocks``, ``(pc, instructions)``
    pairs at ``el``, each block but the last closed by a branch with a
    template that was seen to go to the next block:
    ``body(cpu, executes, generation)``.  Entries are numbered across
    the trace, and ``executes`` holds their bound ``execute``s.  A class
    with a template runs inlined, its operands as literals; any other is
    called through ``executes``.  The body returns ``(k, pc)``: ``pc``
    is the next PC after entry k when entry k was a branch that left the
    trace (an inlined exit whose target is not the next block, guarded
    by ``if t != <next block>``, or the last block's branch); -1 when
    the generation moved after entry k (checked after each store or
    call); None when the caller runs entry k, the last block's final
    entry when it has no template (SVC, ERET, HLT, HostCall, ...).  An
    entry that raises leaves its index in ``cpu._block_fault``.  The
    function is memoised by its source (``isa._generate``), so traces
    of the same code at the same addresses (a rebuilt task's, say)
    share one code object."""
    lines = []
    k = 0
    for number, (pc, instructions) in enumerate(blocks):
        *body, ender = instructions
        for index, instruction in enumerate(body):
            inlined = instruction.inline(el, page_size, pc + 4 * index)
            text = "\n".join(inlined or ())
            calls = inlined is None or _CALL.search(text)
            if calls or "mmu." in text or "raise" in text:
                lines.append(f"i = {k}")
            lines += [f"executes[{k}](cpu)"] if inlined is None else inlined
            if calls or "mmu.write" in text:
                lines.append(f"if cell.value != generation: return {k}, -1")
            k += 1
        at = pc + 4 * len(body)
        if not ender.ends_block or ender.template is None:
            lines.append(f"return {k}, None")
            break
        branch = ender.inline(el, page_size, at)
        # A conditional branch not taken falls through.
        always = branch[-1].startswith("return ")
        fall = (at + 4) & _MASK64
        if number + 1 == len(blocks):
            lines += [_RETURN.sub(rf"return {k}, \1", line) for line in branch]
            if not always:
                lines.append(f"return {k}, {fall}")
        elif branch[-1] == f"return {blocks[number + 1][0]}":
            lines += branch[:-1]  # B or BL to the next block
        else:
            lines += [] if always else [f"t = {fall}"]
            lines += [_RETURN.sub(r"t = \1", line) for line in branch]
            lines.append(f"if t != {blocks[number + 1][0]}: return {k}, t")
        k += 1
    source = "\n".join([
        "def body(cpu, executes, generation):",
        *(f"    {line}" for line in isa._prologue(lines)),
        "    i = 0",
        "    try:",
        *(f"        {line}" for line in lines),
        "    except BaseException:",
        "        cpu._block_fault = i",
        "        raise",
    ])
    return isa._generate(source, "<trace>", "body")


class DecodeCacheStats:
    """Host-side decode-cache counters (never affect simulated state).

    ``hits`` and ``misses`` count dispatched instructions: those run
    from a cached block, and those run from a block built for them (on
    a cache-free core, every one).  ``flushes`` counts full flushes of
    a non-empty cache, not the page-scoped drops of a remap.
    """

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

    ``step()`` and ``run()`` share one interpreter loop.  With the
    host-side caches on, it dispatches per translation block: one
    decode-cache probe per ``(pc, EL)`` yields the straight-line run of
    instructions up to the next branch, exception or HostCall, executed
    back to back.  Once hot, a block heads a trace, one generated
    function that also runs the blocks it was seen to flow into, and
    traces run one after another without a probe per block.  Every
    architectural effect — PC, cycles, retired count, faults, IRQ
    delivery, tracing — is the same as one instruction at a time
    (``tests/test_diff_cached.py``, ``tests/test_block_compile.py``).

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
        #: Feature queries, fixed with the feature set.
        self.has_pauth = "pauth" in self.features
        #: The Section 8 proposed ISA extension: two key banks selected
        #: by the ``APKSSEL_EL1`` flag, so the kernel and user key sets
        #: can coexist without per-entry reloading (and without XOM).
        self.has_banked_keys = "pauth-ks" in self.features
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
        #: Nullable tracer (:class:`repro.trace.Tracer`).  Every emit
        #: site is behind one ``is not None`` check, so the disabled
        #: path costs a single attribute read and simulated cycle
        #: counts are identical with and without tracing.  A core
        #: created inside a process-wide trace session attaches it here,
        #: the one place the slot is read (a System booted around the
        #: core layers the kernel tracepoints on top).
        self.tracer = None
        from repro.trace import global_tracer

        if global_tracer() is not None:
            self.attach_tracer(global_tracer())
        #: Asynchronous interrupt plumbing: a pending IRQ line plus an
        #: optional free-running timer raising it every ``timer_period``
        #: cycles (the preemption-tick model).  IRQs are delivered
        #: between instructions whenever PSTATE.I is clear.
        self.pending_irq = False
        self.timer_period = None
        self._timer_next = None
        self.irqs_delivered = 0
        #: Host-side decode cache (see repro.hotpath): translation
        #: blocks keyed by (PC, EL) (see ``_build_block``), indexed by
        #: low VPN (a set of keys per page: a trace head sits under
        #: every page its trace covers) and registered with the MMU's
        #: machine generation.  A remap or unmap drops the blocks of
        #: that low VPN; a write to a fetched code frame, a stage-2
        #: update or a table install flushes it.  Purely host-visible —
        #: cycle counts and retired streams are identical with the cache
        #: off (tests/test_diff_cached.py).
        self._decode_enabled = hotpath.caches_enabled()
        self._decode_cache = {}
        self._decode_pages = {}
        #: Head key -> the low VPNs its trace indexed it under besides
        #: its own (see ``_form_trace``).
        self._trace_pages = {}
        #: Index of the entry a compiled trace raised at.
        self._block_fault = 0
        self.decode_stats = DecodeCacheStats()
        if self._decode_enabled:
            self.mmu.generation.register(
                self._decode_cache, self._decode_pages, self.decode_stats
            )

    def attach_tracer(self, tracer):
        """Emit architectural events (retires, PAC ops, exceptions, key
        writes) to ``tracer``, timestamped by this core's cycles.

        A core holding a different tracer refuses: detach it first."""
        if self.tracer is not None and self.tracer is not tracer:
            raise ReproError("this core already has a tracer attached")
        self.tracer = tracer
        self.pac.trace_hook = tracer.pac_event
        tracer.clock = lambda: self.cycles
        return tracer

    def detach_tracer(self):
        self.tracer = None
        self.pac.trace_hook = None

    #: The key bank PAC instructions, MSR and MRS address: the secondary
    #: one when a ``pauth-ks`` core has APKSSEL_EL1 = 1.  Built from the
    #: rule the inlined PAuth and MSR lines state (``isa._BANK``).
    _key_bank = isa._generate(
        f"def _key_bank(cpu):\n    regs = cpu.regs\n    return {isa._BANK}",
        "<CPU._key_bank>", "_key_bank",
    )

    # -- operand plumbing ----------------------------------------------------

    def read_operand(self, index):
        """Read a GPR, XZR or SP operand."""
        return get_operand(self.regs, index)

    def write_operand(self, index, value):
        set_operand(self.regs, index, value)

    # -- memory --------------------------------------------------------------

    def load_u64(self, address):
        return self.mmu.read_u64(address, self.regs.current_el)

    def store_u64(self, address, value):
        self.mmu.write_u64(address, value, self.regs.current_el)

    # -- PAuth data path ------------------------------------------------------

    def _key(self, name):
        return getattr(self._key_bank(), name)

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
        if not result.ok and self.tracer is not None:
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
        """MSR path: hypervisor lock check, then the write (a key write's
        surcharge is in ``Msr.cost_on``)."""
        if self.sysreg_write_hook is not None:
            self.sysreg_write_hook(self, name, value)
        if name == "APKSSEL_EL1" and not self.has_banked_keys:
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
        target = KEY_REGISTERS.get(name)
        if target is not None:
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
                return
            key = getattr(self._key_bank(), target[0])
            self.pac.note_key_write(key)
            setattr(key, target[1], value & _MASK64)
            return
        self.regs.write_sysreg(name, value)

    def read_sysreg_checked(self, name):
        target = KEY_REGISTERS.get(name)
        if target is not None:
            return getattr(getattr(self._key_bank(), target[0]), target[1])
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
        self._execute(1)

    def run(self, max_steps=1_000_000):
        """Step until HLT (returns cycle count) or raise on overrun."""
        self._execute(max_steps)
        if not self.halted:
            raise ReproError(f"exceeded {max_steps} steps at pc={self.regs.pc:#x}")
        return self.cycles

    def _build_block(self, pc, el, limit=BLOCK_LIMIT):
        """The translation block at ``pc``: instructions up to and
        including the first block-ending one, within one page and at
        most ``limit`` long, as ``[instructions, executes, body, costs,
        trace, runs, successor]``: their bound ``execute``s, those of
        all but the last, cycle-cost prefix sums (``costs[k]`` is the
        cost of the first ``k``), the compiled trace the block heads
        once it is hot (``_form_trace``), its runs before that, and the
        PC it last went to when it ran whole.  One fetch
        (``MMU.fetch_block``) translates the page once and decodes the
        words from its frame.  Only the first word may fault; a later
        one that does not decode ends the block before it, so the fault
        is raised when (and only if) execution reaches that word.
        ``execute`` and the costs are cacheable: ``cost_on`` depends
        only on the operands and the immutable feature set, and any
        write to a code frame moves the machine generation.
        """
        instructions = tuple(self.mmu.fetch_block(pc, el, limit))
        executes = tuple([i.execute for i in instructions])
        costs = (0, *accumulate([i.cost_on(self) for i in instructions]))
        return [instructions, executes, executes[:-1], costs, None, 0, None]

    def _form_trace(self, key, block):
        """The trace headed by ``block``, cached at ``key``: it and the
        cached blocks it was seen to flow into, as ``(body, executes,
        costs, pcs)``: the function ``_compile_trace`` generates, every
        entry's bound ``execute``, cycle-cost prefix sums and PC.  The
        trace follows each block's successor while the block ends in a
        branch with a template, the successor is cached but heads no
        trace (a head ends it: the chain runs that trace next) and is
        not in it already, and the trace stays within ``BLOCK_LIMIT``
        entries.  The head's key is indexed under the low VPN of every
        block, so a bump of any page the trace covers drops it, and
        ``_trace_pages`` keeps those pages until a block is built at the
        key again, which takes it out of them (``_execute``)."""
        cache = self._decode_cache
        start, el = key
        blocks, keys = [(start, block[0])], {key}
        length = len(block[0])
        while block[0][-1].ends_block and block[0][-1].template is not None:
            successor = (block[6], el)
            block = cache.get(successor)
            if (
                block is None or block[4] is not None or successor in keys
                or length + len(block[0]) > BLOCK_LIMIT
            ):
                break
            blocks.append((successor[0], block[0]))
            keys.add(successor)
            length += len(block[0])
        shift, mask = self.mmu.page_shift, self.mmu.vpn_mask
        covered = self._trace_pages[key] = {
            pc >> shift & mask for pc, _ in blocks[1:]
        }
        for page in covered:
            self._decode_pages.setdefault(page, set()).add(key)
        instructions = [i for _, run in blocks for i in run]
        return (
            _compile_trace(blocks, el, self.mmu.page_size),
            tuple([i.execute for i in instructions]),
            (0, *accumulate([i.cost_on(self) for i in instructions])),
            tuple([pc + 4 * n for pc, run in blocks for n in range(len(run))]),
        )

    def _chain(self, trace, budget):
        """Run ``trace`` from ``regs.pc``, then each trace its exit leads
        to, within ``budget`` steps: ``(steps, fault)``, the steps run
        and the SimFault that stopped the chain, if one did (with
        ``regs.pc``, ``cycles`` and ``instructions_retired`` at the
        faulting entry, as one instruction at a time leaves them).

        After each trace the three are set from its cost prefix and
        ``pcs``; an entry the trace leaves to its caller (a block ender
        without a template) runs with them set first, as in
        ``_execute``.  That entry is the only one that runs host code,
        so after it the chain reads ``current_el`` and the generation
        again and leaves on a halt, a pending IRQ, an armed timer or an
        attached tracer.  The chain also leaves on a moved generation
        mid-trace, a next PC that heads no compiled trace, and a
        budget below the next trace's length."""
        regs = self.regs
        cache = self._decode_cache
        cell = self.mmu.generation
        generation = cell.value
        el = regs.current_el
        steps = 0
        while True:
            body, executes, costs, pcs = trace
            cycles = self.cycles
            retired = self.instructions_retired
            try:
                k, pc = body(self, executes, generation)
            except BaseException as error:
                k = self._block_fault
                regs.pc = pcs[k]
                self.cycles = cycles + costs[k + 1]
                self.instructions_retired = retired + k
                if not isinstance(error, SimFault):
                    raise
                return steps + k + 1, error
            steps += k + 1
            self.cycles = cycles + costs[k + 1]
            if pc is None:
                regs.pc = pcs[k]
                self.instructions_retired = retired + k
                try:
                    pc = executes[k](self)
                except SimFault as fault:
                    return steps, fault
                self.instructions_retired += 1
                if self.tracer is not None:
                    # A hook attached one: it sees this entry retire.
                    self.tracer.insn(
                        self, pcs[k], executes[k].__self__, costs[k + 1] - costs[k]
                    )
                regs.pc = (pcs[k] + 4 if pc is None else pc) & _MASK64
                if (
                    self.halted or self.pending_irq
                    or self.timer_period is not None or self.tracer is not None
                ):
                    return steps, None
                el = regs.current_el
                generation = cell.value
            else:
                self.instructions_retired = retired + k + 1
                if pc < 0:
                    # A store moved the generation: leave after entry k.
                    regs.pc = (pcs[k] + 4) & _MASK64
                    return steps, None
                regs.pc = pc & _MASK64
            block = cache.get((regs.pc, el))
            trace = None if block is None else block[4]
            if trace is None or budget - steps < len(trace[3]):
                return steps, None

    def _execute(self, budget):
        """The one interpreter loop: up to ``budget`` steps, stopping at
        HLT.  An IRQ delivery and a fault ``fault_hook`` handles each use
        up one step.

        A decode-cache probe yields a whole translation block.  For its
        first ``HOT_BLOCK_RUNS`` runs every entry but the last runs as a
        bare ``execute``, and ``regs.pc``, ``cycles`` and
        ``instructions_retired`` are set once, from the block's cost
        prefix, just before the last entry runs.  Only block enders
        read them or run host code (a hook may halt the core, attach a
        tracer or write code), so each instruction sees the same state
        as one step at a time.  A fault mid-block, or a moved generation
        (a store over code, say) after an entry, ends the block there,
        and the state is rebuilt from the prefix.  A block that ran
        whole records the PC it went to.  Once hot, the block heads a
        compiled trace (``_form_trace``), and ``_chain`` runs it and
        the traces it leads to.  Only the first entry runs when a
        tracer is attached, an IRQ is pending or a timer is armed, or
        fewer than the block's length of steps remain, so ``step()``,
        tracing and IRQ delivery stay per instruction; a trace runs
        only when its whole length of steps remains."""
        regs = self.regs
        cache = self._decode_cache
        pages = self._decode_pages
        trace_pages = self._trace_pages
        shift, mask = self.mmu.page_shift, self.mmu.vpn_mask
        generation_cell = self.mmu.generation
        decode_enabled = self._decode_enabled
        stats = self.decode_stats
        steps = 0
        while steps < budget and not self.halted:
            interrupts = self.pending_irq or self.timer_period is not None
            if interrupts and self._maybe_deliver_irq():
                steps += 1
                continue
            start = regs.pc
            cycles = self.cycles
            retired = self.instructions_retired
            done = 0
            body = ()
            block = trace = fault = None
            built = True
            try:
                generation = generation_cell.value
                if decode_enabled:
                    key = (start, regs.current_el)
                    block = cache.get(key)
                    if block is None:
                        block = cache[key] = self._build_block(start, key[1])
                        # A trace the key headed left it under its pages.
                        for page in trace_pages.pop(key, ()):
                            pages.get(page, set()).discard(key)
                        pages.setdefault(start >> shift & mask, set()).add(key)
                    else:
                        built = False
                    instructions, executes, body, costs, trace, runs, _ = block
                    # Per-instruction mode, through the same cache.
                    if (
                        interrupts
                        or self.tracer is not None
                        or budget - steps < len(executes)
                    ):
                        body = ()
                        trace = None
                    elif trace is None:
                        if runs < HOT_BLOCK_RUNS:
                            block[5] = runs + 1
                        else:
                            trace = block[4] = self._form_trace(key, block)
                    if trace is not None and budget - steps < len(trace[3]):
                        trace = None
                else:
                    instructions, executes, body, costs, *_ = (
                        self._build_block(start, regs.current_el, 1)
                    )
                if trace is None:
                    for execute in body:
                        execute(self)
                        done += 1
                        if generation_cell.value != generation:
                            # A store moved the generation: the block
                            # ends here, as if this entry were its last.
                            self.cycles = cycles + costs[done]
                            self.instructions_retired = retired + done
                            next_pc = None
                            break
                    else:
                        regs.pc = start + 4 * done
                        self.cycles = cycles + costs[done + 1]
                        self.instructions_retired = retired + done
                        next_pc = executes[done](self)
                        self.instructions_retired += 1
                        done += 1
            except BaseException as error:
                if done < len(body):
                    # A body entry faulted: its state, from the prefix.
                    regs.pc = start + 4 * done
                    self.cycles = cycles + costs[done + 1]
                    self.instructions_retired = retired + done
                if not isinstance(error, SimFault):
                    raise
                fault = error
            if trace is not None:
                dispatched, fault = self._chain(trace, budget - steps)
            else:
                dispatched = done + 1 if fault is not None else done
            steps += dispatched
            if built:
                stats.misses += dispatched
            else:
                stats.hits += dispatched
            if fault is not None:
                if self.fault_hook is not None and self.fault_hook(self, fault):
                    continue
                raise fault
            if trace is not None:
                continue
            pc = start + 4 * (done - 1)  # the last entry run
            if self.tracer is not None:
                self.tracer.insn(
                    self, pc, instructions[done - 1],
                    costs[done] - costs[done - 1],
                )
            regs.pc = (pc + 4 if next_pc is None else next_pc) & _MASK64
            if done == len(executes) and block is not None:
                block[6] = regs.pc

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
        self.run(max_steps)
        self.halted = False
        return self.regs.read(0), self.cycles - start_cycles

    _LANDING_LABEL = "__landing_pad__"

    def _landing_pad(self):
        """Lazily install a HLT at a fixed kernel address."""
        existing = self.regs.sysregs.get("sim:landing")
        if existing:
            return existing
        address = 0xFFFF_0000_0000_0000 | 0x0000_FFFF_FFF0_0000
        # Map one page for the pad.
        frame = 0x7FF00
        self.mmu.map_range(
            address, 4096, frame, Permissions(r_el1=True, x_el1=True, x_el0=True, r_el0=True)
        )
        pa = (frame << self.mmu.page_shift)
        self.mmu.phys.store_instruction(pa, isa.Hlt(), address)
        self.regs.sysregs["sim:landing"] = address
        return address

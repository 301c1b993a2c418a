"""The adversarial scenarios: one explicit tuple, one model.

Every scenario corrupts live kernel state, then lets the kernel run
into it; the campaign (:mod:`repro.inject.campaign`) classifies what
happened.  The model is FIPAC's: a software-induced attack (the paper's
Section 3.1 adversary with an arbitrary kernel read/write primitive)
and a fault-induced corruption of the protection machinery are the
same problem — corrupt state, then check detection.

Two groups make up :data:`SCENARIOS`:

* :data:`ATTACKS` — the Section 6.2 attacks (E6/E10 rows), in the
  order the paper discusses them;
* :data:`CORRUPTIONS` — direct state corruptions of signed pointers,
  key registers, exception frames and the fault machinery (E17 rows),
  named ``<layer>.<corruption>``.

A scenario's ``inject(driver, rng)`` performs the corruption *and*
drives the victim workload.  Detection surfaces as an exception (task
kill, panic, invariant violation, refused primitive); returning
normally means the attacker got what it wanted, and the returned text
says what that was.  A scenario that neither escapes nor is stopped
raises a plain ``ReproError``, which the campaign reports as a harness
error rather than a detection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.isa import SP
from repro.arch.pac import PACEngine
from repro.arch.registers import XZR, PAuthKey
from repro.cfi.canary import CanaryKind, canary_slot_offset, emit_canary_function
from repro.cfi.keys import KeyRole
from repro.cfi.modifiers import SCHEMES
from repro.cfi.policy import profile_by_name
from repro.elfimage.image import ImageBuilder
from repro.errors import KernelPanic, ReproError, SimFault
from repro.kernel import layout
from repro.kernel.entry import FRAME_ELR_OFFSET, FRAME_SPSR_OFFSET, S_FRAME_SIZE
from repro.kernel.fault import TaskKilled
from repro.kernel.module import ModuleRejected
from repro.kernel.sched import CPU_SWITCH_TO_SYMBOL
from repro.kernel.syscalls import SyscallSpec
from repro.kernel.vfs import FILE_F_CRED_OFFSET, FILE_F_OPS_OFFSET, open_file
from repro.kernel.workqueue import init_work
from repro.workloads.guest import DATA_BASE, STACK_TOP, BareMachine

__all__ = [
    "Scenario",
    "ATTACKS",
    "CORRUPTIONS",
    "SCENARIOS",
    "ArbitraryMemoryPrimitive",
    "CANARY_VICTIM_SYMBOL",
    "build_canary_victim",
    "scenario_by_name",
    "replay_profile",
    "cross_thread_replay_accepted",
    "guess_f_ops_pac",
    "expected_guesses",
    "success_probability",
    "canary_leak_replay",
]


@dataclass(frozen=True)
class Scenario:
    """One adversarial scenario.

    Parameters
    ----------
    name:
        Stable identifier (the matrix row).
    description:
        One-line human description for the CLI listing.
    inject:
        ``inject(driver, rng)`` — corrupts state and drives the victim
        on a :class:`~repro.inject.campaign.CampaignDriver`; ``rng`` is
        the trial's seeded ``random.Random`` and the only entropy
        source.  Returns the escape detail (``None``: the default).
    requires:
        Capability tags the booted profile must provide (``"dfi"``,
        ``"key-switch"``, ``"pac"``); unmet requirements mark the trial
        skipped rather than escaped.
    expected:
        Outcome kinds that count as the designed catch (``"fault"``,
        ``"panic"``, ``"invariant"``, ``"blocked"``).
    text, syscalls:
        Extra kernel text builders and :class:`SyscallSpec` entries the
        victim kernel is built with.
    needs_invariants:
        Only the invariant checker can see the corruption: with
        invariants off the scenario is expected to escape.
    residual:
        An escape against the full design is a documented residual
        (Section 6.2.1 replay window, Section 8 frame gap), not a bug.
    """

    name: str
    description: str
    inject: object
    requires: tuple = ()
    expected: tuple = ("fault", "panic", "invariant")
    text: tuple = ()
    syscalls: tuple = ()
    needs_invariants: bool = False
    residual: bool = False


class ArbitraryMemoryPrimitive:
    """The adversary's kernel read/write primitive (Section 3.1).

    Reads and writes go through the MMU *at EL1* but must respect
    stage-2 (hypervisor) restrictions — memory corruption bugs run as
    kernel code, and even kernel code cannot write sealed frames.  A
    refused access raises :class:`~repro.errors.PermissionFault`.
    """

    def __init__(self, system):
        self.system = system

    def read_u64(self, va):
        return self.system.mmu.read_u64(va, 1)

    def write_u64(self, va, value):
        self.system.mmu.write_u64(va, value, 1)


# -- shared helpers ------------------------------------------------------------

_MARKER = 27  # callee-saved register attacker code stamps
_MODULE_BASE = 0xFFFF_0000_0C00_0000


def _require(condition, what):
    if not condition:
        raise ReproError(f"scenario had no effect: {what}")


def _kernel_load(system, pointer):
    """A kernel load through ``pointer``.

    A faulting load is handled by the kernel's fault handler exactly as
    a faulting kernel instruction would be: the task is killed, and a
    poisoned (failed-authentication) pointer counts toward the Section
    5.4 panic threshold.
    """
    try:
        return system.mmu.read_u64(pointer, 1)
    except SimFault as fault:
        system.faults(system.cpu, fault)  # always raises
        raise


def _load_field(system, obj, field):
    """What the kernel's accessor yields for ``obj.field``: the
    authenticated pointer (poisoned on failure) under DFI, the raw
    value otherwise."""
    if not system.profile.dfi:
        return obj.raw_read(field)
    pointer, _ = obj.get_protected(
        field,
        system.cpu.pac,
        system.kernel_keys,
        system.profile.key_for(KeyRole.DFI),
    )
    return pointer


# -- ROP (Section 2.1) ---------------------------------------------------------


def _build_rop_vuln(asm, ctx):
    # The attacker's landing pad, and a handler calling the leaf whose
    # "memcpy" bug reaches the handler's frame record.
    compiler = ctx.compiler
    compiler.function(
        asm, "__rop_gadget", [isa.Movz(_MARKER, 0xDEAD, 0), isa.Hlt()],
        leaf=True,
    )
    compiler.function(asm, "__memcpy_overflow", [isa.Nop()], leaf=True)
    compiler.function(
        asm, "sys_vuln", lambda a: a.emit(isa.Bl("__memcpy_overflow"))
    )


def _rop_injection(driver, rng):
    """Overwrite the live saved LR of ``sys_vuln`` with a raw gadget.

    With any backward-edge scheme the epilogue's authenticate rejects
    the raw address and the ``RET`` faults on the poisoned pointer.
    """
    system = driver.system
    gadget = system.kernel_symbol("__rop_gadget")
    primitive = ArbitraryMemoryPrimitive(system)
    # The leaf does not move SP: sys_vuln's frame record is at [sp],
    # its saved LR at [sp+8].
    driver.at_entry(
        "__memcpy_overflow",
        lambda cpu: primitive.write_u64(cpu.regs.sp + 8, gadget),
    )
    driver.run_user_syscall("vuln")
    _require(system.cpu.regs.read(_MARKER) == 0xDEAD, "gadget not entered")
    return "gadget executed via corrupted return address"


# -- replay (Sections 4.2, 6.2.1, 7) -------------------------------------------


def _emit_counter_bump(a):
    """Increment the in-memory replay counter and leave it in x10."""
    a.mov_imm(9, layout.ATTACK_SCRATCH)
    a.emit(isa.Ldr(10, 9, 0), isa.AddImm(10, 10, 1), isa.Str(10, 9, 0))


def _replay_vuln(first_helper):
    """``sys_vuln`` calls ``first_helper`` then ``__helper_f``, both at
    the same SP; the counter after the first call site reaches 2 only
    if ``__helper_f`` "returns" there, i.e. the replay worked."""

    def build(asm, ctx):
        compiler = ctx.compiler
        compiler.function(asm, "__replay_leaf", [isa.Nop()], leaf=True)
        for helper in ("__helper_g", "__helper_f"):
            compiler.function(
                asm, helper, lambda a: a.emit(isa.Bl("__replay_leaf"))
            )

        def body(a):
            a.emit(isa.Bl(first_helper))
            _emit_counter_bump(a)
            a.emit(isa.SubsImm(31, 10, 2), isa.BCond("ge", "__vuln_out"))
            a.emit(isa.Bl("__helper_f"))
            a.label("__vuln_out")

        compiler.function(asm, "sys_vuln", body)

    return (SyscallSpec("vuln", build),)


def _replay(driver, rng):
    """Capture a live signed return address, splice it into a later
    frame at the same SP (an arbitrary read, then a write)."""
    system = driver.system
    mmu = system.mmu
    captured = []

    def capture_or_replay(cpu):
        slot = cpu.regs.sp + 8  # the helper's saved LR
        value = mmu.read_u64(slot, 1)
        if not captured:
            captured.append(value)
        elif value != captured[0]:
            mmu.write_u64(slot, captured[0], 1)

    driver.at_entry("__replay_leaf", capture_or_replay)
    mmu.write_u64(layout.ATTACK_SCRATCH, 0, 1)
    driver.run_user_syscall("vuln")
    replays = mmu.read_u64(layout.ATTACK_SCRATCH, 1)
    _require(replays >= 2, f"replay did not redirect control ({replays})")
    scheme = system.profile.backward_scheme or "none"
    return f"[{scheme}] signed pointer replayed (counter={replays})"


def replay_profile(profile, scheme):
    """A copy of ``profile`` signing return addresses with ``scheme``.

    The caller's profile object is never modified: profiles are shared
    prototypes (``repro.cfi.policy.PROFILE_BACKWARD``).  A profile
    without backward-edge CFI is returned unchanged.
    """
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    if not profile.protects_backward:
        return profile
    return dataclasses.replace(profile, backward_scheme=scheme, _scheme=None)


def cross_thread_replay_accepted(scheme_name, stack_stride, pac_engine=None):
    """Host-level cross-thread replay check (paper Section 7).

    Signs a return address in thread A's frame and authenticates it
    against thread B's frame modifier, with the two kernel stacks
    ``stack_stride`` bytes apart — same function, same stack depth.
    Truncated-SP modifiers repeat across threads: PARTS keeps 16 SP
    bits, which collide at 64 KiB strides; Camouflage keeps 32.
    Returns True when the (real, QARMA-backed) authentication accepts
    the replayed pointer.
    """
    engine = pac_engine or PACEngine()
    scheme = SCHEMES[scheme_name]()
    key = PAuthKey(lo=0x1122334455667788, hi=0x99AABBCCDDEEFF00)
    function = 0xFFFF_0000_0801_2340
    return_address = 0xFFFF_0000_0801_4444
    sp_a = layout.KERNEL_STACK_REGION + layout.KERNEL_STACK_SIZE - 0x40
    sp_b = sp_a + stack_stride
    mod_a = scheme.compute(sp_a, function, function_id=7)
    mod_b = scheme.compute(sp_b, function, function_id=7)
    signed = engine.add_pac(return_address, mod_a, key)
    return engine.auth_pac(signed, mod_b, key).ok


# -- writable function pointers (Section 4.4) ----------------------------------


def _callback_text(asm, ctx):
    ctx.compiler.function(
        asm, "__benign_callback", [isa.Work(3), isa.Movz(0, 1, 0)], leaf=True
    )
    # commit_creds(prepare_kernel_cred(0)), in spirit.
    ctx.compiler.function(
        asm,
        "__escalate_privileges",
        [isa.Movz(_MARKER, 0xBAD, 0), isa.Movz(0, 0, 0)],
        leaf=True,
    )
    # Entering past its first instruction is a JOP gadget.
    ctx.compiler.function(
        asm,
        "__long_function",
        [isa.Work(2), isa.Nop(), isa.Movz(_MARKER, 0xEE, 0), isa.Work(2)],
        leaf=True,
    )


def _work_callback_overwrite(symbol, offset, marker):
    """Replace a ``work_struct.func`` with ``symbol + offset``; the
    kernel consumes it via ``run_work``."""

    def inject(driver, rng):
        system = driver.system
        work = init_work(
            system,
            system.heap.allocate(system.registry.type("work_struct")),
            system.kernel_symbol("__benign_callback"),
        )
        target = system.kernel_symbol(symbol) + offset
        ArbitraryMemoryPrimitive(system).write_u64(work.address, target)
        system.cpu.regs.write(_MARKER, 0)
        system.kernel_call("run_work", args=(work.address,))
        _require(system.cpu.regs.read(_MARKER) == marker, "target not run")
        return f"kernel called attacker pointer {target:#x}"

    return inject


# -- operations tables and data pointers (Sections 4.4, 4.5) -------------------


def _evil_read_text(asm, ctx):
    def body(a):
        # An in-memory marker: registers are restored on kernel exit.
        a.mov_imm(9, layout.ATTACK_SCRATCH)
        a.mov_imm(10, 0xF00D)
        a.emit(isa.Str(10, 9, 0), isa.Movz(0, 0, 0))

    ctx.compiler.function(asm, "__evil_read", body, leaf=True)


def _ops_table_swap(driver, rng):
    """Repoint ``f_ops`` at a fake table in writable memory whose
    ``read`` slot is attacker code, then ``read()`` from user space."""
    system = driver.system
    victim = open_file(system, "ext4_fops")
    system.install_fd(3, victim)
    primitive = ArbitraryMemoryPrimitive(system)
    fake_table = system.heap.allocate_raw(32)
    primitive.write_u64(fake_table, system.kernel_symbol("__evil_read"))
    primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake_table)
    system.mmu.write_u64(layout.ATTACK_SCRATCH, 0, 1)
    driver.run_user_syscall("read", x0=3)
    _require(
        system.mmu.read_u64(layout.ATTACK_SCRATCH, 1) == 0xF00D,
        "dispatch did not reach the attacker function",
    )
    return "read() dispatched through the attacker's fake ops table"


def _rodata_write(driver, rng):
    """Overwrite a function pointer inside the const ops table."""
    system = driver.system
    ArbitraryMemoryPrimitive(system).write_u64(
        system.kernel_symbol("ext4_fops"), 0xDEAD_BEEF
    )
    return "rodata was writable (hypervisor sealing missing!)"


def _cred_pointer_swap(driver, rng):
    """Swap ``f_cred`` for a forged root credential; the kernel then
    reads the uid through it."""
    system = driver.system
    victim = open_file(
        system, "ext4_fops", cred_address=system.heap.allocate_raw(64)
    )
    primitive = ArbitraryMemoryPrimitive(system)
    forged = system.heap.allocate_raw(64)
    primitive.write_u64(forged, 0)  # uid = 0 (root)
    primitive.write_u64(victim.address + FILE_F_CRED_OFFSET, forged)
    cred = _load_field(system, victim, "f_cred")
    uid = _kernel_load(system, cred)
    return f"kernel now uses forged credentials at {cred:#x} (uid {uid})"


# -- PAC brute force and the verification oracle (Sections 5.4, 6.2.3) ---------


def _forge_f_ops(system, forgeries):
    """Plant forged ``f_ops`` values until one authenticates.

    ``forgeries(target)`` yields candidate pointers for the canonical
    attacker target.  Each rejected candidate is a kernel load through
    the poisoned pointer: a task kill the attacker shrugs off, counted
    toward the panic threshold.  Returns the accepted attempt's number.
    """
    victim = open_file(system, "ext4_fops")
    target = system.kernel_symbol("sockfs_write")
    attempts = 0
    for forged in forgeries(system.config.canonicalize(target)):
        attempts += 1
        victim.raw_write("f_ops", forged)
        pointer = _load_field(system, victim, "f_ops")
        if pointer == target:
            return attempts
        try:
            _kernel_load(system, pointer)
        except TaskKilled:
            pass  # respawn, guess again
    raise ReproError(f"no forgery accepted in {attempts} attempts")


def guess_f_ops_pac(system, rng, max_guesses=1 << 16):
    """Brute-force the PAC of a protected ``f_ops`` pointer.

    Enumerates the kernel PAC space in ``rng``-shuffled order; returns
    the number of guesses to the first accepted one.  With the Section
    5.4 threshold active the kernel panics long before that.
    """
    pac_bits = system.config.pac_size(kernel=True)
    field_bits = system.config.pac_field_bits(kernel=True)
    candidates = list(range(1 << pac_bits))
    rng.shuffle(candidates)

    def forgeries(target):
        for candidate in candidates[:max_guesses]:
            forged = target
            for index, bit in enumerate(field_bits):
                if (candidate >> index) & 1:
                    forged |= 1 << bit
                else:
                    forged &= ~(1 << bit)
            yield forged

    return _forge_f_ops(system, forgeries)


def expected_guesses(pac_bits):
    """Expected tries to hit one of the 2^bits PAC values (≈ 2^(b-1))."""
    return (1 << pac_bits) // 2


def success_probability(threshold, pac_bits):
    """P[success before panic] with ``threshold`` tolerated failures."""
    space = 1 << pac_bits
    return 1.0 - ((space - 1) / space) ** threshold


def _pac_brute_force(driver, rng):
    system = driver.system
    if not system.profile.dfi:
        return "no PAC to guess: pointer accepted on the first write"
    guesses = guess_f_ops_pac(system, rng)
    return (
        f"PAC guessed after {guesses} attempts "
        f"(2^{system.config.pac_size(kernel=True)} space)"
    )


def _verification_oracle(driver, rng):
    """Use a kernel path as a verification oracle for forged PACs."""
    system = driver.system
    if not system.profile.dfi:
        return "nothing to probe: pointers are unauthenticated"
    probes = _forge_f_ops(
        system,
        lambda target: (target | (c & 0x7F) << 48 for c in range(1 << 12)),
    )
    return f"oracle confirmed a forgery after {probes} probes"


# -- key confidentiality (Sections 4.1, 6.2.2) ---------------------------------


def _xom_key_read(driver, rng):
    """Read the key immediates out of the XOM setter page."""
    system = driver.system
    if system.key_setter_address is None:
        return "no key setter installed (unprotected kernel has no keys)"
    code = ArbitraryMemoryPrimitive(system).read_u64(system.key_setter_address)
    return f"read setter code: {code:#x} (keys recoverable)"


def _evil_module(name, instructions):
    asm = Assembler(_MODULE_BASE)
    asm.fn(f"{name}_init")
    asm.emit(*instructions, isa.Ret())
    builder = ImageBuilder(name, _MODULE_BASE)
    builder.add_text(".text", asm.assemble())
    return builder.build()


def _module_mrs_keys(driver, rng):
    """Load an LKM that reads the IB key registers."""
    system = driver.system
    module = _evil_module(
        "evil_mrs", [isa.Mrs(0, "APIBKeyLo_EL1"), isa.Mrs(1, "APIBKeyHi_EL1")]
    )
    system.modules.load(module)
    system.kernel_call(module.symbols["evil_mrs_init"])
    leaked = system.cpu.regs.read(0)
    keys = system.kernel_keys
    _require(keys is not None and leaked == keys.ib.lo, "no key material")
    return f"module read IB key: {leaked:#x}"


def _sctlr_disable(driver, rng):
    """Clear the PAuth enable flags: via an LKM, then a run-time MSR."""
    system = driver.system
    module = _evil_module(
        "evil_sctlr", [isa.Movz(0, 0, 0), isa.Msr("SCTLR_EL1", 0)]
    )
    try:
        system.modules.load(module)
    except ModuleRejected:
        pass  # the static verifier held; try the run-time variant
    else:
        return "module accepted (scan missed the MSR!)"
    system.cpu.write_sysreg_checked("SCTLR_EL1", 0)
    return "run-time SCTLR_EL1 write accepted after lockdown"


# -- exception frames (Section 8) ----------------------------------------------

_HIJACK_PC = layout.USER_TEXT_BASE + 0x1000
_HIJACK_MARKER = 19


def _tamper_frame(driver, offset, value):
    """One user ``getpid()``; rewrite saved-frame word ``offset`` when
    the handler starts — after entry saved the frame, before the exit
    path reads it back."""
    system = driver.system
    slot = system.tasks.current.stack_top - S_FRAME_SIZE + offset
    done = []

    def tamper(cpu):
        if not done:
            done.append(True)
            system.mmu.write_u64(slot, value, 1)

    driver.at_entry("sys_getpid", tamper)
    driver.run_user_syscall()
    _require(done, "no syscall handler ran")


def _exception_frame_tamper(driver, rng):
    """Rewrite the saved ELR of a live syscall frame so ERET "returns"
    into an attacker landing pad.  The frame is data, not a protected
    pointer: only the frame-MAC extension (or the checker) sees it."""
    system = driver.system
    pad = Assembler(_HIJACK_PC)
    pad.fn("hijack")
    pad.emit(isa.Movz(_HIJACK_MARKER, 0x4A4A, 0), isa.Hlt())
    system.load_user_program(pad.assemble())
    _tamper_frame(driver, FRAME_ELR_OFFSET, _HIJACK_PC)
    _require(
        system.cpu.regs.read(_HIJACK_MARKER) == 0x4A4A,
        "user flow was not redirected",
    )
    return "ERET resumed user execution at the attacker-chosen PC"


def _frame_elr_tamper(driver, rng):
    """Redirect the saved ELR to a *mapped* user address (the program's
    own entry).  Nothing faults; only the entry/return ELR pairing
    invariant sees it."""
    _tamper_frame(driver, FRAME_ELR_OFFSET, layout.USER_TEXT_BASE)


def _frame_spsr_el_escalation(driver, rng):
    """Flip the saved SPSR from EL0 to EL1.  The checker rejects the
    ERET; without it, the first EL1 fetch of user text faults."""
    _tamper_frame(driver, FRAME_SPSR_OFFSET, 1)


# -- signed saved SP and the context switch (Section 5.2) ----------------------


def _signed_sp_bitflip(driver, rng):
    """Flip one PAC bit in a correctly signed saved SP, then switch."""
    target = driver.prepare_switch_target()
    raw = target.kobj.raw_read("cpu_context_sp")
    engine = driver.system.cpu.pac
    bit = rng.choice(list(engine.config.pac_field_bits(engine._is_kernel(raw))))
    target.kobj.raw_write("cpu_context_sp", raw ^ (1 << bit))
    driver.switch_and_touch(target)


def _wrong_modifier_resign(driver, rng):
    """Substitute a genuine signature made under the previous task's
    modifier into the next task's slot."""
    system = driver.system
    target = driver.prepare_switch_target(sign=False)
    donor = system.tasks.current
    key = system.profile.key_for(KeyRole.DFI)
    saved = donor.kobj.raw_read("cpu_context_sp")
    fake_sp = target.stack_top - 16 * rng.randint(1, 32)
    donor.kobj.set_protected(
        "cpu_context_sp", fake_sp, system.cpu.pac, system.kernel_keys, key
    )
    replayed = donor.kobj.raw_read("cpu_context_sp")
    donor.kobj.raw_write("cpu_context_sp", saved)
    target.kobj.raw_write("cpu_context_sp", replayed)
    driver.switch_and_touch(target)


def _mid_switch_sp_redirect(driver, rng):
    """Write a raw SP into the next task's struct *while*
    ``cpu_switch_to`` runs: after it was signed, before the switch
    path loads and authenticates it."""
    system = driver.system
    target = driver.prepare_switch_target()
    fake = system.tasks.current.stack_top - 16 * rng.randint(8, 64)
    driver.at_entry(
        CPU_SWITCH_TO_SYMBOL,
        lambda cpu: target.kobj.raw_write("cpu_context_sp", fake),
    )
    driver.switch_and_touch(target)


# -- the core's PAuth configuration --------------------------------------------


def _key_register_corruption(driver, rng):
    """Flip a bit of the live DFI key between syscalls: the genuine
    saved-SP signature stops authenticating."""
    system = driver.system
    target = driver.prepare_switch_target()  # signed under the true key
    key = system.cpu.regs.keys.get(system.profile.key_for(KeyRole.DFI))
    key.lo ^= 1 << rng.randrange(64)
    driver.switch_and_touch(target)


def _sctlr_enable_clear(driver, rng):
    """Clear EnDA/EnDB so AUT* degrades to a NOP, then hijack a saved
    SP — the silent downgrade hardening requirement R2 forbids."""
    system = driver.system
    sctlr = system.cpu.regs.sctlr_el1
    sctlr.en_da = False
    sctlr.en_db = False
    fake = system.tasks.current.stack_top - 16 * rng.randint(4, 64)
    target = driver.prepare_switch_target(sp=fake, sign=False)
    driver.switch_and_touch(target)


# -- the Section 5.4 fault machinery -------------------------------------------


def _counter_rollback(driver, rng):
    """Take real PAuth faults, then roll the failure counter back."""
    driver.provoke_pauth_failures(2)
    driver.system.faults.pauth_failures = rng.randrange(0, 2)


def _threshold_tamper(driver, rng):
    """Raise the panic threshold (or disable the panic) at run time."""
    faults = driver.system.faults
    faults.threshold += rng.randrange(100, 1 << 20)
    if rng.random() < 0.5:
        faults.panic_on_threshold = False


# -- stack canaries (related work [26]) ----------------------------------------

CANARY_VICTIM_SYMBOL = "canary_victim"


def _canary_panic(cpu):
    raise KernelPanic(
        "stack canary clobbered: __stack_chk_fail", reason="stack-canary"
    )


def build_canary_victim(asm, ctx):
    """Text builder: a canary-guarded function with a linear overflow.

    The canary kind follows the profile: PACed canaries on any profile
    that uses PAC instructions, none on the unprotected baseline (which
    is how the baseline's escape shows up honestly in the matrix).
    """
    profile = ctx.profile
    uses_pac = profile.protects_backward or profile.forward or profile.dfi
    kind = CanaryKind.PACED if uses_pac else CanaryKind.NONE

    def body(a):
        # The "memcpy": when the smash slot holds a value, the copy
        # runs one word past the buffer and lands on the canary slot.
        a.mov_imm(9, layout.CANARY_SMASH_SLOT)
        a.emit(isa.Ldr(10, 9, 0))
        a.emit(isa.SubsImm(XZR, 10, 0), isa.BCond("eq", "__canary_clean"))
        a.emit(isa.Str(10, SP, canary_slot_offset()))
        a.label("__canary_clean")
        a.emit(isa.Movz(0, 0x55, 0))

    emit_canary_function(
        asm, CANARY_VICTIM_SYMBOL, kind, body, stack_chk_fail=_canary_panic
    )


def _linear_overflow(driver, rng):
    """Smash the canary slot through the victim's linear overflow."""
    smash = rng.getrandbits(64) | 1
    driver.system.mmu.write_u64(layout.CANARY_SMASH_SLOT, smash, 1)
    driver.call_canary_victim()


def canary_leak_replay(kind):
    """Leak a canary from one frame, replay it over another (bare CPU).

    The attacker reads the canary of a helper frame at a different SP,
    then linear-overflows the victim's buffer: junk over the locals,
    the leaked canary over the guard slot, a gadget over the saved LR.
    A global guard falls to the single read; a PACed canary is
    per-frame.  Returns True when the overflow went undetected.
    """
    if kind not in CanaryKind.ALL:
        raise ReproError(f"unknown canary kind {kind!r}")
    machine = BareMachine()
    cpu = machine.cpu
    cpu.regs.keys.ga = PAuthKey(0x6A6A, 0x7B7B)
    cpu.mmu.write_u64(DATA_BASE, 0x1337_C0DE_5EED_F00D, 1)
    leaked, caught = [], []

    def leak(machine):
        leaked.append(
            machine.mmu.read_u64(machine.regs.sp + canary_slot_offset(), 1)
        )

    def overflow(machine):
        sp = machine.regs.sp
        for offset in range(0, canary_slot_offset(), 8):
            machine.mmu.write_u64(sp + offset, 0x4141414141414141, 1)
        machine.mmu.write_u64(sp + canary_slot_offset(), leaked[0], 1)
        machine.mmu.write_u64(sp + 56, program.address_of("__gadget"), 1)

    asm = machine.assembler()
    asm.fn("__gadget")
    asm.emit(isa.Movz(_MARKER, 0xBEEF, 0), isa.Hlt())
    for name, hook in (("helper", leak), ("victim", overflow)):
        emit_canary_function(
            asm, name, kind,
            body=lambda a, hook=hook: a.emit(isa.HostCall(hook, hook.__name__)),
            guard_address=DATA_BASE,
            stack_chk_fail=lambda machine: caught.append(True),
        )
    program = machine.place(asm.assemble())
    # Leak from the helper at a deeper SP, overflow the victim.
    cpu.call(program.address_of("helper"), stack_top=STACK_TOP - 0x200)
    cpu.regs.write(_MARKER, 0)
    cpu.call(program.address_of("victim"), stack_top=STACK_TOP)
    if caught:
        return False
    return kind == CanaryKind.NONE or cpu.regs.read(_MARKER) == 0xBEEF


# -- the registry --------------------------------------------------------------

#: The Section 6.2 attacks (E6/E10), in the order the paper discusses
#: them.  Each runs on every profile: an escape against ``none`` is the
#: baseline the protection is measured against.
ATTACKS = (
    Scenario(
        "rop-injection",
        "overwrite a live signed return address with a raw gadget",
        _rop_injection,
        expected=("fault",),
        syscalls=(SyscallSpec("vuln", _build_rop_vuln),),
    ),
    Scenario(
        "replay-cross-function",
        "replay a captured signed LR into another function's frame at "
        "the same SP",
        _replay,
        expected=("fault",),
        syscalls=_replay_vuln("__helper_g"),
    ),
    Scenario(
        "replay-same-function",
        "replay a captured signed LR into a later activation of the same "
        "function at the same SP",
        _replay,
        expected=("fault",),
        syscalls=_replay_vuln("__helper_f"),
        residual=True,
    ),
    Scenario(
        "fnptr-overwrite",
        "replace a writable work_struct callback with a function entry",
        _work_callback_overwrite("__escalate_privileges", 0, 0xBAD),
        expected=("fault",),
        text=(_callback_text,),
    ),
    Scenario(
        "jop-gadget",
        "replace a writable work_struct callback with a mid-function "
        "gadget",
        _work_callback_overwrite("__long_function", 8, 0xEE),
        expected=("fault",),
        text=(_callback_text,),
    ),
    Scenario(
        "ops-table-swap",
        "repoint file->f_ops at a fake table in writable memory",
        _ops_table_swap,
        expected=("fault",),
        text=(_evil_read_text,),
    ),
    Scenario(
        "rodata-fops-write",
        "write a function pointer inside a const ops table",
        _rodata_write,
        expected=("blocked",),
    ),
    Scenario(
        "cred-pointer-swap",
        "swap file->f_cred for a forged root credential",
        _cred_pointer_swap,
        expected=("fault",),
    ),
    Scenario(
        "pac-brute-force",
        "enumerate the PAC of a protected f_ops pointer",
        _pac_brute_force,
        expected=("panic",),
    ),
    Scenario(
        "xom-key-read",
        "read the key immediates out of the XOM key-setter page",
        _xom_key_read,
        expected=("blocked",),
    ),
    Scenario(
        "module-mrs-keys",
        "load an LKM that reads the key registers with MRS",
        _module_mrs_keys,
        expected=("blocked",),
    ),
    Scenario(
        "sctlr-disable",
        "clear the SCTLR_EL1 PAuth enables via an LKM and a run-time MSR",
        _sctlr_disable,
        expected=("blocked",),
    ),
    Scenario(
        "verification-oracle",
        "probe a kernel path with forged pointers as a PAC oracle",
        _verification_oracle,
        expected=("panic",),
    ),
    # The Section 8 future-work gap: escapes every published profile
    # with the checker off; the frame_mac extension closes it.
    Scenario(
        "exception-frame-tamper",
        "rewrite the saved ELR of a live syscall frame to an attacker "
        "landing pad",
        _exception_frame_tamper,
        expected=("invariant", "panic"),
        residual=True,
    ),
)

#: Direct corruptions of the protection machinery (E17), by name.
CORRUPTIONS = (
    Scenario(
        "canary.linear-overflow",
        "linear stack-buffer overflow clobbering the canary word of a "
        "guarded kernel function",
        _linear_overflow,
        expected=("panic",),
    ),
    Scenario(
        "cpu.key-register-corruption",
        "flip a bit in a live kernel PAuth key register between syscalls; "
        "previously signed pointers must stop authenticating",
        _key_register_corruption,
        requires=("dfi", "key-switch"),
        expected=("fault", "invariant"),
    ),
    Scenario(
        "cpu.sctlr-enable-clear",
        "clear SCTLR_EL1 EnDA/EnDB so AUT* degrades to a NOP, then hijack "
        "a saved SP (R2 downgrade attack)",
        _sctlr_enable_clear,
        requires=("dfi",),
        expected=("invariant",),
        needs_invariants=True,
    ),
    Scenario(
        "entry.frame-elr-tamper",
        "rewrite the saved ELR in the exception frame mid-syscall; ERET "
        "resumes user space at an attacker-chosen address",
        _frame_elr_tamper,
        expected=("invariant", "panic"),
        needs_invariants=True,
    ),
    Scenario(
        "entry.frame-spsr-el-escalation",
        "rewrite the saved SPSR from EL0 to EL1 mid-syscall; ERET "
        "'returns' to kernel mode at a user-controlled PC",
        _frame_spsr_el_escalation,
        expected=("invariant", "fault"),
    ),
    Scenario(
        "fault.counter-rollback",
        "reset pauth_failures after real authentication faults, restoring "
        "the attacker's brute-force budget",
        _counter_rollback,
        requires=("dfi",),
        expected=("invariant",),
        needs_invariants=True,
    ),
    Scenario(
        "fault.threshold-tamper",
        "raise the Section 5.4 panic threshold (or disable the panic) out "
        "from under the fault manager",
        _threshold_tamper,
        expected=("invariant",),
        needs_invariants=True,
    ),
    Scenario(
        "pac.signed-sp-bitflip",
        "flip one PAC bit in the signed saved SP before a context switch; "
        "AUTDB must poison it and the stack touch must fault",
        _signed_sp_bitflip,
        requires=("dfi",),
        expected=("fault",),
    ),
    Scenario(
        "pac.wrong-modifier-resign",
        "replay a genuine signature under another task's modifier into "
        "the saved-SP slot (substitution attack)",
        _wrong_modifier_resign,
        requires=("dfi",),
        expected=("fault",),
    ),
    Scenario(
        "sched.mid-switch-sp-redirect",
        "rewrite the saved SP in the task struct mid-cpu_switch_to, racing "
        "the authenticate on the switch path",
        _mid_switch_sp_redirect,
        requires=("dfi",),
        expected=("fault",),
    ),
)

#: Every scenario a campaign knows, in matrix row order.
SCENARIOS = ATTACKS + CORRUPTIONS


def scenario_by_name(name):
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"no scenario {name!r}; known: {[s.name for s in SCENARIOS]}"
    )

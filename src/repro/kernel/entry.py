"""Exception vectors and the kernel entry/exit paths (Sections 2.3, 3.3).

Because the PAuth key registers are *not banked* between exception
levels, every kernel entry — system call **or user-mode interrupt** —
must install the kernel keys before any instrumented kernel code runs,
and every exit must restore the user thread's keys before ERET:

* entry: save the user GPRs plus ELR/SPSR to the task's kernel stack,
  call the XOM key setter (immediates + MSRs, GPRs scrubbed —
  Section 5.1), then dispatch (the syscall table for SVC, the
  registered handler for IRQ);
* exit: call ``__restore_user_keys`` (per-thread keys from the
  ``thread_struct``), restore ELR/SPSR and the GPRs, ERET.

Both stubs are hand-written assembly (no prologue instrumentation: they
do not return via RET) and run with interrupts masked, which is what
keeps the half-switched key window from being preempted.

**Exception-frame MAC (paper Section 8, future work).**  The paper
notes that "attacks targeting the interrupt handler could potentially
modify or replace kernel register content".  The saved frame (pt_regs)
is ordinary kernel memory: an arbitrary-write attacker can rewrite the
saved ELR or LR while the kernel runs and hijack state on ERET.  The
optional ``frame_mac`` profile flag implements the paper's suggested
direction: entry chains a PACGA MAC over the saved ELR and LR (keyed
with the kernel GA key, salted with SP, so it binds this exact frame),
and exit recomputes and compares — a mismatch is treated as an
exploitation attempt and panics the system.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.cpu import VBAR_OFFSETS
from repro.arch.isa import SP
from repro.arch.registers import XZR
from repro.boot.bootloader import KEY_SETTER_SYMBOL
from repro.errors import KernelPanic, ReproError
from repro.kernel.task import TASK_USER_KEYS_OFFSET, USER_KEY_ORDER

__all__ = [
    "S_FRAME_SIZE",
    "FRAME_ELR_OFFSET",
    "FRAME_SPSR_OFFSET",
    "FRAME_MAC_OFFSET",
    "ENTRY_HOUSEKEEPING_CYCLES",
    "EXIT_HOUSEKEEPING_CYCLES",
    "IRQ_HOUSEKEEPING_CYCLES",
    "VECTORS_SYMBOL",
    "RESTORE_USER_KEYS_SYMBOL",
    "IRQ_HANDLER_SYMBOL",
    "build_vectors_and_entry",
    "build_restore_user_keys",
    "EntryTracepoints",
]

#: Saved-register frame: x0..x30 at 0..240, then ELR, SPSR and the
#: optional frame MAC; padded to 16 bytes.
FRAME_ELR_OFFSET = 248
FRAME_SPSR_OFFSET = 256
FRAME_MAC_OFFSET = 264
S_FRAME_SIZE = 288

#: Cycles of entry/exit housekeeping beyond the GPR save/restore.  A
#: real arm64 kernel entry also runs spectre/MTE mitigations, lockdep
#: and context tracking, etc.; these calibrated, profile-independent
#: costs stand in for that unmodeled work so *relative* overheads match
#: the evaluation platform (they inflate every profile equally).
ENTRY_HOUSEKEEPING_CYCLES = 60
EXIT_HOUSEKEEPING_CYCLES = 50
#: Interrupt controller acknowledge/EOI stand-in.
IRQ_HOUSEKEEPING_CYCLES = 40

VECTORS_SYMBOL = "vectors"
RESTORE_USER_KEYS_SYMBOL = "__restore_user_keys"
IRQ_HANDLER_SYMBOL = "__handle_irq"

_KEY_REGISTER = {
    "ia": ("APIAKeyLo_EL1", "APIAKeyHi_EL1"),
    "ib": ("APIBKeyLo_EL1", "APIBKeyHi_EL1"),
    "da": ("APDAKeyLo_EL1", "APDAKeyHi_EL1"),
    "db": ("APDBKeyLo_EL1", "APDBKeyHi_EL1"),
    "ga": ("APGAKeyLo_EL1", "APGAKeyHi_EL1"),
}


def _frame_mac_panic(cpu):
    raise KernelPanic(
        "exception-frame MAC mismatch: saved register content was "
        "tampered with while the kernel ran",
        reason="frame-mac",
    )


def _pad_to(asm, target_offset):
    """Fill with NOPs until the next emitted address hits the offset.

    Only safe before any pseudo-instructions are emitted (MOVImm would
    throw the count off); the vector stubs below use plain branches.
    """
    emitted = sum(1 for kind, _ in asm._items if kind == "insn")
    current = 4 * emitted
    if current > target_offset:
        raise ReproError(
            f"vector code overflows offset {target_offset:#x} "
            f"(at {current:#x})"
        )
    while current < target_offset:
        asm.emit(isa.Nop())
        current += 4


def _save_frame():
    """kernel_entry: push x0..x30, ELR and SPSR onto the kernel stack."""
    out = [isa.SubImm(SP, SP, S_FRAME_SIZE)]
    for pair_index in range(15):
        reg = 2 * pair_index
        out.append(isa.Stp(reg, reg + 1, SP, 16 * pair_index))
    out.append(isa.Str(30, SP, 240))
    out.append(isa.Mrs(9, "ELR_EL1"))
    out.append(isa.Str(9, SP, FRAME_ELR_OFFSET))
    out.append(isa.Mrs(10, "SPSR_EL1"))
    out.append(isa.Str(10, SP, FRAME_SPSR_OFFSET))
    return out


def _compute_frame_mac():
    """Chain a PACGA over the saved (ELR, LR), salted with SP.

    Must run *after* the key setter: the MAC is keyed with the kernel
    GA key, which does not exist in the registers before then.  The
    few instructions in between leave a short unprotected window, the
    same trade-off the real proposal would face.
    """
    return [
        isa.Ldr(9, SP, FRAME_ELR_OFFSET),
        isa.Ldr(10, SP, 240),
        isa.PacGa(11, 9, SP),
        isa.PacGa(11, 10, 11),
        isa.Str(11, SP, FRAME_MAC_OFFSET),
    ]


def _verify_frame_mac():
    """Recompute the frame MAC and compare (exit path, pre-restore)."""
    return [
        isa.Ldr(9, SP, FRAME_ELR_OFFSET),
        isa.Ldr(10, SP, 240),
        isa.PacGa(11, 9, SP),
        isa.PacGa(11, 10, 11),
        isa.Ldr(12, SP, FRAME_MAC_OFFSET),
        isa.SubsReg(XZR, 11, 12),
        isa.BCond("eq", "__frame_mac_ok"),
        isa.HostCall(_frame_mac_panic, "frame-mac-panic"),
    ]


def _restore_frame():
    """kernel_exit: restore ELR/SPSR, pop x0..x30, release the frame."""
    out = [
        isa.Ldr(9, SP, FRAME_ELR_OFFSET),
        isa.Msr("ELR_EL1", 9),
        isa.Ldr(10, SP, FRAME_SPSR_OFFSET),
        isa.Msr("SPSR_EL1", 10),
    ]
    for pair_index in range(15):
        reg = 2 * pair_index
        out.append(isa.Ldp(reg, reg + 1, SP, 16 * pair_index))
    out.append(isa.Ldr(30, SP, 240))
    out.append(isa.AddImm(SP, SP, S_FRAME_SIZE))
    return out


def build_vectors_and_entry(asm, profile, syscall_count, syscall_table_address):
    """Emit the vector table, the syscall path and the IRQ path.

    The assembler's base must be the intended VBAR_EL1 value (2 KiB
    aligned).  ``syscall_table_address`` is the fixed read-only page
    holding the handler pointers.

    Emitted symbols: ``vectors`` (VBAR), ``el0_sync``, ``el0_irq``,
    ``ret_to_user``.  The key setter is referenced as the extern symbol
    :data:`~repro.boot.bootloader.KEY_SETTER_SYMBOL`; the IRQ body
    calls the instrumented :data:`IRQ_HANDLER_SYMBOL`, which must exist
    in the main kernel text.
    """
    if asm.base % 0x800:
        raise ReproError("vector base must be 2 KiB aligned")
    switch_keys = bool(profile.keys_to_switch())
    frame_mac = getattr(profile, "frame_mac", False)

    asm.label(VECTORS_SYMBOL)
    # Current-EL synchronous vector: unexpected in this model — halt.
    _pad_to(asm, VBAR_OFFSETS[("sync", 1)])
    asm.fn("el1_sync")
    asm.emit(isa.Hlt())
    _pad_to(asm, VBAR_OFFSETS[("irq", 1)])
    asm.fn("el1_irq")
    asm.emit(isa.Hlt())
    # Lower-EL (user) vectors: syscalls and interrupts.
    _pad_to(asm, VBAR_OFFSETS[("sync", 0)])
    asm.fn("el0_sync_vector")
    asm.emit(isa.B("el0_sync"))
    _pad_to(asm, VBAR_OFFSETS[("irq", 0)])
    asm.fn("el0_irq_vector")
    asm.emit(isa.B("el0_irq"))
    _pad_to(asm, 0x500)

    # ---- system call path -------------------------------------------------
    asm.fn("el0_sync")
    asm.emit(*_save_frame())
    asm.emit(isa.Work(ENTRY_HOUSEKEEPING_CYCLES))
    if switch_keys:
        # Install kernel keys before any instrumented code runs.  The
        # setter scrubs the GPRs it used, so the user's x0/x1 must be
        # reloaded from the saved frame afterwards.
        asm.emit(isa.Bl(KEY_SETTER_SYMBOL))
        asm.emit(isa.Ldp(0, 1, SP, 0))
    if frame_mac:
        asm.emit(*_compute_frame_mac())
    # Dispatch: syscall number in x8, bounded by the table size.
    asm.emit(isa.SubsImm(XZR, 8, syscall_count))
    asm.emit(isa.BCond("cs", "bad_syscall"))
    asm.mov_imm(9, syscall_table_address)
    asm.emit(
        isa.LslImm(10, 8, 3),
        isa.AddReg(9, 9, 10),
        isa.Ldr(9, 9, 0),
        isa.Blr(9),
    )
    asm.emit(isa.Str(0, SP, 0))  # handler result into the saved x0

    asm.label("ret_to_user")
    asm.emit(isa.Work(EXIT_HOUSEKEEPING_CYCLES))
    if frame_mac:
        asm.emit(*_verify_frame_mac())
        asm.label("__frame_mac_ok")
    if switch_keys:
        asm.emit(isa.Bl(RESTORE_USER_KEYS_SYMBOL))
    asm.emit(*_restore_frame())
    asm.emit(isa.Eret())

    asm.label("bad_syscall")
    asm.mov_imm(0, (-38) & ((1 << 64) - 1))  # -ENOSYS
    asm.emit(isa.Str(0, SP, 0))
    asm.emit(isa.B("ret_to_user"))

    # ---- interrupt path ---------------------------------------------------
    asm.fn("el0_irq")
    asm.emit(*_save_frame())
    asm.emit(isa.Work(IRQ_HOUSEKEEPING_CYCLES))
    if switch_keys:
        asm.emit(isa.Bl(KEY_SETTER_SYMBOL))
    if frame_mac:
        asm.emit(*_compute_frame_mac())
    asm.emit(isa.Bl(IRQ_HANDLER_SYMBOL))
    asm.label("ret_from_irq")
    if frame_mac:
        asm.emit(*_verify_frame_mac_irq())
        asm.label("__frame_mac_ok_irq")
    if switch_keys:
        asm.emit(isa.Bl(RESTORE_USER_KEYS_SYMBOL))
    asm.emit(*_restore_frame())
    asm.emit(isa.Eret())
    return asm


def _verify_frame_mac_irq():
    """IRQ-path copy of the MAC check (distinct branch label)."""
    return [
        isa.Ldr(9, SP, FRAME_ELR_OFFSET),
        isa.Ldr(10, SP, 240),
        isa.PacGa(11, 9, SP),
        isa.PacGa(11, 10, 11),
        isa.Ldr(12, SP, FRAME_MAC_OFFSET),
        isa.SubsReg(XZR, 11, 12),
        isa.BCond("eq", "__frame_mac_ok_irq"),
        isa.HostCall(_frame_mac_panic, "frame-mac-panic"),
    ]


def _symbol_range(image, symbol):
    """The half-open address range of ``symbol`` in ``image``.

    The end is the next symbol above it (symbols in this image model
    are function entry points, so consecutive symbols bound function
    bodies); a symbol with nothing above it gets a one-page bound.
    """
    start = image.symbols.get(symbol)
    if start is None:
        return None
    above = [a for a in image.symbols.values() if a > start]
    return (start, min(above) if above else start + 0x1000)


class EntryTracepoints:
    """Kernel-entry semantic events, derived from architectural ones.

    Registered as a tracer listener by
    :meth:`~repro.kernel.system.System.attach_tracer`.  It watches the
    raw core events and emits the entry layer's semantic stream:

    * ``syscall_enter``/``syscall_exit`` and ``irq_enter``/``irq_exit``
      from exception entry/return (exit events carry the full kernel
      round-trip cost, so syscall latency histograms come for free);
    * ``key_switch`` — one per 128-bit key installed, with the cycles
      attributable to that key (immediate materialisation + MSRs on the
      entry path, LDP + MSRs on the exit path: the 12- and 6-cycle
      halves of the paper's ~9-cycles-per-key average, Section 6.1.1);
    * ``key_bank_switch`` — one per traversal of the XOM key setter or
      ``__restore_user_keys``, with the total cycles spent inside
      (including modifier scrubbing and the return).

    Cycle attribution works by PC region: instruction-retire events are
    binned against the key setter's page and the restore function's
    symbol range, so the instrumented entry stubs themselves need no
    extra instructions — traced and untraced kernels execute the exact
    same text.
    """

    def __init__(self, system, tracer):
        self.system = system
        self.tracer = tracer
        self._exceptions = []  # stack of (kind, enter cycle, syscall nr)
        self._regions = self._key_regions()
        self._bank = None
        self._bank_cycles = 0
        self._since_key = 0
        self._keys_done = 0
        self._half_writes = 0
        self._key_pending = None

    def _key_regions(self):
        """PC ranges of the two key-switching code bodies."""
        system = self.system
        regions = {}
        setter = system.key_setter_address
        if setter is not None:
            in_image = _symbol_range(system.kernel_image, KEY_SETTER_SYMBOL)
            if in_image is not None:
                regions["kernel"] = in_image
            else:
                # The XOM setter owns its page outright.
                regions["kernel"] = (setter, (setter & ~0xFFF) + 0x1000)
        restore = _symbol_range(
            system.kernel_image, RESTORE_USER_KEYS_SYMBOL
        )
        if restore is not None:
            regions["user"] = restore
        return regions

    # -- listener ------------------------------------------------------------

    def __call__(self, event):
        kind = event.kind
        if kind == "insn_retire":
            self._on_insn(event)
        elif kind == "key_write":
            self._on_key_write(event)
        elif kind == "exception_entry":
            self._on_exception_entry(event)
        elif kind == "exception_return":
            self._on_exception_return(event)

    # -- exception bracketing -------------------------------------------------

    def _on_exception_entry(self, event):
        if event.data.get("source_el") != 0:
            return
        if event.data.get("exc") == "svc":
            nr = event.data.get("syscall")
            self.tracer.emit("syscall_enter", cycle=event.cycle, nr=nr)
            self._exceptions.append(("svc", event.cycle, nr))
        else:
            self.tracer.emit("irq_enter", cycle=event.cycle)
            self._exceptions.append(("irq", event.cycle, None))

    def _on_exception_return(self, event):
        if event.data.get("target_el") != 0 or not self._exceptions:
            return
        kind, entered, nr = self._exceptions.pop()
        cost = event.cycle - entered
        if kind == "svc":
            self.tracer.emit(
                "syscall_exit", cycle=event.cycle, cost=cost, nr=nr
            )
        else:
            self.tracer.emit("irq_exit", cycle=event.cycle, cost=cost)

    # -- key-switch accounting -------------------------------------------------

    def _bank_of(self, pc):
        for bank, (start, end) in self._regions.items():
            if start <= pc < end:
                return bank
        return None

    def _on_insn(self, event):
        bank = self._bank_of(event.data.get("pc", 0))
        if bank != self._bank:
            if self._bank is not None:
                self.tracer.emit(
                    "key_bank_switch",
                    cycle=event.cycle,
                    cost=self._bank_cycles,
                    bank=self._bank,
                    keys=self._keys_done,
                )
            self._bank = bank
            self._bank_cycles = 0
            self._since_key = 0
            self._keys_done = 0
            self._half_writes = 0
            self._key_pending = None
        if bank is None:
            return
        self._bank_cycles += event.cost
        self._since_key += event.cost
        if self._key_pending is not None:
            # The MSR that completed the key has now retired, so its
            # own cycles are included in the per-key attribution.
            self._keys_done += 1
            self.tracer.emit(
                "key_switch",
                cycle=event.cycle,
                cost=self._since_key,
                key=self._key_pending,
                bank=bank,
            )
            self._since_key = 0
            self._key_pending = None

    def _on_key_write(self, event):
        if self._bank is None:
            return
        self._half_writes += 1
        if self._half_writes % 2 == 0:
            register = event.data.get("register", "")
            self._key_pending = register[2:4].lower() or "??"


def build_irq_handler(asm, compiler, irq_dispatch=None):
    """Emit the instrumented top-half IRQ handler into the kernel text.

    The handler models interrupt-controller work plus the registered
    host device action (timer tick accounting, etc.).
    """

    def body(a):
        a.emit(isa.Work(12))
        if irq_dispatch is not None:
            a.emit(isa.HostCall(irq_dispatch, "irq-dispatch"))

    compiler.function(asm, IRQ_HANDLER_SYMBOL, body)
    return asm


def build_restore_user_keys(asm, profile, current_ptr_address, banked=False):
    """Emit ``__restore_user_keys``: reload user keys from the task.

    Loads ``current``, then for each key the profile switched, LDPs the
    (lo, hi) pair from the thread area and MSRs it back.  Scratch
    registers are scrubbed before returning — the same discipline as
    the kernel setter, though these are *user* keys and their
    confidentiality matters only against other processes.

    With the banked-keys ISA extension (``banked=True``) the user keys
    stay resident in the secondary bank, so "restoring" them is a
    single write of the select flag.
    """
    asm.fn(RESTORE_USER_KEYS_SYMBOL)
    if banked:
        asm.emit(
            isa.Movz(9, 1, 0),
            isa.Msr("APKSSEL_EL1", 9),
            isa.Movz(9, 0, 0),
            isa.Ret(),
        )
        return asm
    keys = profile.keys_to_switch()
    if keys:
        asm.mov_imm(9, current_ptr_address)
        asm.emit(isa.Ldr(9, 9, 0))
        for key_name in keys:
            index = USER_KEY_ORDER.index(key_name)
            offset = TASK_USER_KEYS_OFFSET + 16 * index
            lo_reg, hi_reg = _KEY_REGISTER[key_name]
            asm.emit(
                isa.Ldp(10, 11, 9, offset),
                isa.Msr(lo_reg, 10),
                isa.Msr(hi_reg, 11),
            )
        asm.emit(
            isa.Movz(9, 0, 0), isa.Movz(10, 0, 0), isa.Movz(11, 0, 0)
        )
    asm.emit(isa.Ret())
    return asm

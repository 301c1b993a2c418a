"""Kdump-style crash capture with an authenticated stack unwind.

When the PAuth fault threshold trips (paper Section 5.4) the fault
manager invokes the system's crash hook before raising
:class:`~repro.errors.KernelPanic`; the hook calls
:meth:`CrashDump.capture`, which snapshots — while the wreck is still
warm — the register file, a frame-pointer walk of the kernel stack, the
tail of the trace ring buffer, the dmesg log, the task table and a
disassembly window around the faulting PC.

The unwinder is *authenticated*: every saved return address on the
stack was signed by the active backward-edge scheme, so the walk
recomputes each frame's modifier host-side (using the boot-generated
key bank as ground truth) and authenticates the stored pointer.  The
frame's owning function — whose entry address the camouflage modifier
folds in — is recovered from the call instruction preceding the
(stripped) return address, which handles leaf frames and ``blr``-based
dispatch alike.  A frame that fails authentication is reported as
*broken* with no symbol: a tampered return address must never be
dressed up as a plausible backtrace entry.

:func:`force_pauth_panic` builds the smallest system that dies this
way — a three-deep instrumented call chain whose leaf authenticates a
garbage pointer and dereferences the poison — and is what
``python -m repro crash`` (and CI's sample-artifact step) runs.
"""

from __future__ import annotations

import json

from repro.arch.isa import decode
from repro.arch.registers import FP, LR
from repro.cfi.keys import KeyRole
from repro.errors import KernelPanic, ReproError, SimFault
from repro.observe.symbols import SymbolTable

__all__ = [
    "CrashDump",
    "unwind",
    "force_pauth_panic",
    "CRASHME_SYSCALL",
]

#: Name of the syscall :func:`force_pauth_panic` installs.
CRASHME_SYSCALL = "crashme"

#: Ring-buffer events retained in a dump.
DEFAULT_RING_TAIL = 32

#: Frame-pointer walk bound (cycles in a corrupted chain must not hang).
DEFAULT_MAX_FRAMES = 24


def _silenced(engine):
    """Host-side PAC use during capture must not pollute the trace."""

    class _Silencer:
        def __enter__(self):
            self.hook = engine.trace_hook
            engine.trace_hook = None

        def __exit__(self, *exc):
            engine.trace_hook = self.hook
            return False

    return _Silencer()


def _instruction_at(system, address):
    """Decode the word mapped at ``address`` (None if it is no
    instruction), without marking its frame fetched."""
    mmu = system.cpu.mmu
    frame = mmu.frame_of(address)
    if frame is None or address % 4:
        return None
    phys = mmu.phys
    pa = frame * phys.page_size + address % phys.page_size
    word = int.from_bytes(phys.read(pa, 4), "little")
    return decode(word, address, phys.host_calls)


def _call_target(system, return_address):
    """Callee of the call site preceding ``return_address`` (or None).

    ``bl`` sites name their target statically; ``blr`` dispatch does
    not, and the caller falls back to the previous frame's containment.
    """
    call = _instruction_at(system, (return_address - 4) & ((1 << 64) - 1))
    if call is not None and call.mnemonic == "bl":
        return call.target
    return None


def unwind(system, symbols=None, max_frames=DEFAULT_MAX_FRAMES):
    """Authenticated frame-pointer walk; list of frame dicts.

    Each frame: ``kind`` (``pc`` / ``return`` / ``exception``),
    ``address`` (authenticated or stripped), ``symbol`` (None when the
    frame failed authentication), ``raw`` (the stored, possibly signed
    value) and ``authenticated`` (True/False, or None when the active
    profile signs nothing to check).
    """
    cpu = system.cpu
    regs = cpu.regs
    mmu = cpu.mmu
    symbols = symbols or SymbolTable.from_system(system)
    profile = system.profile
    scheme = profile.scheme
    key_name = (
        profile.key_for(KeyRole.BACKWARD) if profile.protects_backward else None
    )
    key = system.kernel_keys.get(key_name) if key_name else None
    task = system.tasks.current if system.tasks is not None else None

    def frame(kind, address, symbol_name, raw=None, authenticated=None):
        return {
            "kind": kind,
            "address": address,
            "symbol": symbol_name,
            "raw": raw if raw is not None else address,
            "authenticated": authenticated,
        }

    frames = [frame("pc", regs.pc, symbols.name_of(regs.pc))]
    fallback_entry = symbols.resolve(regs.pc).entry
    fp = regs.read(FP)
    seen = set()
    with _silenced(cpu.pac):
        while fp and len(frames) < max_frames and fp not in seen:
            seen.add(fp)
            if task is not None and not (
                task.stack_base <= fp <= task.stack_top - 16
            ):
                break
            try:
                saved_fp = mmu.read_u64(fp, el=1)
                raw_lr = mmu.read_u64(fp + 8, el=1)
            except SimFault:
                break
            authenticated = None
            address = raw_lr
            symbol_name = None
            if scheme is not None and key is not None:
                stripped = cpu.pac.strip(raw_lr)
                owner_entry = _call_target(system, stripped)
                if owner_entry is None:
                    owner_entry = fallback_entry or 0
                owner = symbols.resolve(owner_entry)
                function_id = None
                if hasattr(scheme, "function_id") and owner.entry is not None:
                    function_id = scheme.function_id(owner.name)
                modifier = scheme.compute(
                    sp=fp + 16,
                    function_address=owner_entry,
                    function_id=function_id,
                )
                result = cpu.pac.auth_pac(
                    raw_lr, modifier, key, key_name=key_name
                )
                authenticated = result.ok
                address = result.pointer if result.ok else stripped
                if result.ok:
                    symbol_name = symbols.name_of(address)
            else:
                symbol_name = symbols.name_of(address)
            frames.append(
                frame("return", address, symbol_name, raw_lr, authenticated)
            )
            fallback_entry = symbols.resolve(address).entry
            fp = saved_fp
        if task is not None and regs.current_el == 1:
            frames.extend(
                _exception_frame(system, symbols, task)
            )
    return frames


def _exception_frame(system, symbols, task):
    """The saved EL0 context at the top of the current kernel stack."""
    from repro.kernel.entry import (
        FRAME_ELR_OFFSET,
        FRAME_MAC_OFFSET,
        S_FRAME_SIZE,
    )

    mmu = system.cpu.mmu
    base = task.stack_top - S_FRAME_SIZE
    try:
        elr = mmu.read_u64(base + FRAME_ELR_OFFSET, el=1)
    except SimFault:
        return []
    mac_ok = None
    if system.profile.frame_mac:
        try:
            saved_lr = mmu.read_u64(base + 8 * LR, el=1)
            stored = mmu.read_u64(base + FRAME_MAC_OFFSET, el=1)
        except SimFault:
            return []
        ga = system.kernel_keys.get("ga")
        engine = system.cpu.pac
        mac = engine.generic_mac(elr, base, ga)
        mac = engine.generic_mac(saved_lr, mac, ga)
        mac_ok = mac == stored
    symbol_name = None if mac_ok is False else symbols.name_of(elr)
    return [
        {
            "kind": "exception",
            "address": elr,
            "symbol": symbol_name,
            "raw": elr,
            "authenticated": mac_ok,
        }
    ]


class CrashDump:
    """One captured crash: a JSON-safe dict with typed accessors."""

    def __init__(self, data):
        self.data = data

    @classmethod
    def capture(cls, system, fault=None, record=None,
                ring_tail=DEFAULT_RING_TAIL,
                max_frames=DEFAULT_MAX_FRAMES):
        cpu = system.cpu
        regs = cpu.regs
        registers = {f"x{index}": regs.read(index) for index in range(31)}
        registers.update(
            pc=regs.pc,
            sp=regs.sp,
            sp_el0=regs.sp_of(0),
            sp_el1=regs.sp_of(1),
            current_el=regs.current_el,
            elr_el1=regs.elr.get(1, 0),
            spsr_el1=regs.spsr.get(1, 0),
            nzcv=list(cpu.nzcv),
        )
        reason = "pauth-threshold"
        fault_info = None
        if fault is not None:
            fault_info = {
                "kind": type(fault).__name__,
                "address": getattr(fault, "address", None),
                "poison": None,
            }
            address = fault_info["address"]
            if address is not None:
                fault_info["poison"] = cpu.pac.decode_poison(address)
        elif record is not None:
            fault_info = {
                "kind": record.kind,
                "address": record.address,
                "poison": None,
            }
        stack_words = []
        sp = regs.sp
        for slot in range(16):
            address = sp + 8 * slot
            try:
                value = cpu.mmu.read_u64(address, el=regs.current_el)
            except SimFault:
                break
            stack_words.append({"address": address, "value": value})
        tail = []
        if system.tracer is not None:
            tail = [
                event.to_dict()
                for event in system.tracer.events()[-ring_tail:]
            ]
        tasks = []
        if system.tasks is not None:
            current = system.tasks.current
            for tid, task in sorted(system.tasks.tasks.items()):
                tasks.append(
                    {
                        "tid": tid,
                        "name": task.name,
                        "stack_base": task.stack_base,
                        "stack_top": task.stack_top,
                        "alive": task.alive,
                        "current": current is task,
                    }
                )
        data = {
            "reason": reason,
            "profile": system.profile.name,
            "cycle": cpu.cycles,
            "instructions_retired": cpu.instructions_retired,
            "pauth_failures": system.faults.pauth_failures,
            "fault_threshold": system.faults.threshold,
            "fault": fault_info,
            "registers": registers,
            "stack": stack_words,
            "frames": unwind(system, max_frames=max_frames),
            "events": tail,
            "dmesg": system.faults.dmesg().splitlines(),
            "tasks": tasks,
            "disassembly": _disassembly_window(system, regs.pc),
        }
        return cls(data)

    # -- accessors -----------------------------------------------------------

    @property
    def frames(self):
        return self.data["frames"]

    @property
    def registers(self):
        return self.data["registers"]

    # -- persistence ---------------------------------------------------------

    def to_dict(self):
        return self.data

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls(json.load(handle))


def _disassembly_window(system, pc, before=6, after=6):
    """(address, text, is_pc) rows around the faulting instruction,
    decoded from memory."""
    rows = []
    for address in range(max(0, pc - 4 * before), pc + 4 * after + 4, 4):
        instruction = _instruction_at(system, address)
        if instruction is not None:
            rows.append(
                {
                    "address": address,
                    "text": instruction.text(),
                    "pc": address == pc,
                }
            )
    return rows


# -- the forced Section 5.4 panic --------------------------------------------


def _build_crashme(asm, ctx):
    """A depth-3 instrumented chain whose leaf trips a PAuth fault.

    ``sys_crashme`` -> ``__crash_mid`` -> ``__crash_victim``; the victim
    authenticates an *unsigned* kernel pointer (guaranteed PAC
    mismatch), poisoning it non-canonical, then dereferences it — the
    translation fault the fault manager classifies as PAuth-related.
    """
    from repro.arch import isa
    from repro.kernel import layout

    compiler = ctx.compiler
    compiler.function(
        asm,
        "__crash_victim",
        [
            isa.MovImm(10, 0x42),
            isa.MovImm(9, layout.KERNEL_IMAGE_BASE),
            isa.Aut("ia", 9, 10),
            isa.Ldr(9, 9, 0),
        ],
    )
    compiler.function(asm, "__crash_mid", [isa.Bl("__crash_victim")])
    compiler.function(asm, "sys_crashme", [isa.Bl("__crash_mid")])


def force_pauth_panic(profile="full", tracer=None, capacity=8192,
                      fault_threshold=1):
    """Boot, crash, and return the system with ``last_crash`` captured."""
    from repro.kernel.syscalls import SyscallSpec
    from repro.kernel.system import System
    from repro.trace import Tracer
    from repro.workloads.guest import run_el0, syscall

    system = System(
        profile=profile,
        syscalls=[SyscallSpec(name=CRASHME_SYSCALL, build=_build_crashme)],
        fault_threshold=fault_threshold,
    )
    if tracer is None:
        tracer = Tracer(capacity=capacity)
    # The dump's ring holds this run alone: drop the tracer a
    # process-wide session gave the system at boot.
    system.detach_tracer()
    system.attach_tracer(tracer)
    system.map_user_stack()
    number = system.syscall_numbers[CRASHME_SYSCALL]
    try:
        run_el0(
            system,
            lambda user: syscall(user, number),
            task=system.spawn_process(name="crashme"),
        )
    except KernelPanic:
        pass
    else:
        raise ReproError("crashme workload did not panic")
    if system.last_crash is None:
        raise ReproError("panic did not capture a crash dump")
    return system

"""Stack canaries — classic and PACed (paper related work [26]).

The paper's related work cites "Protecting the stack with PACed
canaries" (Liljestrand et al., SysTEX'19) as a PAuth mechanism that was
not designed for the kernel.  This module implements both designs on
the simulated compiler so they can be compared against the paper's
backward-edge CFI:

* **global canary** (stock ``-fstack-protector``): one secret word in
  kernel data (``__stack_chk_guard``); every protected function copies
  it below the frame record and compares before returning.  A linear
  overflow that does not know the value is caught — but the threat
  model's arbitrary-read leaks the global in one shot, after which
  every overflow can simply rewrite it;
* **PACed canary**: the canary is ``PACGA(SP)`` under the GA key — a
  *per-frame* value an attacker cannot forge for a different frame even
  after leaking as many canaries as it likes.

Canaries guard against linear overflows only; they complement (not
replace) return-address signing, which also stops targeted writes that
skip the canary slot.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.isa import SP
from repro.cfi.instrument import frame_pop, frame_push
from repro.errors import ReproError

__all__ = [
    "CANARY_GUARD_SYMBOL",
    "CanaryKind",
    "emit_canary_function",
    "canary_slot_offset",
]

#: Kernel-data symbol holding the classic global guard value.
CANARY_GUARD_SYMBOL = "__stack_chk_guard"

#: Locals area carved below the frame record: [buffer][canary].
_LOCALS_SIZE = 48
_CANARY_OFFSET = 40
_BUFFER_SIZE = 32


class CanaryKind:
    """Which canary design a function is built with."""

    NONE = "none"
    GLOBAL = "global"
    PACED = "paced"

    ALL = (NONE, GLOBAL, PACED)


def canary_slot_offset():
    """Offset of the canary slot from the function's SP (for attacks)."""
    return _CANARY_OFFSET


def _emit_canary_store(asm, kind, guard_address):
    if kind == CanaryKind.GLOBAL:
        asm.mov_imm(9, guard_address)
        asm.emit(isa.Ldr(9, 9, 0), isa.Str(9, SP, _CANARY_OFFSET))
    elif kind == CanaryKind.PACED:
        # Per-frame: MAC the frame address itself under the GA key.
        asm.emit(
            isa.MovReg(9, SP),
            isa.PacGa(10, 9, 9),
            isa.Str(10, SP, _CANARY_OFFSET),
        )


def _emit_canary_check(asm, kind, guard_address, fail_label):
    if kind == CanaryKind.GLOBAL:
        asm.mov_imm(9, guard_address)
        asm.emit(
            isa.Ldr(9, 9, 0),
            isa.Ldr(10, SP, _CANARY_OFFSET),
            isa.SubsReg(31, 9, 10),
            isa.BCond("ne", fail_label),
        )
    elif kind == CanaryKind.PACED:
        asm.emit(
            isa.MovReg(9, SP),
            isa.PacGa(10, 9, 9),
            isa.Ldr(11, SP, _CANARY_OFFSET),
            isa.SubsReg(31, 10, 11),
            isa.BCond("ne", fail_label),
        )


def emit_canary_function(
    asm,
    name,
    kind,
    body,
    guard_address=0,
    scheme=None,
    scheme_key="ib",
    stack_chk_fail=None,
):
    """Emit a function with a stack buffer guarded by a canary.

    Layout below the frame record: a 32-byte buffer at ``[sp]`` and the
    canary at ``[sp+40]``.  ``body`` is a callable receiving the
    assembler (run with the locals live); the canary is verified before
    the locals are released and the (optionally signed) frame record is
    popped.

    ``stack_chk_fail`` is a host callable invoked on mismatch (the
    ``__stack_chk_fail`` panic); the default halts.
    """
    if kind not in CanaryKind.ALL:
        raise ReproError(f"unknown canary kind {kind!r}")
    if kind == CanaryKind.GLOBAL and not guard_address:
        raise ReproError("global canary needs the guard address")
    fail_label = f"__{name}_chk_fail"
    asm.fn(name)
    asm.emit(*frame_push(scheme, scheme_key, function_label=name))
    asm.emit(isa.SubImm(SP, SP, _LOCALS_SIZE))
    _emit_canary_store(asm, kind, guard_address)
    body(asm)
    _emit_canary_check(asm, kind, guard_address, fail_label)
    asm.emit(isa.AddImm(SP, SP, _LOCALS_SIZE))
    asm.emit(*frame_pop(scheme, scheme_key, function_label=name))
    asm.emit(isa.Ret())
    asm.label(fail_label)
    if stack_chk_fail is not None:
        asm.emit(isa.HostCall(stack_chk_fail, "stack-chk-fail"))
    asm.emit(isa.Hlt())
    return asm

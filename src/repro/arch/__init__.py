"""AArch64 architecture model: pointers, registers, PAC, ISA and CPU."""

from repro.arch.assembler import Assembler, Program
from repro.arch.pac import PACEngine, PACResult
from repro.arch.registers import (
    FP,
    IP0,
    IP1,
    LR,
    XZR,
    KeyBank,
    PAuthKey,
    RegisterFile,
    SCTLR,
)
from repro.arch.vmsa import AddressKind, PointerLayout, VMSAConfig

__all__ = [
    "Assembler",
    "Program",
    "CPU",
    "CYCLES_PER_SECOND",
    "PACEngine",
    "PACResult",
    "PAuthKey",
    "KeyBank",
    "RegisterFile",
    "SCTLR",
    "VMSAConfig",
    "AddressKind",
    "PointerLayout",
    "FP",
    "LR",
    "IP0",
    "IP1",
    "XZR",
]


def __getattr__(name):
    # The core owns an MMU, and repro.mem.mmu imports repro.arch.vmsa:
    # loading the core on first use lets either package be imported
    # first.
    if name in ("CPU", "CYCLES_PER_SECOND"):
        from repro.arch import cpu

        return getattr(cpu, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

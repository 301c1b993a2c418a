"""The firmware bootloader: key generation and the XOM key setter.

Implements the paper's key-management architecture (Sections 4.1, 5.1):

1. at boot, a PRNG generates the kernel's PAuth keys;
2. the key values are *encoded as immediates* in the body of a single
   function whose only job is to move them into the key system
   registers (MOVZ/MOVK into GPRs, then MSR), and to scrub the GPRs
   before returning;
3. the page holding that function is handed to the hypervisor to map
   execute-only, so the keys can never be read back — from memory, or
   by disassembling the code;
4. the kernel calls the setter on every kernel entry, before interrupts
   are re-enabled, so the keys cannot leak through a preempted
   half-initialized state.

The setter is deliberately a *leaf* function: it runs before the
backward-edge key is guaranteed present, so its own return address must
not be signed.
"""

from __future__ import annotations

import random

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.registers import KeyBank
from repro.boot.fdt import DeviceTree
from repro.errors import ReproError

__all__ = ["Bootloader", "KEY_SETTER_SYMBOL"]

KEY_SETTER_SYMBOL = "__kernel_pauth_key_setter"

_KEY_REGISTER = {
    "ia": ("APIAKeyLo_EL1", "APIAKeyHi_EL1"),
    "ib": ("APIBKeyLo_EL1", "APIBKeyHi_EL1"),
    "da": ("APDAKeyLo_EL1", "APDAKeyHi_EL1"),
    "db": ("APDBKeyLo_EL1", "APDBKeyHi_EL1"),
    "ga": ("APGAKeyLo_EL1", "APGAKeyHi_EL1"),
}


class Bootloader:
    """Generates kernel keys and emits the key-setter function.

    Parameters
    ----------
    fdt:
        The device tree carrying the firmware entropy seed; a fresh one
        with seed 0 is created when omitted.  The PRNG is deterministic
        in the seed so experiments are reproducible — the real firmware
        uses a hardware entropy source.
    """

    def __init__(self, fdt=None):
        self.fdt = fdt or DeviceTree().set_kaslr_seed(0xC0FFEE)
        self._rng = random.Random(self.fdt.kaslr_seed())
        self.kernel_keys = None

    # -- key generation -----------------------------------------------------

    def generate_kernel_keys(self, key_names=("ia", "ib", "da", "db", "ga")):
        """Draw fresh 128-bit keys for the listed key registers.

        Keys stay constant from boot to halt (Section 3.3.2): the
        bootloader is the only component that ever knows their values
        outside the XOM page.
        """
        bank = KeyBank()
        for name in key_names:
            key = bank.get(name)
            key.lo = self._rng.getrandbits(64)
            key.hi = self._rng.getrandbits(64)
        self.kernel_keys = bank
        return bank

    def generate_user_keys(self):
        """Fresh per-address-space user keys (exec() behaviour)."""
        bank = KeyBank()
        for name in KeyBank.NAMES:
            key = bank.get(name)
            key.lo = self._rng.getrandbits(64)
            key.hi = self._rng.getrandbits(64)
        return bank

    # -- key setter codegen ----------------------------------------------------

    def emit_key_setter(self, base_va, key_names):
        """Assemble the key-setter function at ``base_va``.

        For each key: two 64-bit immediates are materialised with
        MOVZ + 3x MOVK into X0/X1 and moved to the Lo/Hi system
        registers with MSR.  X0/X1 are zeroed before returning so the
        key bits never survive in GPRs (Section 6.2.2).  The function
        is a leaf and must be mapped XOM by the hypervisor.
        """
        if self.kernel_keys is None:
            raise ReproError("generate_kernel_keys() must run first")
        asm = Assembler(base_va)
        asm.fn(KEY_SETTER_SYMBOL)
        for name in key_names:
            if name not in _KEY_REGISTER:
                raise ReproError(f"unknown key {name!r}")
            lo_reg, hi_reg = _KEY_REGISTER[name]
            key = self.kernel_keys.get(name)
            asm.mov_imm(0, key.lo)
            asm.mov_imm(1, key.hi)
            asm.emit(isa.Msr(lo_reg, 0), isa.Msr(hi_reg, 1))
        # Scrub the registers that held key material, then return.
        asm.emit(isa.Movz(0, 0, 0), isa.Movz(1, 0, 0), isa.Ret())
        return asm.assemble()

    # -- boot-time installation ---------------------------------------------------

    def install_key_setter(self, loader, hypervisor, base_va, key_names):
        """Load the setter into memory and seal its pages as XOM.

        Returns the virtual address of the setter entry point.
        """
        from repro.elfimage.image import ImageBuilder

        program = self.emit_key_setter(base_va, key_names)
        builder = ImageBuilder(name="key-setter", base=base_va)
        builder.add_text(".text.keys", program)
        image = builder.build()
        loaded = loader.load(image, [program])
        for frame in loaded.frames_of(".text.keys"):
            hypervisor.make_xom(frame)
        return image.address_of(KEY_SETTER_SYMBOL)

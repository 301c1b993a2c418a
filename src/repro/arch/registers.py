"""AArch64 register state: GPRs, banked SP, and system registers.

The general-purpose registers and the PAuth key registers are *shared*
between exception levels — the property that forces the kernel to switch
keys on every kernel entry/exit (paper Section 2.3).  Only SP is banked
per exception level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "PAuthKey",
    "KeyBank",
    "SCTLR",
    "RegisterFile",
    "XZR",
    "FP",
    "LR",
    "IP0",
    "IP1",
    "KEY_REGISTER_NAMES",
    "KEY_REGISTERS",
    "SYSTEM_REGISTERS",
]

_MASK64 = (1 << 64) - 1

#: Conventional register aliases (AAPCS64).
FP = 29
LR = 30
IP0 = 16
IP1 = 17
#: Pseudo-index for the zero register in operand positions.
XZR = 31


@dataclass
class PAuthKey:
    """One 128-bit PAuth key, stored as its two 64-bit system registers."""

    lo: int = 0
    hi: int = 0

    def as_pair(self):
        return (self.lo, self.hi)

    def is_zero(self):
        return self.lo == 0 and self.hi == 0

    def copy(self):
        return PAuthKey(self.lo, self.hi)


@dataclass
class KeyBank:
    """The five PAuth keys of one processor core (paper Appendix B.1).

    Two instruction keys (IA, IB), two data keys (DA, DB) and a generic
    key (GA).  Each is a pair of 64-bit registers, ten registers total.
    """

    ia: PAuthKey = field(default_factory=PAuthKey)
    ib: PAuthKey = field(default_factory=PAuthKey)
    da: PAuthKey = field(default_factory=PAuthKey)
    db: PAuthKey = field(default_factory=PAuthKey)
    ga: PAuthKey = field(default_factory=PAuthKey)

    NAMES = ("ia", "ib", "da", "db", "ga")

    def get(self, name):
        if name not in self.NAMES:
            raise ReproError(f"unknown PAuth key {name!r}")
        return getattr(self, name)

    def copy(self):
        return KeyBank(
            ia=self.ia.copy(),
            ib=self.ib.copy(),
            da=self.da.copy(),
            db=self.db.copy(),
            ga=self.ga.copy(),
        )

    def snapshot(self):
        """Immutable snapshot usable as a dict key / comparison value."""
        return tuple(self.get(name).as_pair() for name in self.NAMES)


#: System-register names of the key halves, as used by MSR/MRS.
KEY_REGISTER_NAMES = (
    "APIAKeyLo_EL1", "APIAKeyHi_EL1",
    "APIBKeyLo_EL1", "APIBKeyHi_EL1",
    "APDAKeyLo_EL1", "APDAKeyHi_EL1",
    "APDBKeyLo_EL1", "APDBKeyHi_EL1",
    "APGAKeyLo_EL1", "APGAKeyHi_EL1",
)


#: Every system register MSR and MRS can name, in encoding order: an
#: MSR/MRS word holds an index into this fixed table.
SYSTEM_REGISTERS = (
    *KEY_REGISTER_NAMES,
    "APKSSEL_EL1", "CONTEXTIDR_EL1", "ELR_EL1", "ESR_EL1", "SCTLR_EL1",
    "SPSR_EL1", "TCR_EL1", "TTBR0_EL1", "TTBR1_EL1", "VBAR_EL1",
)


#: Key system-register name -> (key name, half), e.g. "APIBKeyHi_EL1"
#: -> ("ib", "hi"): the one table MSR and MRS resolve key registers by.
KEY_REGISTERS = {
    name: (name[2:4].lower(), "lo" if "Lo" in name else "hi")
    for name in KEY_REGISTER_NAMES
}

#: The SCTLR attribute holding each key's enable bit.
_ENABLE_BITS = {name: "en_" + name for name in KeyBank.NAMES}


@dataclass
class SCTLR:
    """The PAuth enable bits of SCTLR_EL1.

    EnIA/EnIB/EnDA/EnDB gate whether PAC*/AUT* instructions using the
    corresponding key actually compute MACs (when clear they behave as
    NOPs for the PAC* forms).  The kernel hardening requirement R2 says
    no kernel code may clear these at run time — the verifier's
    key-register rule, run at boot and at module load, enforces that.
    """

    en_ia: bool = True
    en_ib: bool = True
    en_da: bool = True
    en_db: bool = True
    #: PACGA has no enable bit (a class attribute, not a field).
    en_ga = True

    def enabled_for(self, key_name):
        return getattr(self, _ENABLE_BITS[key_name])

    def as_value(self):
        """Pack into an integer (bit layout follows ARMv8.3 SCTLR_EL1)."""
        value = 0
        if self.en_ia:
            value |= 1 << 31
        if self.en_ib:
            value |= 1 << 30
        if self.en_da:
            value |= 1 << 27
        if self.en_db:
            value |= 1 << 13
        return value

    @classmethod
    def from_value(cls, value):
        return cls(
            en_ia=bool(value & (1 << 31)),
            en_ib=bool(value & (1 << 30)),
            en_da=bool(value & (1 << 27)),
            en_db=bool(value & (1 << 13)),
        )


class RegisterFile:
    """Registers of one simulated core.

    X0-X30 plus a banked SP per exception level.  Reads of register 31
    in an operand position return zero (XZR convention); writes to it
    are discarded.  Instructions index the storage directly: ``x`` has
    32 slots, the last being the zero register, which always holds 0;
    ``sp_el`` holds SP_EL0..SP_EL2, indexed by exception level.
    """

    def __init__(self):
        self.x = [0] * 32
        self.sp_el = [0, 0, 0]
        self.pc = 0
        self.current_el = 1
        #: ELR/SPSR for exception return, banked per target EL.
        self.elr = {1: 0, 2: 0}
        self.spsr = {1: 0, 2: 0}
        #: PAuth key bank (shared across ELs — the paper's key problem).
        self.keys = KeyBank()
        #: Secondary bank for the proposed banked-keys ISA extension
        #: (paper Section 8); selected via APKSSEL_EL1 on cores with
        #: the "pauth-ks" feature.
        self.alt_keys = KeyBank()
        self.sctlr_el1 = SCTLR()
        #: Generic system registers (CONTEXTIDR_EL1, TTBR*, VBAR_EL1...).
        self.sysregs = {}
        #: Interrupts masked (PSTATE.I) — the key setter relies on this.
        self.interrupts_masked = False

    # -- GPRs ---------------------------------------------------------------

    def read(self, index):
        """Read Xn; index 31 reads as the zero register."""
        return self.x[index]

    def write(self, index, value):
        """Write Xn; writes to index 31 are discarded."""
        if index != XZR:
            self.x[index] = value & _MASK64

    def clear_gprs(self, keep=()):
        """Zero every GPR except the listed indices (key-setter scrub)."""
        for index in range(31):
            if index not in keep:
                self.x[index] = 0

    # -- SP ------------------------------------------------------------------

    @property
    def sp(self):
        return self.sp_el[self.current_el]

    @sp.setter
    def sp(self, value):
        self.sp_el[self.current_el] = value & _MASK64

    def sp_of(self, el):
        return self.sp_el[el]

    def set_sp_of(self, el, value):
        self.sp_el[el] = value & _MASK64

    # -- system registers ----------------------------------------------------

    def read_sysreg(self, name):
        """MRS: read a system register by name."""
        target = KEY_REGISTERS.get(name)
        if target is not None:
            return getattr(getattr(self.keys, target[0]), target[1])
        if name == "SCTLR_EL1":
            return self.sctlr_el1.as_value()
        if name == "ELR_EL1":
            return self.elr[1]
        if name == "SPSR_EL1":
            return self.spsr[1]
        return self.sysregs.get(name, 0)

    def write_sysreg(self, name, value):
        """MSR: write a system register by name."""
        value &= _MASK64
        target = KEY_REGISTERS.get(name)
        if target is not None:
            setattr(getattr(self.keys, target[0]), target[1], value)
            return
        if name == "SCTLR_EL1":
            self.sctlr_el1 = SCTLR.from_value(value)
            return
        if name == "ELR_EL1":
            self.elr[1] = value
            return
        if name == "SPSR_EL1":
            self.spsr[1] = value
            return
        self.sysregs[name] = value

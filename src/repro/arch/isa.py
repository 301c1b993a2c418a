"""AArch64-subset instruction set with the ARMv8.3 PAuth extension.

Instructions are small Python objects with an :meth:`execute` method.
Memory holds each as one 32-bit word: a fixed 6-bit opcode
(``_OPCODES``) over the operand fields its class lists in ``fields``.
The CPU fetches that word, :func:`decode` rebuilds the instruction,
and the CPU accounts its cycle cost.  The cost model is a coarse
in-order Cortex-A53-like model, with every PAuth computation costing
``PAUTH_CYCLES`` extra cycles — exactly the "PA-analogue" the paper
substitutes for PAuth instructions when measuring on ARMv8.0 hardware
(Section 6.1).

Register operand conventions:

* integers 0..30 name X registers,
* :data:`~repro.arch.registers.XZR` (31) is the zero register,
* :data:`SP` (32) names the banked stack pointer.

``execute`` indexes the register storage (``regs.x``, ``regs.sp_el``)
directly; operands that may name SP go through :func:`get_operand` and
:func:`set_operand`, the one home of the XZR/SP routing rule.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from repro.arch.registers import LR, SYSTEM_REGISTERS, XZR
from repro.errors import ReproError, UndefinedInstructionFault

__all__ = [
    "SP",
    "PAUTH_CYCLES",
    "Instruction",
    "Movz", "Movk", "MovReg", "MovImm",
    "AddImm", "SubImm", "AddReg", "SubReg", "SubsReg", "SubsImm",
    "AndImm", "OrrImm", "EorReg", "EorImm", "LslImm", "LsrImm",
    "Adr", "Bfi",
    "Ldr", "Str", "LdrPost", "StrPre", "Ldp", "Stp", "LdpPost", "StpPre",
    "B", "Bl", "Br", "Blr", "Ret", "Cbz", "Cbnz", "BCond",
    "Nop", "Hlt", "Svc", "Eret", "Hvc", "Isb", "Msr", "Mrs", "HostCall",
    "Pac", "Aut", "Xpac", "PacGa",
    "Pac1716", "Aut1716", "PacSp", "AutSp",
    "RetA", "BlrA", "BrA",
    "Work",
    "branch_kind", "branch_target", "is_sign", "is_auth", "is_strip",
    "get_operand", "set_operand", "decode",
]

#: Stack-pointer operand sentinel (encoding 31 is context-dependent on
#: real hardware; we disambiguate with a distinct index).
SP = 32

#: Estimated computational overhead of one PAuth instruction — the
#: "PA-analogue" cost from the paper (4 cycles per instruction).
PAUTH_CYCLES = 4

_MASK64 = (1 << 64) - 1


#: One operand field: ``bits`` wide, raw ``n`` holding ``values[n ^
#: bias]`` (``values`` is a range of numbers or a tuple of names).  A
#: signed field's range is centred on 0 and its ``bias`` is the top bit,
#: so it is stored two's complement; a relative one holds the distance
#: ``target - pc`` modulo 2**64.
_Field = namedtuple("_Field", "bits values bias relative")


def _field(bits, values, signed=False, relative=False):
    return _Field(bits, values, 1 << (bits - 1) if signed else 0, relative)


#: Register fields: X0-X30 and XZR (31); SP (32) only where the
#: instruction takes it (``get_operand``/``set_operand`` slots).
_X = _field(6, range(32))
_XSP = _field(6, range(33))
_IMM16 = _field(16, range(1 << 16))
_HALFWORD = _field(2, range(0, 64, 16))
_UIMM = _field(14, range(1 << 14))
_BIT = _field(6, range(64))
_WIDTH = _field(7, range(1, 65))
_OFFSET = _field(14, range(-(1 << 13), 1 << 13), signed=True)
_PAIR = _field(8, range(-(1 << 10), 1 << 10, 8), signed=True)
_COUNT = _field(26, range(1 << 26))
_REL20, _REL22, _REL26 = (
    _field(bits, range(-2 << bits, 2 << bits, 4), signed=True, relative=True)
    for bits in (20, 22, 26)
)
_KEY = _field(2, ("ia", "ib", "da", "db"))
_IKEY = _field(1, ("ia", "ib"))
_FLAG = _field(1, (False, True))
_SYSREG = _field(5, SYSTEM_REGISTERS)


def _s64(value):
    """Interpret a 64-bit value as signed."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def get_operand(regs, index):
    """Read an operand that may name SP: X0-X30, XZR (31) reads 0, and
    SP (32) is the current exception level's stack pointer."""
    if index == SP:
        return regs.sp_el[regs.current_el]
    return regs.x[index]


def set_operand(regs, index, value):
    """Write an operand that may name SP, masked to 64 bits; writes to
    XZR (31) are discarded."""
    if index == SP:
        regs.sp_el[regs.current_el] = value & _MASK64
    elif index != XZR:
        regs.x[index] = value & _MASK64


class Instruction:
    """Base class: one 4-byte instruction."""

    mnemonic = "???"
    cycles = 1
    #: True when the CPU ends a translation block after this instruction:
    #: every :func:`branch_kind` class, MSR and HostCall.
    ends_block = False
    #: (attribute, field) pairs, packed from bit 0 upward.
    fields = ()

    def cost_on(self, cpu):
        """Cycle cost on a specific core (feature-dependent)."""
        return self.cycles

    def execute(self, cpu):
        """Run the instruction; return the next PC or None (PC += 4)."""
        raise NotImplementedError

    def encoding(self, pc=None):
        """The 4 bytes (a little-endian word) of this instruction at
        virtual address ``pc``, which only PC-relative fields need.  An
        operand the format cannot hold raises ReproError, never truncated.
        MOVZ/MOVK immediates are plainly visible — precisely why the
        key-setter page must be execute-only."""
        opcode = _OPCODE_OF.get(type(self))
        if opcode is None:
            raise ReproError(f"{self.mnemonic} has no encoding")
        word, shift = opcode << 26, 0
        for name, (bits, values, bias, relative) in self.fields:
            value = getattr(self, name)
            try:
                if relative:
                    if pc is None:
                        raise ReproError(f"{self.mnemonic}: {name} needs a PC")
                    value = ((value - pc + (1 << 63)) & _MASK64) - (1 << 63)
                word |= (values.index(value) ^ bias) << shift
            except (ValueError, TypeError):
                raise ReproError(
                    f"{self.mnemonic}: {name}={getattr(self, name)!r} does "
                    "not fit the instruction format"
                ) from None
            shift += bits
        return word.to_bytes(4, "little")

    def text(self):
        return self.mnemonic

    def __repr__(self):
        return f"<{self.text()}>"


# ---------------------------------------------------------------------------
# moves and arithmetic
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class Movz(Instruction):
    """MOVZ Xd, #imm16, LSL #shift — zero the register, set one slice."""

    rd: int
    imm16: int
    shift: int = 0
    mnemonic = "movz"
    fields = (("imm16", _IMM16), ("rd", _X), ("shift", _HALFWORD))

    def execute(self, cpu):
        if self.rd != XZR:
            cpu.regs.x[self.rd] = (self.imm16 & 0xFFFF) << self.shift

    def text(self):
        return f"{self.mnemonic} x{self.rd}, #{self.imm16:#x}, lsl #{self.shift}"


@dataclass(repr=False)
class Movk(Instruction):
    """MOVK Xd, #imm16, LSL #shift — keep other bits, set one slice."""

    rd: int
    imm16: int
    shift: int = 0
    mnemonic = "movk"
    fields = Movz.fields

    def execute(self, cpu):
        if self.rd != XZR:
            x = cpu.regs.x
            x[self.rd] = (x[self.rd] & ~(0xFFFF << self.shift)) | (
                (self.imm16 & 0xFFFF) << self.shift
            )

    text = Movz.text


@dataclass(repr=False)
class MovReg(Instruction):
    """MOV Xd, Xn (also moves to/from SP)."""

    rd: int
    rn: int
    mnemonic = "mov"
    fields = (("rd", _XSP), ("rn", _XSP))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn))

    def text(self):
        return f"mov {_reg(self.rd)}, {_reg(self.rn)}"


class MovImm(Instruction):
    """Pseudo-instruction: load an arbitrary 64-bit immediate.

    Expands at assembly time into MOVZ + up to three MOVK, so it never
    appears in assembled images — it exists for host-built code only.
    """

    mnemonic = "movimm"

    def __init__(self, rd, value):
        self.rd = rd
        self.value = value & _MASK64

    def expand(self):
        """The MOVZ/MOVK sequence equivalent to this pseudo-op."""
        parts = [(self.value >> shift) & 0xFFFF for shift in (0, 16, 32, 48)]
        out = [Movz(self.rd, parts[0], 0)]
        for index, part in enumerate(parts[1:], start=1):
            out.append(Movk(self.rd, part, 16 * index))
        return out

    def text(self):
        return f"movimm x{self.rd}, #{self.value:#x}"


def _reg(index):
    if index == SP:
        return "sp"
    if index == XZR:
        return "xzr"
    return f"x{index}"


@dataclass(repr=False)
class AddImm(Instruction):
    """ADD Xd, Xn, #imm (SP allowed both sides)."""

    rd: int
    rn: int
    imm: int
    mnemonic = "add"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) + self.imm)

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class SubImm(AddImm):
    mnemonic = "sub"

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) - self.imm)


@dataclass(repr=False)
class AddReg(Instruction):
    rd: int
    rn: int
    rm: int
    mnemonic = "add"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(
            regs, self.rd, get_operand(regs, self.rn) + get_operand(regs, self.rm)
        )

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


@dataclass(repr=False)
class SubReg(AddReg):
    mnemonic = "sub"

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(
            regs, self.rd, get_operand(regs, self.rn) - get_operand(regs, self.rm)
        )


def _set_flags(cpu, result, carry, overflow):
    cpu.nzcv = (
        bool(result >> 63),
        (result & _MASK64) == 0,
        carry,
        overflow,
    )


@dataclass(repr=False)
class SubsReg(Instruction):
    """SUBS / CMP: subtract and set NZCV."""

    rd: int
    rn: int
    rm: int
    mnemonic = "subs"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))

    def execute(self, cpu):
        regs = cpu.regs
        a = get_operand(regs, self.rn)
        b = get_operand(regs, self.rm)
        result = (a - b) & _MASK64
        carry = a >= b
        overflow = (_s64(a) - _s64(b)) != _s64(result)
        _set_flags(cpu, result, carry, overflow)
        set_operand(regs, self.rd, result)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, {_reg(self.rm)}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


@dataclass(repr=False)
class SubsImm(Instruction):
    rd: int
    rn: int
    imm: int
    mnemonic = "subs"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))

    def execute(self, cpu):
        regs = cpu.regs
        a = get_operand(regs, self.rn)
        b = self.imm & _MASK64
        result = (a - b) & _MASK64
        carry = a >= b
        overflow = (_s64(a) - _s64(b)) != _s64(result)
        _set_flags(cpu, result, carry, overflow)
        set_operand(regs, self.rd, result)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, #{self.imm:#x}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class AndImm(Instruction):
    rd: int
    rn: int
    imm: int
    mnemonic = "and"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) & self.imm)

    text = AddImm.text


@dataclass(repr=False)
class OrrImm(AndImm):
    mnemonic = "orr"

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) | self.imm)


@dataclass(repr=False)
class EorReg(Instruction):
    rd: int
    rn: int
    rm: int
    mnemonic = "eor"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(
            regs, self.rd, get_operand(regs, self.rn) ^ get_operand(regs, self.rm)
        )

    text = AddReg.text


@dataclass(repr=False)
class EorImm(AndImm):
    mnemonic = "eor"

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) ^ self.imm)


@dataclass(repr=False)
class LslImm(Instruction):
    rd: int
    rn: int
    shift: int
    mnemonic = "lsl"
    fields = (("rd", _XSP), ("rn", _XSP), ("shift", _BIT))

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) << self.shift)

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, #{self.shift}"


@dataclass(repr=False)
class LsrImm(LslImm):
    mnemonic = "lsr"

    def execute(self, cpu):
        regs = cpu.regs
        set_operand(regs, self.rd, get_operand(regs, self.rn) >> self.shift)


class Adr(Instruction):
    """ADR Xd, label — PC-relative address (resolved at assembly)."""

    mnemonic = "adr"
    fields = (("rd", _X), ("target", _REL20))

    def __init__(self, rd, label=None, target=None):
        self.rd = rd
        self.label = label
        self.target = target

    def execute(self, cpu):
        if self.rd != XZR:
            cpu.regs.x[self.rd] = self.target

    def text(self):
        return f"adr x{self.rd}, {self.label or hex(self.target)}"


@dataclass(repr=False)
class Bfi(Instruction):
    """BFI Xd, Xn, #lsb, #width — bit-field insert.

    The Camouflage return-address modifier (Listing 3) uses
    ``bfi ip0, ip1, #32, #32`` to pack the low SP bits above the low
    function-address bits.  Note AArch64 forbids SP as an operand here —
    the reason Listing 3 needs the extra ``mov ip1, sp``.
    """

    rd: int
    rn: int
    lsb: int
    width: int
    mnemonic = "bfi"
    fields = (("rd", _XSP), ("rn", _XSP), ("lsb", _BIT), ("width", _WIDTH))

    def execute(self, cpu):
        if self.rn == SP or self.rd == SP:
            raise UndefinedInstructionFault(
                "SP is not a valid BFI operand", el=cpu.regs.current_el
            )
        if self.rd != XZR:
            x = cpu.regs.x
            ones = (1 << self.width) - 1
            x[self.rd] = (x[self.rd] & ~(ones << self.lsb)) | (
                (x[self.rn] & ones) << self.lsb
            )

    def __post_init__(self):
        if self.lsb + self.width > 64:
            raise ReproError(f"bfi #{self.lsb}, #{self.width} exceeds 64 bits")

    def text(self):
        return f"bfi x{self.rd}, x{self.rn}, #{self.lsb}, #{self.width}"


# ---------------------------------------------------------------------------
# loads and stores
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class Ldr(Instruction):
    """LDR Xt, [Xn, #imm]"""

    rt: int
    rn: int
    imm: int = 0
    mnemonic = "ldr"
    cycles = 2
    fields = (("rt", _X), ("rn", _XSP), ("imm", _OFFSET))

    def execute(self, cpu):
        regs = cpu.regs
        value = cpu.mmu.read_u64(
            (get_operand(regs, self.rn) + self.imm) & _MASK64, regs.current_el
        )
        if self.rt != XZR:
            regs.x[self.rt] = value

    def text(self):
        return f"{self.mnemonic} x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]"


@dataclass(repr=False)
class Str(Ldr):
    mnemonic = "str"
    fields = (("rt", _XSP), ("rn", _XSP), ("imm", _OFFSET))

    def execute(self, cpu):
        regs = cpu.regs
        cpu.mmu.write_u64(
            (get_operand(regs, self.rn) + self.imm) & _MASK64,
            get_operand(regs, self.rt),
            regs.current_el,
        )


@dataclass(repr=False)
class LdrPost(Instruction):
    """LDR Xt, [Xn], #imm — post-indexed."""

    rt: int
    rn: int
    imm: int
    mnemonic = "ldr"
    cycles = 2
    fields = (("rt", _X), ("rn", _XSP), ("imm", _OFFSET))

    def execute(self, cpu):
        regs = cpu.regs
        address = get_operand(regs, self.rn)
        value = cpu.mmu.read_u64(address, regs.current_el)
        if self.rt != XZR:
            regs.x[self.rt] = value
        set_operand(regs, self.rn, address + self.imm)

    def text(self):
        return f"ldr x{self.rt}, [{_reg(self.rn)}], #{self.imm:#x}"


@dataclass(repr=False)
class StrPre(Instruction):
    """STR Xt, [Xn, #imm]! — pre-indexed."""

    rt: int
    rn: int
    imm: int
    mnemonic = "str"
    cycles = 2
    fields = (("rt", _XSP), ("rn", _XSP), ("imm", _OFFSET))

    def execute(self, cpu):
        regs = cpu.regs
        address = (get_operand(regs, self.rn) + self.imm) & _MASK64
        cpu.mmu.write_u64(address, get_operand(regs, self.rt), regs.current_el)
        set_operand(regs, self.rn, address)

    def text(self):
        return f"str x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]!"


def _load_pair(cpu, regs, base, rt1, rt2):
    """LDP's two loads: one ``MMU.read_pair`` within a page; across a
    page word by word, so ``rt1`` is loaded before the second word
    faults."""
    mmu = cpu.mmu
    x = regs.x
    if base & (mmu.page_size - 1) <= mmu.page_size - 16:
        first, second = mmu.read_pair(base, regs.current_el)
    else:
        first = mmu.read_u64(base, regs.current_el)
        if rt1 != XZR:
            x[rt1] = first
        second = mmu.read_u64(base + 8, regs.current_el)
    if rt1 != XZR:
        x[rt1] = first
    if rt2 != XZR:
        x[rt2] = second


@dataclass(repr=False)
class Ldp(Instruction):
    """LDP Xt1, Xt2, [Xn, #imm]"""

    rt1: int
    rt2: int
    rn: int
    imm: int = 0
    mnemonic = "ldp"
    cycles = 2
    fields = (("rt1", _X), ("rt2", _X), ("rn", _XSP), ("imm", _PAIR))

    def execute(self, cpu):
        regs = cpu.regs
        _load_pair(
            cpu, regs, (get_operand(regs, self.rn) + self.imm) & _MASK64,
            self.rt1, self.rt2,
        )

    def text(self):
        return (
            f"{self.mnemonic} x{self.rt1}, x{self.rt2}, "
            f"[{_reg(self.rn)}, #{self.imm:#x}]"
        )


@dataclass(repr=False)
class Stp(Ldp):
    mnemonic = "stp"
    fields = (("rt1", _XSP), ("rt2", _XSP), ("rn", _XSP), ("imm", _PAIR))

    def execute(self, cpu):
        regs = cpu.regs
        cpu.mmu.write_pair(
            (get_operand(regs, self.rn) + self.imm) & _MASK64,
            get_operand(regs, self.rt1),
            get_operand(regs, self.rt2),
            regs.current_el,
        )


@dataclass(repr=False)
class LdpPost(Instruction):
    """LDP Xt1, Xt2, [Xn], #imm — the canonical epilogue load."""

    rt1: int
    rt2: int
    rn: int
    imm: int
    mnemonic = "ldp"
    cycles = 2
    fields = (("rt1", _X), ("rt2", _X), ("rn", _XSP), ("imm", _PAIR))

    def execute(self, cpu):
        regs = cpu.regs
        base = get_operand(regs, self.rn)
        _load_pair(cpu, regs, base, self.rt1, self.rt2)
        set_operand(regs, self.rn, base + self.imm)

    def text(self):
        return (
            f"ldp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}], #{self.imm:#x}"
        )


@dataclass(repr=False)
class StpPre(Instruction):
    """STP Xt1, Xt2, [Xn, #imm]! — the canonical prologue store."""

    rt1: int
    rt2: int
    rn: int
    imm: int
    mnemonic = "stp"
    cycles = 2
    fields = (("rt1", _XSP), ("rt2", _XSP), ("rn", _XSP), ("imm", _PAIR))

    def execute(self, cpu):
        regs = cpu.regs
        base = (get_operand(regs, self.rn) + self.imm) & _MASK64
        cpu.mmu.write_pair(
            base,
            get_operand(regs, self.rt1),
            get_operand(regs, self.rt2),
            regs.current_el,
        )
        set_operand(regs, self.rn, base)

    def text(self):
        return (
            f"stp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}, "
            f"#{self.imm:#x}]!"
        )


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------


class _LabelBranch(Instruction):
    fields = (("target", _REL26),)
    ends_block = True

    def __init__(self, label=None, target=None):
        self.label = label
        self.target = target

    def text(self):
        return f"{self.mnemonic} {self.label or hex(self.target)}"


class B(_LabelBranch):
    mnemonic = "b"

    def execute(self, cpu):
        return self.target


class Bl(_LabelBranch):
    """BL label — saves the return address in LR."""

    mnemonic = "bl"

    def execute(self, cpu):
        regs = cpu.regs
        regs.x[LR] = (regs.pc + 4) & _MASK64
        return self.target


@dataclass(repr=False)
class Br(Instruction):
    """BR Xn — indirect jump (a JOP target when unprotected)."""

    rn: int
    mnemonic = "br"
    fields = (("rn", _X),)
    ends_block = True

    def execute(self, cpu):
        return cpu.regs.x[self.rn]

    def text(self):
        return f"{self.mnemonic} x{self.rn}"


@dataclass(repr=False)
class Blr(Instruction):
    """BLR Xn — indirect call."""

    rn: int
    mnemonic = "blr"
    fields = (("rn", _X),)
    ends_block = True

    def execute(self, cpu):
        x = cpu.regs.x
        x[LR] = (cpu.regs.pc + 4) & _MASK64
        return x[self.rn]

    text = Br.text


@dataclass(repr=False)
class Ret(Instruction):
    """RET — return through LR (the ROP pivot when unprotected)."""

    rn: int = LR
    mnemonic = "ret"
    fields = (("rn", _X),)
    ends_block = True

    def execute(self, cpu):
        return cpu.regs.x[self.rn]

    def text(self):
        return "ret" if self.rn == LR else f"ret x{self.rn}"


class Cbz(_LabelBranch):
    mnemonic = "cbz"
    fields = (("rn", _X), ("target", _REL20))

    def __init__(self, rn, label=None, target=None):
        super().__init__(label, target)
        self.rn = rn

    def execute(self, cpu):
        if cpu.regs.x[self.rn] == 0:
            return self.target
        return None

    def text(self):
        return f"{self.mnemonic} x{self.rn}, {self.label or hex(self.target)}"


class Cbnz(Cbz):
    mnemonic = "cbnz"

    def execute(self, cpu):
        if cpu.regs.x[self.rn] != 0:
            return self.target
        return None


_CONDITIONS = {
    "eq": lambda n, z, c, v: z,
    "ne": lambda n, z, c, v: not z,
    "lt": lambda n, z, c, v: n != v,
    "ge": lambda n, z, c, v: n == v,
    "gt": lambda n, z, c, v: (not z) and n == v,
    "le": lambda n, z, c, v: z or n != v,
    "cs": lambda n, z, c, v: c,
    "cc": lambda n, z, c, v: not c,
    "mi": lambda n, z, c, v: n,
    "pl": lambda n, z, c, v: not n,
}
_CONDITION = _field(4, tuple(_CONDITIONS))


class BCond(_LabelBranch):
    """B.cond label"""

    mnemonic = "b.cond"
    fields = (("condition", _CONDITION), ("target", _REL22))

    def __init__(self, condition, label=None, target=None):
        super().__init__(label, target)
        if condition not in _CONDITIONS:
            raise ReproError(f"unknown condition {condition!r}")
        self.condition = condition

    def execute(self, cpu):
        if _CONDITIONS[self.condition](*cpu.nzcv):
            return self.target
        return None

    def text(self):
        return f"b.{self.condition} {self.label or hex(self.target)}"


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------


class Nop(Instruction):
    mnemonic = "nop"

    def execute(self, cpu):
        pass


class Hlt(Instruction):
    """HLT — stop the simulation (used as program exit)."""

    mnemonic = "hlt"
    ends_block = True

    def execute(self, cpu):
        cpu.halted = True
        return cpu.regs.pc  # freeze PC


@dataclass(repr=False)
class Svc(Instruction):
    """SVC #imm — supervisor call (syscall entry)."""

    imm: int = 0
    mnemonic = "svc"
    cycles = 4
    ends_block = True
    fields = (("imm", _IMM16),)

    def execute(self, cpu):
        cpu.take_exception(kind="svc", syndrome=self.imm)
        return cpu.regs.pc  # PC already redirected by the exception

    def text(self):
        return f"svc #{self.imm:#x}"


class Eret(Instruction):
    """ERET — return from exception to ELR, restoring the previous EL."""

    mnemonic = "eret"
    cycles = 4
    ends_block = True

    def execute(self, cpu):
        return cpu.exception_return()


@dataclass(repr=False)
class Hvc(Instruction):
    """HVC #imm — hypervisor call (EL1 -> EL2).

    Used only by the EL2-trap key-management *ablation* (the Ferri et
    al. alternative the paper's Related Work discusses): the hypervisor
    service itself is host-modelled, and its round-trip cost is added
    by the handler, because "the traps ... are not intended and
    optimized for frequent occurrence" (Section 7).
    """

    imm: int = 0
    mnemonic = "hvc"
    cycles = 4
    ends_block = True
    fields = (("imm", _IMM16),)

    def execute(self, cpu):
        if cpu.hvc_hook is None:
            raise UndefinedInstructionFault(
                "HVC with no hypervisor service", el=cpu.regs.current_el
            )
        cpu.hvc_hook(cpu, self.imm)

    def text(self):
        return f"hvc #{self.imm:#x}"


class Isb(Instruction):
    mnemonic = "isb"
    cycles = 4

    def execute(self, cpu):
        pass


@dataclass(repr=False)
class Msr(Instruction):
    """MSR sysreg, Xn — system register write.

    Writes to PAuth key registers cost extra cycles (the paper measures
    about 9 cycles per 128-bit key, i.e. per two MSRs).  Writes to
    hypervisor-locked registers trap to EL2.
    """

    sysreg: str
    rn: int
    mnemonic = "msr"
    cycles = 2
    ends_block = True
    fields = (("sysreg", _SYSREG), ("rn", _X))

    def execute(self, cpu):
        cpu.write_sysreg_checked(self.sysreg, cpu.regs.x[self.rn])

    def text(self):
        return f"msr {self.sysreg}, x{self.rn}"


@dataclass(repr=False)
class Mrs(Instruction):
    """MRS Xd, sysreg — system register read.

    MRS immediately encodes the register it reads, so a static scan can
    reject kernel or module code reading the key registers (paper
    Section 4.1 / 6.2.2).
    """

    rd: int
    sysreg: str
    mnemonic = "mrs"
    cycles = 2
    fields = (("rd", _X), ("sysreg", _SYSREG))

    def execute(self, cpu):
        value = cpu.read_sysreg_checked(self.sysreg)
        if self.rd != XZR:
            cpu.regs.x[self.rd] = value

    def text(self):
        return f"mrs x{self.rd}, {self.sysreg}"


class HostCall(Instruction):
    """Simulation-only escape hatch: run a host Python callable.

    Costs zero cycles and never appears on measured fast paths; used by
    the mini-kernel for bookkeeping that the paper's artifact does in C
    we do not need to model cycle-accurately (e.g. scheduler policy).
    A Python callable does not fit in 32 bits: storing one binds it to
    a ``slot`` of the machine's host-call table, which the word holds.
    """

    mnemonic = "hostcall"
    cycles = 0
    ends_block = True
    fields = (("slot", _COUNT),)

    def __init__(self, fn, label="host", slot=None):
        self.fn = fn
        self.label = label
        self.slot = slot

    def bound(self, slot):
        """This call bound to ``slot`` of a host-call table."""
        return HostCall(self.fn, self.label, slot)

    def execute(self, cpu):
        return self.fn(cpu)

    def text(self):
        return f"hostcall {self.label}"


@dataclass(repr=False)
class Work(Instruction):
    """Pseudo-instruction: ``units`` cycles of pure computation.

    Stands in for straight-line arithmetic in synthetic workloads so
    instruction-mix ratios can be controlled precisely without
    assembling thousands of ALU ops.
    """

    units: int = 1
    mnemonic = "work"
    fields = (("units", _COUNT),)

    @property
    def cycles(self):
        return self.units

    def execute(self, cpu):
        pass

    def text(self):
        return f"work #{self.units}"


# ---------------------------------------------------------------------------
# pointer authentication
# ---------------------------------------------------------------------------


class _PAuthInstruction(Instruction):
    """Base for instructions that compute a PAC (cost: PA-analogue)."""

    cycles = PAUTH_CYCLES
    #: NOP-compatible on pre-8.3 cores? (HINT-space encodings only)
    hint_space = False

    def cost_on(self, cpu):
        """HINT-space encodings retire as 1-cycle NOPs on v8.0 cores."""
        if self.hint_space and not cpu.has_pauth:
            return 1
        return self.cycles

    def _require_pauth(self, cpu):
        if cpu.has_pauth:
            return True
        if self.hint_space:
            return False  # behaves as NOP
        raise UndefinedInstructionFault(
            f"{self.mnemonic} undefined without FEAT_PAuth",
            el=cpu.regs.current_el,
        )


@dataclass(repr=False)
class Pac(_PAuthInstruction):
    """PACIA/PACIB/PACDA/PACDB Xd, Xn — sign Xd with modifier Xn."""

    key: str
    rd: int
    rn: int
    fields = (("key", _KEY), ("rd", _X), ("rn", _XSP))

    @property
    def mnemonic(self):
        return f"pac{self.key}"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        value = cpu.pac_add(self.key, x[self.rd], get_operand(cpu.regs, self.rn))
        if self.rd != XZR:
            x[self.rd] = value

    def text(self):
        return f"{self.mnemonic} x{self.rd}, {_reg(self.rn)}"


@dataclass(repr=False)
class Aut(_PAuthInstruction):
    """AUTIA/AUTIB/AUTDA/AUTDB Xd, Xn — authenticate Xd with Xn."""

    key: str
    rd: int
    rn: int
    fields = (("key", _KEY), ("rd", _X), ("rn", _XSP))

    @property
    def mnemonic(self):
        return f"aut{self.key}"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        value = cpu.pac_auth(self.key, x[self.rd], get_operand(cpu.regs, self.rn))
        if self.rd != XZR:
            x[self.rd] = value

    text = Pac.text


@dataclass(repr=False)
class Xpac(_PAuthInstruction):
    """XPACI/XPACD Xd — strip the PAC (debug aid)."""

    rd: int
    data: bool = False
    fields = (("rd", _X), ("data", _FLAG))

    @property
    def mnemonic(self):
        return "xpacd" if self.data else "xpaci"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        value = cpu.pac_strip(x[self.rd])
        if self.rd != XZR:
            x[self.rd] = value

    def text(self):
        return f"{self.mnemonic} x{self.rd}"


@dataclass(repr=False)
class PacGa(_PAuthInstruction):
    """PACGA Xd, Xn, Xm — generic 32-bit MAC of Xn under modifier Xm."""

    rd: int
    rn: int
    rm: int
    mnemonic = "pacga"
    fields = (("rd", _X), ("rn", _X), ("rm", _XSP))

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        value = cpu.pac_generic(x[self.rn], get_operand(cpu.regs, self.rm))
        if self.rd != XZR:
            x[self.rd] = value

    def text(self):
        return f"pacga x{self.rd}, x{self.rn}, {_reg(self.rm)}"


@dataclass(repr=False)
class Pac1716(_PAuthInstruction):
    """PACIA1716/PACIB1716 — sign X17 with modifier X16.

    These live in the HINT space: on pre-ARMv8.3 cores they execute as
    NOPs, which is the basis of the paper's binary backwards
    compatibility (Section 5.5).  No data-key variants exist.
    """

    fields = (("key", _IKEY),)
    key: str  # "ia" or "ib"
    hint_space = True

    @property
    def mnemonic(self):
        return f"pac{self.key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        x[17] = cpu.pac_add(self.key, x[17], x[16])


@dataclass(repr=False)
class Aut1716(Pac1716):
    @property
    def mnemonic(self):
        return f"aut{self.key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        x[17] = cpu.pac_auth(self.key, x[17], x[16])


@dataclass(repr=False)
class PacSp(_PAuthInstruction):
    """PACIASP/PACIBSP — sign LR with SP as modifier (HINT space).

    This is the plain compiler-supported scheme (Listing 2); its
    modifier weakness is what Section 4.2 hardens.
    """

    key: str = "ia"
    hint_space = True
    fields = (("key", _IKEY),)

    @property
    def mnemonic(self):
        return f"pac{self.key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        regs = cpu.regs
        regs.x[LR] = cpu.pac_add(
            self.key, regs.x[LR], regs.sp_el[regs.current_el]
        )


@dataclass(repr=False)
class AutSp(PacSp):
    @property
    def mnemonic(self):
        return f"aut{self.key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        regs = cpu.regs
        regs.x[LR] = cpu.pac_auth(
            self.key, regs.x[LR], regs.sp_el[regs.current_el]
        )


@dataclass(repr=False)
class RetA(_PAuthInstruction):
    """RETAA/RETAB — authenticate LR against SP and return."""

    key: str = "ia"
    cycles = 1 + PAUTH_CYCLES
    fields = (("key", _IKEY),)
    ends_block = True

    @property
    def mnemonic(self):
        return f"reta{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)  # not HINT space: undefined on v8.0
        regs = cpu.regs
        return cpu.pac_auth(self.key, regs.x[LR], regs.sp_el[regs.current_el])


@dataclass(repr=False)
class BlrA(_PAuthInstruction):
    """BLRAA/BLRAB Xn, Xm — authenticated indirect call."""

    key: str
    rn: int
    rm: int
    cycles = 1 + PAUTH_CYCLES
    fields = (("key", _IKEY), ("rn", _X), ("rm", _XSP))
    ends_block = True

    @property
    def mnemonic(self):
        return f"blra{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)
        regs = cpu.regs
        regs.x[LR] = (regs.pc + 4) & _MASK64
        return cpu.pac_auth(
            self.key, regs.x[self.rn], get_operand(regs, self.rm)
        )

    def text(self):
        return f"{self.mnemonic} x{self.rn}, {_reg(self.rm)}"


@dataclass(repr=False)
class BrA(BlrA):
    """BRAA/BRAB Xn, Xm — authenticated indirect jump."""

    @property
    def mnemonic(self):
        return f"bra{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)
        regs = cpu.regs
        return cpu.pac_auth(
            self.key, regs.x[self.rn], get_operand(regs, self.rm)
        )


# ---------------------------------------------------------------------------
# the opcode table and the decoder
# ---------------------------------------------------------------------------

#: Opcode (bits 26-31 of a word) -> class, fixed.  Opcode 0 and the
#: unlisted ones are "no instruction".  B and BL carry their A64
#: opcodes, so with their 26-bit word offsets those words are real A64.
_OPCODES = {
    0x01: Movz, 0x02: Movk, 0x03: MovReg, 0x04: AddImm,
    0b000101: B,
    0x06: SubImm, 0x07: AddReg, 0x08: SubReg, 0x09: SubsReg,
    0x0A: SubsImm, 0x0B: AndImm, 0x0C: OrrImm, 0x0D: EorReg,
    0x0E: EorImm, 0x0F: LslImm, 0x10: LsrImm, 0x11: Adr,
    0x12: Bfi, 0x13: Ldr, 0x14: Str, 0x15: LdrPost,
    0x16: StrPre, 0x17: Ldp, 0x18: Stp, 0x19: LdpPost,
    0x1A: StpPre, 0x1B: Br, 0x1C: Blr, 0x1D: Ret,
    0x1E: Cbz, 0x1F: Cbnz, 0x20: BCond, 0x21: Nop,
    0x22: Hlt, 0x23: Svc, 0x24: Eret,
    0b100101: Bl,
    0x26: Hvc, 0x27: Isb, 0x28: Msr, 0x29: Mrs,
    0x2A: HostCall, 0x2B: Work, 0x2C: Pac, 0x2D: Aut,
    0x2E: Xpac, 0x2F: PacGa, 0x30: Pac1716, 0x31: Aut1716,
    0x32: PacSp, 0x33: AutSp, 0x34: RetA, 0x35: BlrA,
    0x36: BrA,
}
_OPCODE_OF = {cls: opcode for opcode, cls in _OPCODES.items()}


def decode(word, pc, host_calls=()):
    """The instruction whose word at virtual address ``pc`` is ``word``,
    or None.  A HostCall word names a slot of ``host_calls``.

    Only canonical words decode: unused bits are zero and every field
    holds a value, so re-encoding the result at ``pc`` gives ``word``.
    """
    cls = _OPCODES.get(word >> 26)
    if cls is None:
        return None
    operands, used = {}, 0
    try:
        for name, (bits, values, bias, relative) in cls.fields:
            value = values[(word >> used & (1 << bits) - 1) ^ bias]
            operands[name] = (pc + value) & _MASK64 if relative else value
            used += bits
        if (word & 0x3FFFFFF) >> used:
            return None
        if cls is HostCall:
            return host_calls[operands["slot"]]
        return cls(**operands)
    except (IndexError, ReproError):
        return None


# ---------------------------------------------------------------------------
# static classification helpers (CFG recovery, verifier, gadget census)
# ---------------------------------------------------------------------------

#: Control-transfer categories produced by :func:`branch_kind`.
#:
#: ``jump``            unconditional PC-relative branch (B)
#: ``cond``            conditional branch (B.cond/CBZ/CBNZ): target + fall-through
#: ``call``            direct call (BL): records LR, falls through on return
#: ``indirect-call``   BLR / BLRA*
#: ``indirect-jump``   BR / BRA*
#: ``ret``             RET / RETA*
#: ``exception``       SVC/HVC (synchronous exception, falls through on ERET)
#: ``exception-return``  ERET
#: ``halt``            HLT (simulation stop)
_BRANCH_KINDS = (
    (B, "jump"),
    ((BCond, Cbz, Cbnz), "cond"),
    (Bl, "call"),
    ((Blr, BlrA), "indirect-call"),
    ((Br, BrA), "indirect-jump"),
    ((Ret, RetA), "ret"),
    ((Svc, Hvc), "exception"),
    (Eret, "exception-return"),
    (Hlt, "halt"),
)


#: :func:`branch_kind` of each instruction class, filled as classes are
#: first classified (the kind depends on the class alone).
_KIND_OF_CLASS = {}


def branch_kind(instruction):
    """Classify a control-transfer instruction; None for straight-line.

    Order matters: CBZ/CBNZ subclass the label-branch base and BLRA*/
    BRA* share a base class, so the table is checked most-specific
    first.
    """
    cls = type(instruction)
    try:
        return _KIND_OF_CLASS[cls]
    except KeyError:
        kind = next(
            (kind for classes, kind in _BRANCH_KINDS
             if issubclass(cls, classes)),
            None,
        )
        _KIND_OF_CLASS[cls] = kind
        return kind


def branch_target(instruction):
    """Static target address of a direct branch, or None.

    Only meaningful after assembly (label resolution); indirect
    branches and returns have no static target by definition.
    """
    if isinstance(instruction, _LabelBranch):
        return instruction.target
    return None


def is_sign(instruction):
    """True for instructions that *add* a PAC (PAC*, PACGA included)."""
    return isinstance(instruction, (Pac, PacSp, Pac1716, PacGa)) and not isinstance(
        instruction, (Aut, AutSp, Aut1716)
    )


def is_auth(instruction):
    """True for instructions that *check* a PAC.

    The combined branch forms (RETA*, BLRA*, BRA*) authenticate as part
    of the transfer and count too — a gadget window containing any of
    these is dead to an attacker without the key.
    """
    return isinstance(instruction, (Aut, AutSp, Aut1716, RetA, BlrA, BrA))


def is_strip(instruction):
    """True for XPACI/XPACD — removes a PAC *without* the key.

    A reachable strip instruction is a gadget that defeats pointer
    authentication wholesale (paper Section 6.2.2), which is why
    loadable modules must not carry one.
    """
    return isinstance(instruction, Xpac)

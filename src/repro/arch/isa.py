"""AArch64-subset instruction set with the ARMv8.3 PAuth extension.

Instructions are small Python objects with an :meth:`execute` method.
Memory holds each as one 32-bit word: a fixed 6-bit opcode
(``_OPCODES``) over the operand fields its class lists in ``fields``.
That list is the one place a class names its operands: it drives the
encoder, :func:`decode` and the constructor generated from it (a
class attribute of a field's name is its default; a PC-relative field
takes a label or an address).  The CPU fetches the word, :func:`decode`
rebuilds the instruction, and the CPU accounts its cycle cost.  The
cost model is a coarse in-order Cortex-A53-like model, with every
PAuth computation costing ``PAUTH_CYCLES`` extra cycles — exactly the
"PA-analogue" the paper substitutes for PAuth instructions when
measuring on ARMv8.0 hardware (Section 6.1).

Register operand conventions:

* integers 0..30 name X registers,
* :data:`~repro.arch.registers.XZR` (31) is the zero register,
* :data:`SP` (32) names the banked stack pointer.

``execute`` indexes the register storage (``regs.x``, ``regs.sp_el``)
directly; operands that may name SP go through :func:`get_operand` and
:func:`set_operand`, the one home of the XZR/SP routing rule.  A class
that states its semantics as a ``template`` gets its ``execute`` built
from it, and the CPU inlines the same template into compiled blocks
(:meth:`Instruction.inline`).
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple

from repro.arch.registers import KEY_REGISTERS, LR, SYSTEM_REGISTERS, XZR
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

#: Extra MSR cycles when writing half of a PAuth key register.  Zero in
#: the default calibration: with 2-cycle MSRs, installing one key from
#: immediates (8 moves + 2 MSRs = 12 cycles) and restoring one key from
#: memory (1 LDP + 2 MSRs = 6 cycles) average exactly 9 cycles per key
#: per switch — the paper's Section 6.1.1 measurement (avg 8.88).
KEY_WRITE_EXTRA_CYCLES = 0

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


#: A template slot: ``{name}``, or ``{name:n}`` for the operand number
#: of a register field rather than the register's value.
_SLOT = re.compile(r"\{(\w+)(:n)?\}")


def _expand(cls, read, value):
    """``cls.template`` as ``(indent, target, text)`` lines.  A line
    ``{rd} = ...`` writes register field ``rd`` (its target; any other
    line's is None) and must have a right-hand side without side
    effects.  Each slot becomes ``read(name)`` for a register field and
    ``value(name)`` otherwise: another field or attribute, ``el`` (the
    exception level), ``page`` (the page size), ``page_shift`` (its
    log2), ``link`` (the address after the instruction) or ``test``
    (B.cond's condition, true when the branch is taken)."""
    registers = {name for name, field in cls.fields if field in (_X, _XSP)}

    def slot(match):
        name, number = match.groups()
        return read(name) if name in registers and not number else value(name)

    for line in cls.template:
        text = line.lstrip()
        target, equals, rhs = text.partition(" = ")
        indent = line[: len(line) - len(text)]
        if equals and target[0] == "{" and target[1:-1] in registers:
            yield indent, target[1:-1], _SLOT.sub(slot, rhs)
        else:
            yield indent, None, _SLOT.sub(slot, text)


#: Generated functions by (filename, source); cleared when full.
_CODE = {}
_CODE_LIMIT = 4096


def _generate(source, filename, name):
    """The function ``name`` that ``source`` defines, compiled (once) as
    ``filename`` in this module's globals: the one code generator, for
    a template's ``execute``, a field constructor and a CPU block body."""
    key = (filename, source)
    function = _CODE.get(key)
    if function is None:
        if len(_CODE) >= _CODE_LIMIT:
            _CODE.clear()
        namespace = {}
        exec(compile(source, filename, "exec"), globals(), namespace)
        function = _CODE[key] = namespace[name]
    return function


def _field_init(cls):
    """``cls.__init__``, built from ``cls.fields``: one parameter per
    field in field order, defaulting to the class attribute of its name
    if there is one.  A PC-relative field takes ``label=None`` and
    itself ``=None``: a label the assembler resolves, or the address.
    Each class gets its own code object: CPython caches an attribute
    store per code object and class, so one constructor shared by
    classes built in turn (a decoded block's) stores unspecialised."""
    params, body = ["self"], []
    for name, field in cls.fields:
        if field.relative:
            params += ["label=None", f"{name}=None"]
            body.append("self.label = label")
        elif hasattr(cls, name):
            params.append(f"{name}={getattr(cls, name)!r}")
        else:
            params.append(name)
        body.append(f"self.{name} = {name}")
    source = "\n    ".join([f"def __init__({', '.join(params)}):", *body])
    init = _generate(source, f"<{cls.__name__}.__init__>", "__init__")
    init.__qualname__ = f"{cls.__name__}.__init__"
    return init


#: The locals a generated ``execute`` or block body binds from ``cpu``,
#: in order: those its lines name, and those their values need
#: (``reads``/``writes`` are the MMU's host-frame TLBs, indexed by EL).
_LOCALS = (
    ("regs", "cpu.regs"),
    ("x", "regs.x"),
    ("sp", "regs.sp_el"),
    ("mmu", "cpu.mmu"),
    ("reads", "mmu._reads"),
    ("writes", "mmu._writes"),
    ("cell", "mmu.generation"),
)


def _prologue(lines):
    """The assignments binding the :data:`_LOCALS` that ``lines`` use."""
    used = set(re.findall(r"\w+", "\n".join(lines)))
    for name, value in reversed(_LOCALS):
        if name in used:
            used.update(re.findall(r"\w+", value))
    return [f"{name} = {value}" for name, value in _LOCALS if name in used]


def _template_execute(cls):
    """``cls.execute``, built from ``cls.template``: X-register fields
    index ``regs.x`` (slot 31 reads 0, a write to it is skipped) and
    SP-capable ones go through :func:`get_operand`/:func:`set_operand`."""
    with_sp = {name for name, field in cls.fields if field is _XSP}

    def read(name):
        if name in with_sp:
            return f"get_operand(regs, self.{name})"
        return f"x[self.{name}]"

    special = {
        "el": "regs.current_el",
        "page": "mmu.page_size",
        "page_shift": "mmu.page_shift",
        "link": "(regs.pc + 4) & _MASK64",
        "test": "_TESTS[self.condition](n, z, c, v)",
    }

    def value(name):
        return special.get(name, f"self.{name}")

    body = []
    for indent, target, text in _expand(cls, read, value):
        if target in with_sp:
            text = f"set_operand(regs, self.{target}, {text})"
        elif target is not None:
            text = f"if self.{target} != XZR: x[self.{target}] = {text}"
        body.append(indent + text)
    source = "\n    ".join(
        ["def execute(self, cpu):", *_prologue(body), *body, "pass"]
    )
    execute = _generate(source, f"<{cls.__name__}.execute>", "execute")
    execute.__qualname__ = f"{cls.__name__}.execute"
    return execute


class Instruction:
    """Base class: one 4-byte instruction."""

    mnemonic = "???"
    cycles = 1
    #: True when the CPU ends a translation block after this instruction:
    #: every :func:`branch_kind` class and HostCall.
    ends_block = False
    #: (attribute, field) pairs, packed from bit 0 upward; a class that
    #: declares no ``__init__`` takes them as its parameters
    #: (:func:`_field_init`).
    fields = ()
    #: The semantics as source lines with operand slots (see
    #: :func:`_expand`), or None: ``execute`` is built from it, and the
    #: CPU inlines it into compiled blocks.  ``cpu``, this module's
    #: globals and the :data:`_LOCALS` are bound (``x`` the registers,
    #: ``mmu``, the TLBs ``reads`` and ``writes``); ``a``, ``c``, ``f``,
    #: ``m``, ``n``, ``o``, ``v``, ``w`` and ``z`` are free for
    #: temporaries.  A branch's template ``return``s its target (none
    #: means the next instruction); a block ender with a template runs
    #: inside a compiled block as its last entry.
    template = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.fields and "__init__" not in cls.__dict__:
            cls.__init__ = _field_init(cls)
        if "template" in cls.__dict__:
            cls.execute = _template_execute(cls)

    def __eq__(self, other):
        """The same class with the same instance attributes: the
        operands, a branch's label, a HostCall's callable."""
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    #: Unhashable: equality is by value and an instruction is mutable.
    __hash__ = None

    def inline(self, el, page_size, pc):
        """The template's lines with this instruction's operands as
        literals, for code that runs at ``pc`` and ``el``: XZR reads 0,
        SP is ``sp[el]``.  None for a class without a template."""
        if self.template is None:
            return None

        def read(name):
            index = getattr(self, name)
            if index == SP:
                return f"sp[{el}]"
            return "0" if index == XZR else f"x[{index}]"

        special = {
            "el": el, "page": page_size, "page_shift": page_size.bit_length() - 1,
            "link": (pc + 4) & _MASK64,
        }

        def value(name):
            if name == "test":
                return f"({_CONDITIONS[self.condition]})"
            return repr(special[name] if name in special else getattr(self, name))

        lines = []
        for indent, target, text in _expand(type(self), read, value):
            if target is not None and getattr(self, target) != XZR:
                text = f"{read(target)} = {text}"
            lines.append(indent + text)
        return lines

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


class Movz(Instruction):
    """MOVZ Xd, #imm16, LSL #shift — zero the register, set one slice."""

    shift = 0
    mnemonic = "movz"
    fields = (("imm16", _IMM16), ("rd", _X), ("shift", _HALFWORD))
    template = ("{rd} = ({imm16} & 0xFFFF) << {shift}",)

    # The assembly order: ``fields`` keeps imm16 in the low half-word.
    def __init__(self, rd, imm16, shift=shift):
        self.imm16 = imm16
        self.rd = rd
        self.shift = shift

    def text(self):
        return f"{self.mnemonic} x{self.rd}, #{self.imm16:#x}, lsl #{self.shift}"


class Movk(Instruction):
    """MOVK Xd, #imm16, LSL #shift — keep other bits, set one slice."""

    shift = 0
    mnemonic = "movk"
    fields = Movz.fields
    template = (
        "{rd} = ({rd} & ~(0xFFFF << {shift})) | (({imm16} & 0xFFFF) << {shift})",
    )

    # Movz's, as its own code object (see ``_field_init``).
    def __init__(self, rd, imm16, shift=shift):
        self.imm16 = imm16
        self.rd = rd
        self.shift = shift

    text = Movz.text


class MovReg(Instruction):
    """MOV Xd, Xn (also moves to/from SP)."""

    mnemonic = "mov"
    fields = (("rd", _XSP), ("rn", _XSP))
    template = ("{rd} = {rn}",)

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


class AddImm(Instruction):
    """ADD Xd, Xn, #imm (SP allowed both sides)."""

    mnemonic = "add"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))
    template = ("{rd} = ({rn} + {imm}) & _MASK64",)

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


class SubImm(AddImm):
    mnemonic = "sub"
    template = ("{rd} = ({rn} - {imm}) & _MASK64",)


class AddReg(Instruction):
    mnemonic = "add"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))
    template = ("{rd} = ({rn} + {rm}) & _MASK64",)

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


class SubReg(AddReg):
    mnemonic = "sub"
    template = ("{rd} = ({rn} - {rm}) & _MASK64",)


#: SUBS of ``a`` and ``w``: NZCV from the 64-bit difference.  V (signed
#: overflow) is set when the operands' signs differ and the result's
#: sign differs from ``a``'s.
_SUBTRACT_FLAGS = (
    "v = (a - w) & _MASK64",
    "cpu.nzcv = (v >> 63 == 1, v == 0, a >= w, ((a ^ w) & (a ^ v)) >> 63 == 1)",
    "{rd} = v",
)


class SubsReg(Instruction):
    """SUBS / CMP: subtract and set NZCV."""

    mnemonic = "subs"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))
    template = ("a = {rn}", "w = {rm}", *_SUBTRACT_FLAGS)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, {_reg(self.rm)}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


class SubsImm(Instruction):
    mnemonic = "subs"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))
    template = ("a = {rn}", "w = {imm}", *_SUBTRACT_FLAGS)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, #{self.imm:#x}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


class AndImm(Instruction):
    mnemonic = "and"
    fields = (("rd", _XSP), ("rn", _XSP), ("imm", _UIMM))
    template = ("{rd} = {rn} & {imm}",)

    text = AddImm.text


class OrrImm(AndImm):
    mnemonic = "orr"
    template = ("{rd} = {rn} | {imm}",)


class EorReg(Instruction):
    mnemonic = "eor"
    fields = (("rd", _XSP), ("rn", _XSP), ("rm", _XSP))
    template = ("{rd} = {rn} ^ {rm}",)

    text = AddReg.text


class EorImm(AndImm):
    mnemonic = "eor"
    template = ("{rd} = {rn} ^ {imm}",)


class LslImm(Instruction):
    mnemonic = "lsl"
    fields = (("rd", _XSP), ("rn", _XSP), ("shift", _BIT))
    template = ("{rd} = ({rn} << {shift}) & _MASK64",)

    def text(self):
        return f"{self.mnemonic} {_reg(self.rd)}, {_reg(self.rn)}, #{self.shift}"


class LsrImm(LslImm):
    mnemonic = "lsr"
    template = ("{rd} = {rn} >> {shift}",)


class Adr(Instruction):
    """ADR Xd, label — PC-relative address (resolved at assembly)."""

    mnemonic = "adr"
    fields = (("rd", _X), ("target", _REL20))
    template = ("{rd} = {target}",)

    def text(self):
        return f"adr x{self.rd}, {self.label or hex(self.target)}"


class Bfi(Instruction):
    """BFI Xd, Xn, #lsb, #width — bit-field insert.

    The Camouflage return-address modifier (Listing 3) uses
    ``bfi ip0, ip1, #32, #32`` to pack the low SP bits above the low
    function-address bits.  Note AArch64 forbids SP as an operand here —
    the reason Listing 3 needs the extra ``mov ip1, sp``.
    """

    mnemonic = "bfi"
    fields = (("rd", _XSP), ("rn", _XSP), ("lsb", _BIT), ("width", _WIDTH))
    template = (
        # SP is 32, the one operand number with bit 5 set.
        "if ({rd:n} | {rn:n}) & 32:",
        "    raise UndefinedInstructionFault("
        "'SP is not a valid BFI operand', el={el})",
        "{rd} = ({rd} & ~(((1 << {width}) - 1) << {lsb}))"
        " | (({rn} & ((1 << {width}) - 1)) << {lsb})",
    )

    def __init__(self, rd, rn, lsb, width):
        if lsb + width > 64:
            raise ReproError(f"bfi #{lsb}, #{width} exceeds 64 bits")
        self.rd = rd
        self.rn = rn
        self.lsb = lsb
        self.width = width

    def text(self):
        return f"bfi x{self.rd}, x{self.rn}, #{self.lsb}, #{self.width}"


# ---------------------------------------------------------------------------
# loads and stores
# ---------------------------------------------------------------------------


def _host_frame(access, size):
    """Template lines of the in-page fast path of an ``access`` ('r' or
    'w') of ``size`` bytes at ``a``: ``f`` is the host frame behind it
    when the bytes sit in one page, at offset ``o``, and the MMU's TLB
    for that access at this EL holds the page (see ``MMU.translate``:
    the frame is allocated and, for a store, not code).  Otherwise ``f``
    is None and the access takes its ``MMU`` call, which walks,
    allocates, straddles and bumps the generation for a code frame."""
    tlb = "reads" if access == "r" else "writes"
    return (
        "o = a & {page} - 1",
        f"f = {tlb}[{{el}}].get(a >> {{page_shift}})"
        f" if o <= {{page}} - {size} else None",
    )


#: One word or a pair, unpacked from or packed into a host frame in place.
_unpack_u64 = struct.Struct("<Q").unpack_from
_pack_u64 = struct.Struct("<Q").pack_into
_unpack_pair = struct.Struct("<QQ").unpack_from
_pack_pair = struct.Struct("<QQ").pack_into


def _straddling_pair(mmu, x, rt1, address, el):
    """LDP's loads across a page, word by word: ``rt1`` is loaded
    before the second word faults."""
    first = mmu.read_u64(address, el)
    if rt1 != XZR:
        x[rt1] = first
    return first, mmu.read_u64(address + 8, el)


#: The four accesses at ``a``; a load leaves its words in ``v``/``w``.
_LOAD = (
    *_host_frame("r", 8),
    "v = _unpack_u64(f, o)[0] if f is not None else mmu.read_u64(a, {el})",
)
_STORE = (
    *_host_frame("w", 8),
    "_pack_u64(f, o, {rt} & _MASK64) if f is not None"
    " else mmu.write_u64(a, {rt}, {el})",
)
#: Off the fast path, a pair within a page is one ``MMU.read_pair``/
#: ``write_pair`` call, and LDP across a page goes word by word.
_LOAD_PAIR = (
    *_host_frame("r", 16),
    "v, w = _unpack_pair(f, o) if f is not None"
    " else mmu.read_pair(a, {el}) if o <= {page} - 16"
    " else _straddling_pair(mmu, x, {rt1:n}, a, {el})",
    "{rt1} = v",
    "{rt2} = w",
)
_STORE_PAIR = (
    *_host_frame("w", 16),
    "_pack_pair(f, o, {rt1} & _MASK64, {rt2} & _MASK64) if f is not None"
    " else mmu.write_pair(a, {rt1}, {rt2}, {el})",
)


class Ldr(Instruction):
    """LDR Xt, [Xn, #imm]"""

    imm = 0
    mnemonic = "ldr"
    cycles = 2
    fields = (("rt", _X), ("rn", _XSP), ("imm", _OFFSET))
    template = ("a = ({rn} + {imm}) & _MASK64", *_LOAD, "{rt} = v")

    def text(self):
        return f"{self.mnemonic} x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]"


class Str(Ldr):
    mnemonic = "str"
    fields = (("rt", _XSP), ("rn", _XSP), ("imm", _OFFSET))
    template = ("a = ({rn} + {imm}) & _MASK64", *_STORE)


class LdrPost(Instruction):
    """LDR Xt, [Xn], #imm — post-indexed."""

    mnemonic = "ldr"
    cycles = 2
    fields = (("rt", _X), ("rn", _XSP), ("imm", _OFFSET))
    template = ("a = {rn}", *_LOAD, "{rt} = v", "{rn} = (a + {imm}) & _MASK64")

    def text(self):
        return f"ldr x{self.rt}, [{_reg(self.rn)}], #{self.imm:#x}"


class StrPre(Instruction):
    """STR Xt, [Xn, #imm]! — pre-indexed."""

    mnemonic = "str"
    cycles = 2
    fields = (("rt", _XSP), ("rn", _XSP), ("imm", _OFFSET))
    template = ("a = ({rn} + {imm}) & _MASK64", *_STORE, "{rn} = a")

    def text(self):
        return f"str x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]!"


class Ldp(Instruction):
    """LDP Xt1, Xt2, [Xn, #imm]"""

    imm = 0
    mnemonic = "ldp"
    cycles = 2
    fields = (("rt1", _X), ("rt2", _X), ("rn", _XSP), ("imm", _PAIR))
    template = ("a = ({rn} + {imm}) & _MASK64", *_LOAD_PAIR)

    def text(self):
        return (
            f"{self.mnemonic} x{self.rt1}, x{self.rt2}, "
            f"[{_reg(self.rn)}, #{self.imm:#x}]"
        )


class Stp(Ldp):
    mnemonic = "stp"
    fields = (("rt1", _XSP), ("rt2", _XSP), ("rn", _XSP), ("imm", _PAIR))
    template = ("a = ({rn} + {imm}) & _MASK64", *_STORE_PAIR)


class LdpPost(Instruction):
    """LDP Xt1, Xt2, [Xn], #imm — the canonical epilogue load."""

    mnemonic = "ldp"
    cycles = 2
    fields = (("rt1", _X), ("rt2", _X), ("rn", _XSP), ("imm", _PAIR))
    template = ("a = {rn}", *_LOAD_PAIR, "{rn} = (a + {imm}) & _MASK64")

    def text(self):
        return (
            f"ldp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}], #{self.imm:#x}"
        )


class StpPre(Instruction):
    """STP Xt1, Xt2, [Xn, #imm]! — the canonical prologue store."""

    mnemonic = "stp"
    cycles = 2
    fields = (("rt1", _XSP), ("rt2", _XSP), ("rn", _XSP), ("imm", _PAIR))
    template = ("a = ({rn} + {imm}) & _MASK64", *_STORE_PAIR, "{rn} = a")

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

    def text(self):
        return f"{self.mnemonic} {self.label or hex(self.target)}"


class B(_LabelBranch):
    mnemonic = "b"
    template = ("return {target}",)


class Bl(_LabelBranch):
    """BL label — saves the return address in LR."""

    mnemonic = "bl"
    template = (f"x[{LR}] = {{link}}", "return {target}")


class Br(Instruction):
    """BR Xn — indirect jump (a JOP target when unprotected)."""

    mnemonic = "br"
    fields = (("rn", _X),)
    ends_block = True
    template = ("return {rn}",)

    def text(self):
        return f"{self.mnemonic} x{self.rn}"


class Blr(Instruction):
    """BLR Xn — indirect call."""

    mnemonic = "blr"
    fields = (("rn", _X),)
    ends_block = True
    # The link is written first: ``blr x30`` jumps to the next instruction.
    template = (f"x[{LR}] = {{link}}", "return {rn}")

    text = Br.text


class Ret(Instruction):
    """RET — return through LR (the ROP pivot when unprotected)."""

    rn = LR
    mnemonic = "ret"
    fields = (("rn", _X),)
    ends_block = True
    template = ("return {rn}",)

    def text(self):
        return "ret" if self.rn == LR else f"ret x{self.rn}"


class Cbz(_LabelBranch):
    mnemonic = "cbz"
    fields = (("rn", _X), ("target", _REL20))
    template = ("if {rn} == 0: return {target}",)

    def text(self):
        return f"{self.mnemonic} x{self.rn}, {self.label or hex(self.target)}"


class Cbnz(Cbz):
    mnemonic = "cbnz"
    template = ("if {rn} != 0: return {target}",)


#: B.cond's conditions, as source over the flags ``n z c v``: a compiled
#: block inlines it, and ``execute`` calls it compiled once (``_TESTS``).
_CONDITIONS = {
    "eq": "z",
    "ne": "not z",
    "lt": "n != v",
    "ge": "n == v",
    "gt": "not z and n == v",
    "le": "z or n != v",
    "cs": "c",
    "cc": "not c",
    "mi": "n",
    "pl": "not n",
}
_TESTS = {
    name: _generate(f"def test(n, z, c, v): return {test}", f"<b.{name}>", "test")
    for name, test in _CONDITIONS.items()
}
_CONDITION = _field(4, tuple(_CONDITIONS))


class BCond(_LabelBranch):
    """B.cond label"""

    mnemonic = "b.cond"
    fields = (("condition", _CONDITION), ("target", _REL22))
    template = ("n, z, c, v = cpu.nzcv", "if {test}: return {target}")

    def __init__(self, condition, label=None, target=None):
        super().__init__(label, target)
        if condition not in _CONDITIONS:
            raise ReproError(f"unknown condition {condition!r}")
        self.condition = condition

    def text(self):
        return f"b.{self.condition} {self.label or hex(self.target)}"


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------


class Nop(Instruction):
    mnemonic = "nop"
    template = ()


class Hlt(Instruction):
    """HLT — stop the simulation (used as program exit)."""

    mnemonic = "hlt"
    ends_block = True

    def execute(self, cpu):
        cpu.halted = True
        return cpu.regs.pc  # freeze PC


class Svc(Instruction):
    """SVC #imm — supervisor call (syscall entry)."""

    imm = 0
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


class Hvc(Instruction):
    """HVC #imm — hypervisor call (EL1 -> EL2).

    Used only by the EL2-trap key-management *ablation* (the Ferri et
    al. alternative the paper's Related Work discusses): the hypervisor
    service itself is host-modelled, and its round-trip cost is added
    by the handler, because "the traps ... are not intended and
    optimized for frequent occurrence" (Section 7).
    """

    imm = 0
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


#: The exception-return registers MSR and MRS reach directly, by the
#: ``RegisterFile`` attribute that holds them (EL1's slot).
_LINK = {"ELR_EL1": "elr", "SPSR_EL1": "spsr"}
#: The key bank PAC instructions, MSR and MRS address, as source over
#: ``cpu`` and ``regs`` (``CPU._key_bank`` is built from it).
_BANK = (
    "(regs.alt_keys if cpu.has_banked_keys"
    " and regs.sysregs.get('APKSSEL_EL1') == 1 else regs.keys)"
)


class Msr(Instruction):
    """MSR sysreg, Xn — system register write.

    Writes to PAuth key registers cost ``KEY_WRITE_EXTRA_CYCLES`` more
    (the paper measures about 9 cycles per 128-bit key, i.e. per two
    MSRs).  Writes to hypervisor-locked registers trap to EL2, an
    ordinary fault: an MSR reads no PC or cycle count, so it need not
    end a translation block.
    """

    mnemonic = "msr"
    cycles = 2
    fields = (("sysreg", _SYSREG), ("rn", _X))
    # A key register or ELR/SPSR is stored here, after the hypervisor
    # hook; any other register, or any write under a tracer, takes
    # ``write_sysreg_checked``.
    template = (
        "n = {rn}",
        "o = KEY_REGISTERS.get({sysreg})",
        "if cpu.tracer is not None or (not cpu.has_pauth if o else {sysreg} not in _LINK):",
        "    cpu.write_sysreg_checked({sysreg}, n)",
        "else:",
        "    if cpu.sysreg_write_hook is not None:",
        "        cpu.sysreg_write_hook(cpu, {sysreg}, n)",
        "    if o:",
        "        setattr(getattr(" + _BANK + ", o[0]), o[1], n)",
        "    else:",
        "        getattr(regs, _LINK[{sysreg}])[1] = n",
    )

    def cost_on(self, cpu):
        if self.sysreg in KEY_REGISTERS:
            return self.cycles + KEY_WRITE_EXTRA_CYCLES
        return self.cycles

    def text(self):
        return f"msr {self.sysreg}, x{self.rn}"


class Mrs(Instruction):
    """MRS Xd, sysreg — system register read.

    MRS immediately encodes the register it reads, so a static scan can
    reject kernel or module code reading the key registers (paper
    Section 4.1 / 6.2.2).
    """

    mnemonic = "mrs"
    cycles = 2
    fields = (("rd", _X), ("sysreg", _SYSREG))
    template = (
        "{rd} = getattr(regs, _LINK[{sysreg}])[1] if {sysreg} in _LINK"
        " else cpu.read_sysreg_checked({sysreg})",
    )

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


class Work(Instruction):
    """Pseudo-instruction: ``units`` cycles of pure computation.

    Stands in for straight-line arithmetic in synthetic workloads so
    instruction-mix ratios can be controlled precisely without
    assembling thousands of ALU ops.
    """

    units = 1
    mnemonic = "work"
    fields = (("units", _COUNT),)
    template = ()

    @property
    def cycles(self):
        return self.units

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

    @property
    def mnemonic(self):
        """The class's ``mnemonic_format`` with the key operand."""
        return self.mnemonic_format.format(key=self.key)

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
        _undefined(cpu, self.mnemonic)


def _undefined(cpu, mnemonic):
    raise UndefinedInstructionFault(
        f"{mnemonic} undefined without FEAT_PAuth", el=cpu.regs.current_el
    )


#: The MAC of pointer ``a`` under modifier ``w`` and key ``{key}``, from
#: the memo of the key's cipher.  ``m`` is that memo when the core has
#: PAuth, no trace hook is set, the key is enabled and its value has a
#: cipher with a memo (a cache-free core's has none); ``o`` is then the
#: pointer's field geometry, ``c`` its canonical form and ``v`` the MAC,
#: or None on a miss.  When ``m`` is None the instruction takes the
#: CPU's unchanged path.
_MAC = (
    "n = cpu.pac",
    "o = getattr(" + _BANK + ", {key})",
    "f = n._cipher_cache.get((o.lo, o.hi)) if cpu.has_pauth"
    " and n.trace_hook is None and getattr(regs.sctlr_el1, 'en_' + {key}) else None",
    "m = None if f is None else f._memo",
    "if m is not None:",
    "    o = n._fields[a >> 55 & 1]",
    "    c = a & o.ext_keep | o.ext_fill",
    "    v = m.get((c, w))",
)
#: MAC ``v`` inserted into the PAC field of ``c`` (``PACEngine._add_pac``).
_INSERT = (
    "(c & o.clear | (v & o.low_mask) << o.va_bits"
    " | (v >> o.low_len & o.high_mask) << 56)"
)


class Pac(_PAuthInstruction):
    """PACIA/PACIB/PACDA/PACDB Xd, Xn — sign Xd with modifier Xn."""

    fields = (("key", _KEY), ("rd", _X), ("rn", _XSP))
    mnemonic_format = "pac{key}"
    # A memo miss computes the MAC with ``Qarma64.encrypt``.
    template = (
        "a = {rd}",
        "w = {rn}",
        *_MAC,
        "    if v is None:",
        "        v = f.encrypt(c, w)",
        "    else:",
        "        f.memo_stats.hits += 1",
        "    v = " + _INSERT + " ^ (o.poison if c != a else 0)",
        "else:",
        "    v = cpu.pac_add({key}, a, w) if cpu.has_pauth else _undefined(cpu, {mnemonic})",
        "{rd} = v",
    )

    def text(self):
        return f"{self.mnemonic} x{self.rd}, {_reg(self.rn)}"


class Aut(_PAuthInstruction):
    """AUTIA/AUTIB/AUTDA/AUTDB Xd, Xn — authenticate Xd with Xn."""

    fields = (("key", _KEY), ("rd", _X), ("rn", _XSP))
    mnemonic_format = "aut{key}"
    # Only a memo hit that authenticates stays here: a miss or a failure
    # takes ``CPU.pac_auth``, which counts the memo probe once.
    template = (
        "a = {rd}",
        "w = {rn}",
        *_MAC,
        "    if v is not None and " + _INSERT + " == a:",
        "        f.memo_stats.hits += 1",
        "        v = c",
        "    else:",
        "        m = None",
        "if m is None:",
        "    v = cpu.pac_auth({key}, a, w) if cpu.has_pauth else _undefined(cpu, {mnemonic})",
        "{rd} = v",
    )

    text = Pac.text


class Xpac(_PAuthInstruction):
    """XPACI/XPACD Xd — strip the PAC (debug aid)."""

    data = False
    fields = (("rd", _X), ("data", _FLAG))
    template = (
        "a = {rd}",
        "n = cpu.pac",
        "if cpu.has_pauth and n.trace_hook is None:",
        "    o = n._fields[a >> 55 & 1]",
        "    v = a & o.ext_keep | o.ext_fill",
        "else:",
        "    v = cpu.pac_strip(a) if cpu.has_pauth else _undefined(cpu, {mnemonic})",
        "{rd} = v",
    )

    @property
    def mnemonic(self):
        return "xpacd" if self.data else "xpaci"

    def text(self):
        return f"{self.mnemonic} x{self.rd}"


class PacGa(_PAuthInstruction):
    """PACGA Xd, Xn, Xm — generic 32-bit MAC of Xn under modifier Xm."""

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


class Pac1716(_PAuthInstruction):
    """PACIA1716/PACIB1716 — sign X17 with modifier X16.

    These live in the HINT space: on pre-ARMv8.3 cores they execute as
    NOPs, which is the basis of the paper's binary backwards
    compatibility (Section 5.5).  No data-key variants exist.
    """

    fields = (("key", _IKEY),)
    hint_space = True
    mnemonic_format = "pac{key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        x[17] = cpu.pac_add(self.key, x[17], x[16])


class Aut1716(Pac1716):
    mnemonic_format = "aut{key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        x = cpu.regs.x
        x[17] = cpu.pac_auth(self.key, x[17], x[16])


class PacSp(_PAuthInstruction):
    """PACIASP/PACIBSP — sign LR with SP as modifier (HINT space).

    This is the plain compiler-supported scheme (Listing 2); its
    modifier weakness is what Section 4.2 hardens.
    """

    key = "ia"
    hint_space = True
    fields = (("key", _IKEY),)
    mnemonic_format = "pac{key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        regs = cpu.regs
        regs.x[LR] = cpu.pac_add(
            self.key, regs.x[LR], regs.sp_el[regs.current_el]
        )


class AutSp(PacSp):
    mnemonic_format = "aut{key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        regs = cpu.regs
        regs.x[LR] = cpu.pac_auth(
            self.key, regs.x[LR], regs.sp_el[regs.current_el]
        )


class RetA(_PAuthInstruction):
    """RETAA/RETAB — authenticate LR against SP and return."""

    key = "ia"
    cycles = 1 + PAUTH_CYCLES
    fields = (("key", _IKEY),)
    ends_block = True
    mnemonic_format = "reta{key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)  # not HINT space: undefined on v8.0
        regs = cpu.regs
        return cpu.pac_auth(self.key, regs.x[LR], regs.sp_el[regs.current_el])


class BlrA(_PAuthInstruction):
    """BLRAA/BLRAB Xn, Xm — authenticated indirect call."""

    cycles = 1 + PAUTH_CYCLES
    fields = (("key", _IKEY), ("rn", _X), ("rm", _XSP))
    ends_block = True
    mnemonic_format = "blra{key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)
        regs = cpu.regs
        regs.x[LR] = (regs.pc + 4) & _MASK64
        return cpu.pac_auth(
            self.key, regs.x[self.rn], get_operand(regs, self.rm)
        )

    def text(self):
        return f"{self.mnemonic} x{self.rn}, {_reg(self.rm)}"


class BrA(BlrA):
    """BRAA/BRAB Xn, Xm — authenticated indirect jump."""

    mnemonic_format = "bra{key[1]}"

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

"""Tests for instruction semantics (repro.arch.isa)."""

import hashlib
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.isa import SP
from repro.arch.pac import PACEngine
from repro.arch.registers import FP, KEY_REGISTER_NAMES, LR, XZR, PAuthKey
from repro.errors import (
    ReproError,
    SimFault,
    TranslationFault,
    UndefinedInstructionFault,
)
from repro.mem.pagetable import Permissions
from repro.mem.phys import PhysicalMemory
from repro.workloads.guest import DATA_BASE, STACK_TOP, TEXT_BASE


def run_body(machine, body, args=(), **kwargs):
    """Assemble ``main:`` with the body followed by RET, run it."""
    asm = machine.assembler()
    asm.fn("main")
    asm.emit(*body)
    asm.emit(isa.Ret())
    return machine.run(asm.assemble(), args=args, **kwargs)


class TestMoves:
    def test_movz(self, machine):
        result, _ = run_body(machine, [isa.Movz(0, 0xBEEF, 16)])
        assert result == 0xBEEF0000

    def test_movz_clears_other_bits(self, machine):
        result, _ = run_body(
            machine,
            [isa.Movz(0, 0xFFFF, 0), isa.Movz(0, 0x1, 48)],
        )
        assert result == 0x0001_0000_0000_0000

    def test_movk_keeps_other_bits(self, machine):
        result, _ = run_body(
            machine,
            [isa.Movz(0, 0xAAAA, 0), isa.Movk(0, 0xBBBB, 16)],
        )
        assert result == 0xBBBB_AAAA

    def test_mov_reg(self, machine):
        result, _ = run_body(
            machine, [isa.Movz(1, 42, 0), isa.MovReg(0, 1)]
        )
        assert result == 42

    def test_mov_from_sp(self, machine):
        result, _ = run_body(machine, [isa.MovReg(0, SP)])
        assert result == STACK_TOP

    def test_movimm_expansion(self):
        parts = isa.MovImm(3, 0x1122_3344_5566_7788).expand()
        assert len(parts) == 4
        assert isinstance(parts[0], isa.Movz)
        assert all(isinstance(p, isa.Movk) for p in parts[1:])

    def test_movimm_via_assembler(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.mov_imm(0, 0x1122_3344_5566_7788)
        asm.emit(isa.Ret())
        result, _ = machine.run(asm.assemble())
        assert result == 0x1122_3344_5566_7788


class TestArithmetic:
    def test_add_imm(self, machine):
        result, _ = run_body(machine, [isa.AddImm(0, 0, 5)], args=(10,))
        assert result == 15

    def test_sub_imm(self, machine):
        result, _ = run_body(machine, [isa.SubImm(0, 0, 4)], args=(10,))
        assert result == 6

    def test_add_reg(self, machine):
        result, _ = run_body(machine, [isa.AddReg(0, 0, 1)], args=(3, 4))
        assert result == 7

    def test_sub_reg_wraps(self, machine):
        result, _ = run_body(machine, [isa.SubReg(0, 0, 1)], args=(0, 1))
        assert result == (1 << 64) - 1

    def test_add_sp(self, machine):
        result, _ = run_body(
            machine,
            [isa.SubImm(SP, SP, 32), isa.MovReg(0, SP), isa.AddImm(SP, SP, 32)],
        )
        assert result == STACK_TOP - 32

    def test_logical_ops(self, machine):
        result, _ = run_body(
            machine, [isa.AndImm(0, 0, 0xF0), isa.OrrImm(0, 0, 0x1)],
            args=(0xABCD,),
        )
        assert result == 0xC1

    def test_eor(self, machine):
        result, _ = run_body(machine, [isa.EorReg(0, 0, 1)], args=(0xFF, 0x0F))
        assert result == 0xF0

    def test_shifts(self, machine):
        result, _ = run_body(
            machine, [isa.LslImm(0, 0, 4), isa.LsrImm(0, 0, 8)], args=(0x123,)
        )
        assert result == 0x12


class TestFlags:
    def test_subs_sets_zero(self, machine):
        _, _ = run_body(machine, [isa.SubsReg(XZR, 0, 1)], args=(5, 5))
        assert machine.cpu.nzcv[1]  # Z

    def test_subs_sets_negative(self, machine):
        _, _ = run_body(machine, [isa.SubsImm(XZR, 0, 10)], args=(5,))
        assert machine.cpu.nzcv[0]  # N

    def test_subs_carry_unsigned_ge(self, machine):
        _, _ = run_body(machine, [isa.SubsImm(XZR, 0, 3)], args=(5,))
        assert machine.cpu.nzcv[2]  # C

    def test_subs_overflow(self, machine):
        # most-negative minus 1 overflows.
        _, _ = run_body(
            machine, [isa.SubsImm(XZR, 0, 1)], args=(1 << 63,)
        )
        assert machine.cpu.nzcv[3]  # V


class TestBfi:
    def test_bfi_inserts_field(self, machine):
        result, _ = run_body(
            machine,
            [isa.Movz(0, 0xFFFF, 0), isa.Movz(1, 0xA, 0), isa.Bfi(0, 1, 4, 4)],
        )
        assert result == 0xFFAF

    def test_bfi_listing3_shape(self, machine):
        # bfi ip0, ip1, #32, #32: low 32 bits of SP over the low word.
        result, _ = run_body(
            machine,
            [
                isa.Movz(16, 0x1234, 0),
                isa.MovReg(17, SP),
                isa.Bfi(16, 17, 32, 32),
                isa.MovReg(0, 16),
            ],
        )
        assert result == ((STACK_TOP & 0xFFFFFFFF) << 32) | 0x1234

    def test_bfi_rejects_sp_operand(self, machine):
        # AArch64 forbids SP in BFI — the reason Listing 3 needs the
        # extra mov.
        with pytest.raises(UndefinedInstructionFault):
            run_body(machine, [isa.Bfi(0, SP, 0, 8)])


class TestLoadsStores:
    def test_str_ldr(self, machine):
        result, _ = run_body(
            machine,
            [isa.Str(0, 1, 8), isa.Ldr(0, 1, 8)],
            args=(0xCAFED00D, DATA_BASE),
        )
        assert result == 0xCAFED00D

    def test_pre_post_index(self, machine):
        body = [
            isa.MovReg(2, 1),
            isa.StrPre(0, 2, 16),     # [base+16] = x0, base += 16
            isa.LdrPost(3, 2, -16),   # x3 = [base], base -= 16
            isa.SubReg(0, 2, 1),      # x0 = final base - original
        ]
        result, _ = run_body(machine, body, args=(7, DATA_BASE))
        assert result == 0
        assert machine.cpu.regs.read(3) == 7

    def test_stp_ldp(self, machine):
        body = [
            isa.Stp(0, 1, 2, 0),
            isa.Ldp(3, 4, 2, 0),
            isa.AddReg(0, 3, 4),
        ]
        result, _ = run_body(machine, body, args=(11, 31, DATA_BASE))
        assert result == 42

    def test_frame_record_push_pop(self, machine):
        body = [
            isa.Movz(29, 0x1111, 0),
            isa.StpPre(FP, LR, SP, -16),
            isa.Movz(29, 0x2222, 0),
            isa.LdpPost(FP, LR, SP, 16),
            isa.MovReg(0, FP),
        ]
        result, _ = run_body(machine, body)
        assert result == 0x1111
        assert machine.cpu.regs.sp == STACK_TOP

    def test_load_cost(self):
        assert isa.Ldr(0, 1).cycles == 2
        assert isa.Stp(0, 1, 2).cycles == 2


class TestBranches:
    def test_block_enders_are_control_transfers_msr_and_hostcall(self):
        """The CPU ends a translation block after every branch_kind
        class, MSR and HostCall, and after nothing else."""
        enders = {cls for _, cls in _STORABLE if cls.ends_block}
        transfers = {
            cls for _, cls in _STORABLE
            if isa.branch_kind(cls.__new__(cls)) is not None
        }
        assert len(transfers) == 15
        assert enders == transfers | {isa.Msr, isa.HostCall}

    def test_b_and_labels(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 1, 0), isa.B("skip"), isa.Movz(0, 2, 0))
        asm.label("skip")
        asm.emit(isa.Ret())
        result, _ = machine.run(asm.assemble())
        assert result == 1

    def test_bl_sets_lr(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(
            isa.MovReg(19, LR),   # BL clobbers LR: callers must save it
            isa.Bl("leaf"),
            isa.MovReg(LR, 19),
            isa.Ret(),
        )
        asm.fn("leaf")
        asm.emit(isa.MovReg(0, LR), isa.Ret())
        result, _ = machine.run(asm.assemble())
        assert result == TEXT_BASE + 8  # return address after the BL

    def test_blr_br(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Adr(1, "target"), isa.Br(1))
        asm.fn("dead")
        asm.emit(isa.Movz(0, 0xBAD, 0), isa.Ret())
        asm.fn("target")
        asm.emit(isa.Movz(0, 0x600D, 0), isa.Ret())
        result, _ = machine.run(asm.assemble())
        assert result == 0x600D

    def test_cbz_cbnz(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Cbz(0, "zero"), isa.Movz(0, 1, 0), isa.Ret())
        asm.label("zero")
        asm.emit(isa.Movz(0, 2, 0), isa.Ret())
        result, _ = machine.run(asm.assemble(), args=(0,))
        assert result == 2
        result, _ = machine.run(asm.assemble(), args=(7,))
        assert result == 1

    @pytest.mark.parametrize(
        "condition,a,b,taken",
        [
            ("eq", 5, 5, True), ("eq", 5, 6, False),
            ("ne", 5, 6, True), ("ne", 5, 5, False),
            ("lt", 3, 5, True), ("lt", 5, 3, False),
            ("ge", 5, 5, True), ("ge", 3, 5, False),
            ("gt", 6, 5, True), ("gt", 5, 5, False),
            ("le", 5, 5, True), ("le", 6, 5, False),
            ("cs", 5, 3, True), ("cc", 3, 5, True),
        ],
    )
    def test_conditions(self, machine, condition, a, b, taken):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.SubsReg(XZR, 0, 1), isa.BCond(condition, "yes"))
        asm.emit(isa.Movz(0, 0, 0), isa.Ret())
        asm.label("yes")
        asm.emit(isa.Movz(0, 1, 0), isa.Ret())
        result, _ = machine.run(asm.assemble(), args=(a, b))
        assert bool(result) == taken

    def test_unknown_condition_rejected(self):
        with pytest.raises(ReproError):
            isa.BCond("xx", "label")

    def test_loop(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 0, 0))
        asm.mov_imm(1, 10)
        asm.label("loop")
        asm.emit(
            isa.AddImm(0, 0, 3),
            isa.SubsImm(1, 1, 1),
            isa.BCond("ne", "loop"),
            isa.Ret(),
        )
        result, _ = machine.run(asm.assemble())
        assert result == 30


class TestMisc:
    def test_work_cycles(self, machine):
        _, cycles_small = run_body(machine, [isa.Work(5)])
        _, cycles_big = run_body(machine, [isa.Work(105)])
        assert cycles_big - cycles_small == 100

    def test_nop(self, machine):
        result, _ = run_body(machine, [isa.Nop()], args=(9,))
        assert result == 9

    def test_hostcall(self, machine):
        seen = []
        result, _ = run_body(
            machine,
            [isa.HostCall(lambda cpu: seen.append(cpu.regs.read(0)), "probe")],
            args=(123,),
        )
        assert seen == [123]

    def test_adr(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Adr(0, "main"), isa.Ret())
        result, _ = machine.run(asm.assemble())
        assert result == TEXT_BASE

    def test_encoding_is_four_bytes(self):
        for instruction in (
            isa.Movz(0, 1, 0), isa.Ret(), isa.Nop(), isa.Work(7),
            isa.Pac("ib", 30, 16), isa.Msr("SCTLR_EL1", 0),
        ):
            assert len(instruction.encoding()) == 4

    def test_encoding_distinguishes_operands(self):
        assert isa.Movz(0, 1, 0).encoding() != isa.Movz(0, 2, 0).encoding()
        assert isa.Movz(0, 1, 0).encoding() != isa.Movk(0, 1, 0).encoding()

    def test_text_smoke(self):
        for instruction in (
            isa.Movz(1, 2, 16), isa.Ldr(0, SP, 8), isa.StpPre(29, 30, SP, -16),
            isa.Pac("ia", 30, 16), isa.RetA("ib"), isa.BlrA("ib", 8, 9),
            isa.Mrs(0, "SCTLR_EL1"), isa.Work(3), isa.Bfi(0, 1, 4, 4),
        ):
            assert instruction.text()


class TestSysregEncoding:
    def test_msr_mrs_encodings_do_not_depend_on_the_hash_seed(self):
        # ``hash`` of a str is salted per process; the encodings of the
        # kernel's system-register accesses must not be.
        script = (
            "from repro.arch import isa\n"
            "from repro.kernel import System\n"
            "image = System(profile='full').kernel_image\n"
            "for address, i in image.text_instructions():\n"
            "    if isinstance(i, (isa.Msr, isa.Mrs)):\n"
            "        print(hex(address), i.text(), i.encoding().hex())\n"
        )
        src = str(Path(isa.__file__).resolve().parents[2])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert "msr" in outputs[0] and "mrs" in outputs[0]
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Operand oracle: the accessor-based execute bodies that the direct
# storage indexing replaced, kept here as the reference semantics.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
USER_TEXT = 0x40_0000
USER_DATA = 0x50_0000
#: The last instruction slot of the address space, where PC + 4 wraps.
TOP_SLOT = _MASK64 - 3


def _read(cpu, index):
    return cpu.regs.sp if index == SP else cpu.regs.read(index)


def _write(cpu, index, value):
    if index == SP:
        cpu.regs.sp = value
    else:
        cpu.regs.write(index, value)


def _load(cpu, address):
    return cpu.mmu.read_u64(address, cpu.regs.current_el)


def _store(cpu, address, value):
    cpu.mmu.write_u64(address, value, cpu.regs.current_el)


def _s64(value):
    return value - (1 << 64) if value >> 63 else value


_ORACLE = {}


def _oracle(*classes):
    def register(body):
        for cls in classes:
            _ORACLE[cls] = body
        return body
    return register


@_oracle(isa.Movz)
def _movz(i, cpu):
    cpu.regs.write(i.rd, (i.imm16 & 0xFFFF) << i.shift)


@_oracle(isa.Movk)
def _movk(i, cpu):
    mask = 0xFFFF << i.shift
    cpu.regs.write(
        i.rd, (cpu.regs.read(i.rd) & ~mask) | ((i.imm16 & 0xFFFF) << i.shift)
    )


@_oracle(isa.MovReg)
def _mov_reg(i, cpu):
    _write(cpu, i.rd, _read(cpu, i.rn))


_IMM_OPS = {
    isa.AddImm: operator.add, isa.SubImm: operator.sub,
    isa.AndImm: operator.and_, isa.OrrImm: operator.or_,
    isa.EorImm: operator.xor, isa.LslImm: operator.lshift,
    isa.LsrImm: operator.rshift,
}
_REG_OPS = {
    isa.AddReg: operator.add, isa.SubReg: operator.sub,
    isa.EorReg: operator.xor,
}


@_oracle(*_IMM_OPS)
def _imm_op(i, cpu):
    operand = i.shift if isinstance(i, isa.LslImm) else i.imm
    result = _IMM_OPS[type(i)](_read(cpu, i.rn), operand)
    _write(cpu, i.rd, result & _MASK64)


@_oracle(*_REG_OPS)
def _reg_op(i, cpu):
    _write(cpu, i.rd, _REG_OPS[type(i)](_read(cpu, i.rn), _read(cpu, i.rm)))


@_oracle(isa.SubsReg, isa.SubsImm)
def _subs(i, cpu):
    a = _read(cpu, i.rn)
    b = i.imm & _MASK64 if isinstance(i, isa.SubsImm) else _read(cpu, i.rm)
    result = (a - b) & _MASK64
    overflow = (_s64(a) - _s64(b)) != _s64(result)
    cpu.nzcv = (bool(result >> 63), result == 0, a >= b, overflow)
    _write(cpu, i.rd, result)


@_oracle(isa.Adr)
def _adr(i, cpu):
    cpu.regs.write(i.rd, i.target)


@_oracle(isa.Bfi)
def _bfi(i, cpu):
    mask = ((1 << i.width) - 1) << i.lsb
    field = (cpu.regs.read(i.rn) & ((1 << i.width) - 1)) << i.lsb
    cpu.regs.write(i.rd, (cpu.regs.read(i.rd) & ~mask) | field)


@_oracle(isa.Ldr)
def _ldr(i, cpu):
    cpu.regs.write(i.rt, _load(cpu, (_read(cpu, i.rn) + i.imm) & _MASK64))


@_oracle(isa.Str)
def _str(i, cpu):
    _store(cpu, (_read(cpu, i.rn) + i.imm) & _MASK64, _read(cpu, i.rt))


@_oracle(isa.LdrPost)
def _ldr_post(i, cpu):
    address = _read(cpu, i.rn)
    cpu.regs.write(i.rt, _load(cpu, address))
    _write(cpu, i.rn, address + i.imm)


@_oracle(isa.StrPre)
def _str_pre(i, cpu):
    address = (_read(cpu, i.rn) + i.imm) & _MASK64
    _store(cpu, address, _read(cpu, i.rt))
    _write(cpu, i.rn, address)


@_oracle(isa.Ldp, isa.LdpPost)
def _ldp(i, cpu):
    post = isinstance(i, isa.LdpPost)
    base = _read(cpu, i.rn) if post else (_read(cpu, i.rn) + i.imm) & _MASK64
    cpu.regs.write(i.rt1, _load(cpu, base))
    cpu.regs.write(i.rt2, _load(cpu, base + 8))
    if post:
        _write(cpu, i.rn, base + i.imm)


@_oracle(isa.Stp, isa.StpPre)
def _stp(i, cpu):
    base = (_read(cpu, i.rn) + i.imm) & _MASK64
    _store(cpu, base, _read(cpu, i.rt1))
    _store(cpu, base + 8, _read(cpu, i.rt2))
    if isinstance(i, isa.StpPre):
        _write(cpu, i.rn, base)


@_oracle(isa.Bl)
def _bl(i, cpu):
    cpu.regs.write(LR, cpu.regs.pc + 4)
    return i.target


@_oracle(isa.Br, isa.Ret)
def _br(i, cpu):
    return cpu.regs.read(i.rn)


@_oracle(isa.Blr)
def _blr(i, cpu):
    cpu.regs.write(LR, cpu.regs.pc + 4)
    return cpu.regs.read(i.rn)


@_oracle(isa.Cbz, isa.Cbnz)
def _cbz(i, cpu):
    if (cpu.regs.read(i.rn) == 0) == (type(i) is isa.Cbz):
        return i.target
    return None


@_oracle(isa.Msr)
def _msr(i, cpu):
    cpu.write_sysreg_checked(i.sysreg, cpu.regs.read(i.rn))


@_oracle(isa.Mrs)
def _mrs(i, cpu):
    cpu.regs.write(i.rd, cpu.read_sysreg_checked(i.sysreg))


def _pauth_body(body):
    """``body`` behind the parent's FEAT_PAuth check."""
    def run(i, cpu):
        if i._require_pauth(cpu):
            return body(i, cpu)
        return None
    return run


@_oracle(isa.Pac, isa.Aut)
@_pauth_body
def _pac(i, cpu):
    op = cpu.pac_add if isinstance(i, isa.Pac) else cpu.pac_auth
    modifier = _read(cpu, i.rn)
    cpu.regs.write(i.rd, op(i.key, cpu.regs.read(i.rd), modifier))


@_oracle(isa.Xpac)
@_pauth_body
def _xpac(i, cpu):
    cpu.regs.write(i.rd, cpu.pac_strip(cpu.regs.read(i.rd)))


@_oracle(isa.PacGa)
@_pauth_body
def _pacga(i, cpu):
    cpu.regs.write(
        i.rd, cpu.pac_generic(cpu.regs.read(i.rn), _read(cpu, i.rm))
    )


@_oracle(isa.Pac1716, isa.Aut1716)
@_pauth_body
def _pac1716(i, cpu):
    op = cpu.pac_auth if isinstance(i, isa.Aut1716) else cpu.pac_add
    cpu.regs.write(17, op(i.key, cpu.regs.read(17), cpu.regs.read(16)))


@_oracle(isa.PacSp, isa.AutSp)
@_pauth_body
def _pacsp(i, cpu):
    op = cpu.pac_auth if isinstance(i, isa.AutSp) else cpu.pac_add
    cpu.regs.write(LR, op(i.key, cpu.regs.read(LR), cpu.regs.sp))


@_oracle(isa.RetA)
def _reta(i, cpu):
    i._require_pauth(cpu)
    return cpu.pac_auth(i.key, cpu.regs.read(LR), cpu.regs.sp)


@_oracle(isa.BlrA, isa.BrA)
def _blra(i, cpu):
    i._require_pauth(cpu)
    if not isinstance(i, isa.BrA):
        cpu.regs.write(LR, cpu.regs.pc + 4)
    return cpu.pac_auth(i.key, cpu.regs.read(i.rn), _read(cpu, i.rm))


def _targeted(instruction, target):
    instruction.target = target
    return instruction


# XZR and SP drawn as often as all of X0-X30 together.
_REG = st.one_of(st.just(XZR), st.integers(0, 30))
_REG_OR_SP = st.one_of(st.just(XZR), st.just(SP), st.integers(0, 30))
#: Load/store base: SP half the time, so most accesses hit the data page.
_BASE = st.one_of(st.just(SP), _REG_OR_SP)
#: Slots far enough inside the data page for any drawn offset and + 8.
_DATA_ADDRESS = st.integers(8, 0x1F0).map(lambda slot: USER_DATA + 8 * slot)
_VALUE = st.one_of(
    st.integers(0, _MASK64),
    st.sampled_from([0, 1, 1 << 63, _MASK64]),
    _DATA_ADDRESS,
)
#: ALU immediates: the format's 14-bit unsigned field, both ends included.
_IMM = st.one_of(st.sampled_from((0, 0x3FFF)), st.integers(0, 0x3FFF))
_OFFSET = st.integers(-8, 8).map(lambda k: 8 * k)
#: (lsb, width): Listing 3's field, the extremes and a few in between.
#: Fields are wide enough that a data-page address has bits set in them.
_LSB_WIDTH = st.sampled_from(
    [(32, 32), (0, 64), (63, 1), (4, 16), (8, 48), (16, 16), (48, 16)]
)
_SYSREG = st.sampled_from(
    (*KEY_REGISTER_NAMES, "SCTLR_EL1", "CONTEXTIDR_EL1", "APKSSEL_EL1")
)
_KEY = st.sampled_from(("ia", "ib", "da", "db"))
_IKEY = st.sampled_from(("ia", "ib"))


def _distance(bits):
    """A PC-relative field's byte distance, across its whole range."""
    half = 1 << (bits - 1)
    return st.one_of(
        st.sampled_from((-half, half - 1, 1)), st.integers(-half, half - 1)
    ).map(lambda words: 4 * words)


def _label_branch(cls, bits, *operands):
    """``target`` holds a distance; the test adds the drawn PC to it, so
    at TOP_SLOT forward targets wrap."""
    return st.builds(
        _targeted, st.builds(cls, *operands, st.just("l")), _distance(bits)
    )


_SHIFT16 = st.sampled_from((0, 16, 32, 48))

#: One operand strategy per class whose ``execute`` touches registers.
_OPERANDS = {
    isa.Movz: st.builds(isa.Movz, _REG, st.integers(0, 0xFFFF), _SHIFT16),
    isa.Movk: st.builds(isa.Movk, _REG, st.integers(0, 0xFFFF), _SHIFT16),
    isa.MovReg: st.builds(isa.MovReg, _REG_OR_SP, _REG_OR_SP),
    **{
        cls: st.builds(cls, _REG_OR_SP, _REG_OR_SP, _IMM)
        for cls in (isa.AddImm, isa.SubImm, isa.AndImm, isa.OrrImm,
                    isa.EorImm, isa.SubsImm)
    },
    **{
        cls: st.builds(cls, _REG_OR_SP, _REG_OR_SP, st.integers(0, 63))
        for cls in (isa.LslImm, isa.LsrImm)
    },
    **{
        cls: st.builds(cls, _REG_OR_SP, _REG_OR_SP, _REG_OR_SP)
        for cls in (*_REG_OPS, isa.SubsReg)
    },
    isa.Adr: _label_branch(isa.Adr, 20, _REG),
    isa.Bfi: _LSB_WIDTH.flatmap(
        lambda field: st.builds(isa.Bfi, _REG, _REG, *map(st.just, field))
    ),
    **{
        cls: st.builds(cls, _REG, _BASE, _OFFSET)
        for cls in (isa.Ldr, isa.LdrPost)
    },
    **{
        cls: st.builds(cls, _REG_OR_SP, _BASE, _OFFSET)
        for cls in (isa.Str, isa.StrPre)
    },
    **{
        cls: st.builds(cls, _REG, _REG, _BASE, _OFFSET)
        for cls in (isa.Ldp, isa.LdpPost)
    },
    **{
        cls: st.builds(cls, _REG_OR_SP, _REG_OR_SP, _BASE, _OFFSET)
        for cls in (isa.Stp, isa.StpPre)
    },
    isa.Bl: _label_branch(isa.Bl, 26),
    isa.Cbz: _label_branch(isa.Cbz, 20, _REG),
    isa.Cbnz: _label_branch(isa.Cbnz, 20, _REG),
    **{cls: st.builds(cls, _REG) for cls in (isa.Br, isa.Blr, isa.Ret)},
    isa.Msr: st.builds(isa.Msr, _SYSREG, _REG),
    isa.Mrs: st.builds(isa.Mrs, _REG, _SYSREG),
    **{cls: st.builds(cls, _KEY, _REG, _REG_OR_SP) for cls in (isa.Pac, isa.Aut)},
    isa.Xpac: st.builds(isa.Xpac, _REG, st.booleans()),
    isa.PacGa: st.builds(isa.PacGa, _REG, _REG, _REG_OR_SP),
    **{
        cls: st.builds(cls, _IKEY)
        for cls in (isa.Pac1716, isa.Aut1716, isa.PacSp, isa.AutSp, isa.RetA)
    },
    **{
        cls: st.builds(cls, _IKEY, _REG, _REG_OR_SP)
        for cls in (isa.BlrA, isa.BrA)
    },
}


def _far(bits):
    """Distances a ``bits``-wide relative field cannot hold: beyond its
    reach either way, or not a multiple of 4."""
    reach = 1 << (bits + 1)
    return st.one_of(
        st.integers(reach, 1 << 62),
        st.integers(-(1 << 62), -reach - 4),
        st.integers(-1000, 1000).filter(lambda distance: distance % 4),
    )


_NOT_UIMM = st.one_of(st.integers(-_MASK64, -1), st.integers(1 << 14, _MASK64))
_NOT_OFFSET = st.one_of(
    st.integers(-_MASK64, -(1 << 13) - 1), st.integers(1 << 13, _MASK64)
)

#: Instructions no 32-bit word holds (branch targets drawn as distances).
_UNENCODABLE = (
    st.builds(isa.MovImm, _REG, _VALUE),
    st.builds(isa.Movz, _REG, st.integers(1 << 16, _MASK64), _SHIFT16),
    st.builds(
        isa.Movk, _REG, st.integers(0, 0xFFFF),
        st.integers(1, 63).filter(lambda shift: shift % 16),
    ),
    st.builds(isa.Movz, st.integers(SP, 1 << 8), st.integers(0, 0xFFFF)),
    st.builds(isa.AddReg, st.integers(SP + 1, 1 << 8), _REG, _REG),
    *(
        st.builds(cls, _REG_OR_SP, _REG_OR_SP, _NOT_UIMM)
        for cls in (isa.AddImm, isa.SubImm, isa.AndImm, isa.OrrImm,
                    isa.EorImm, isa.SubsImm)
    ),
    st.builds(isa.LslImm, _REG, _REG, st.integers(64, 1 << 10)),
    st.builds(isa.Ldr, _REG, _BASE, _NOT_OFFSET),
    st.builds(
        isa.Ldp, _REG, _REG, _BASE,
        st.integers(-1024, 1016).filter(lambda offset: offset % 8),
    ),
    st.builds(isa.Stp, _REG, _REG, _BASE, st.sampled_from((1024, -1032))),
    st.builds(isa.Bfi, _REG, _REG, st.integers(0, 63), st.just(0)),
    st.builds(isa.Msr, st.sampled_from(("HCR_EL2", "apiakeylo_el1")), _REG),
    st.builds(isa.Svc, st.integers(1 << 16, _MASK64)),
    st.builds(isa.Pac, st.sampled_from(("ga", "xx")), _REG, _REG),
    st.builds(isa.RetA, st.sampled_from(("da", "db"))),
    st.builds(isa.B, st.just("unresolved")),
    st.builds(_targeted, st.builds(isa.Bl, st.just("l")), _far(26)),
    st.builds(_targeted, st.builds(isa.Cbz, _REG, st.just("l")), _far(20)),
    st.builds(_targeted, st.builds(isa.Adr, _REG, st.just("l")), _far(20)),
    st.builds(
        _targeted, st.builds(isa.BCond, st.just("eq"), st.just("l")), _far(22)
    ),
)

#: Classes whose ``execute`` touches no general-purpose register.
_NO_OPERANDS = {
    isa.B, isa.BCond, isa.Nop, isa.Hlt, isa.Svc, isa.Eret, isa.Hvc,
    isa.Isb, isa.HostCall, isa.Work,
}


def _core(state, instruction):
    """A core in the drawn state, with ``instruction`` at its PC."""
    features, el, pc, gprs, sps, nzcv, memory_seed = state
    cpu = CPU(features=features)
    text = Permissions(r_el1=True, x_el1=True, r_el0=True, x_el0=True)
    data = Permissions(r_el1=True, w_el1=True, r_el0=True, w_el0=True)
    cpu.mmu.map_range(USER_TEXT, 0x1000, 0x400, text)
    cpu.mmu.map_range(TOP_SLOT & ~0xFFF, 0x1000, 0x401, text)
    cpu.mmu.map_range(USER_DATA, 0x1000, 0x500, data)
    cpu.mmu.write(USER_DATA, random.Random(memory_seed).randbytes(0x1000), 1)
    cpu.mmu.phys.store_instruction(
        cpu.mmu.translate(pc, "x", el), instruction, pc
    )
    for name in ("ia", "ib", "da", "db"):
        setattr(cpu.regs.keys, name, _KEY_VALUE.copy())
        setattr(cpu.regs.alt_keys, name, PAuthKey(0x3333, 0x4444))
    for index, value in enumerate(gprs):
        cpu.regs.write(index, value)
    for index, value in enumerate(sps):
        cpu.regs.set_sp_of(index, value)
    cpu.regs.current_el = el
    cpu.regs.pc = pc
    cpu.nzcv = nzcv
    return cpu


def _observe(cpu, run):
    try:
        run()
        fault = None
    except SimFault as error:
        fault = (type(error).__name__, str(error))
    regs = cpu.regs
    return {
        "x": [regs.read(index) for index in range(31)],
        "xzr": regs.read(XZR),
        "sp": (regs.sp_of(0), regs.sp_of(1)),
        "nzcv": cpu.nzcv,
        "data": cpu.mmu.read(USER_DATA, 0x1000, 1),
        "pc": regs.pc,
        "fault": fault,
        "keys": (regs.keys.snapshot(), regs.alt_keys.snapshot()),
        "sysregs": dict(regs.sysregs),
    }


def _run_oracle(cpu):
    pc = cpu.regs.pc
    instruction = cpu.mmu.fetch(pc, cpu.regs.current_el)
    next_pc = _ORACLE[type(instruction)](instruction, cpu)
    cpu.regs.pc = (pc + 4 if next_pc is None else next_pc) & _MASK64


#: Every primary key holds this value, so a pointer signed under it
#: authenticates under any key with the same modifier.
_KEY_VALUE = PAuthKey(0x1111, 0x2222)


def _signed(pointer, modifier):
    return PACEngine().add_pac(pointer, modifier, _KEY_VALUE)


_POOL = st.lists(st.one_of(_VALUE, _DATA_ADDRESS), min_size=3, max_size=3)
_FEATURES = st.sampled_from(
    (frozenset({"pauth"}), frozenset({"pauth", "pauth-ks"}), frozenset())
)


@st.composite
def _states(draw):
    """Features, EL, PC, X0-X30, SP_EL0/SP_EL1, NZCV, data-page seed.

    The two SPs are distinct data-page addresses.  X0-X30 are filled
    from their values, a data-page pointer signed with each as the
    modifier (so authentications against SP succeed too), and three
    drawn values."""
    el = draw(st.sampled_from((1, 0)))
    sps = [draw(_DATA_ADDRESS), draw(_DATA_ADDRESS)]
    if sps[0] == sps[1]:
        sps[1] += 16
    pool = [
        *sps, *(_signed(draw(_DATA_ADDRESS), sp) for sp in sps), *draw(_POOL)
    ]
    seed = draw(st.integers(0, 1 << 32))
    rng = random.Random(seed)
    return (
        draw(_FEATURES),
        el,
        # At EL1 the slot where PC + 4 wraps, or a user text slot.
        USER_TEXT + 0x100 if not el or draw(st.booleans()) else TOP_SLOT,
        [rng.choice(pool) for _ in range(31)],
        sps,
        draw(st.tuples(*[st.booleans()] * 4)),
        seed,
    )


class TestOperandOracle:
    """Every class whose ``execute`` indexes the register storage
    directly retires like its accessor-based reference body."""

    def test_oracle_covers_every_class(self):
        classes = {
            cls for cls in map(isa.__dict__.get, isa.__all__)
            if isinstance(cls, type) and issubclass(cls, isa.Instruction)
        } - _NO_OPERANDS - {isa.Instruction, isa.MovImm}
        assert set(_OPERANDS) == set(_ORACLE) == classes

    @pytest.mark.parametrize("cls", list(_OPERANDS), ids=lambda cls: cls.__name__)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_step_matches_oracle(self, cls, data):
        instruction = data.draw(_OPERANDS[cls])
        state = data.draw(_states())
        if hasattr(instruction, "target"):
            instruction.target = (state[2] + instruction.target) & _MASK64
        core, twin = _core(state, instruction), _core(state, instruction)
        assert _observe(core, core.step) == _observe(
            twin, lambda: _run_oracle(twin)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rd=_REG,
        value=st.one_of(st.sampled_from((0, 1 << 63, _MASK64)), _VALUE),
        pc=st.sampled_from((USER_TEXT + 0x100, TOP_SLOT)),
    )
    def test_movimm_expansion_run_from_memory(self, rd, value, pc):
        """MovImm cannot be stored; its MOVZ/MOVK expansion, stored and
        stepped from memory, leaves the value in the register."""
        cpu = CPU()
        text = Permissions(r_el1=True, x_el1=True)
        cpu.mmu.map_range(pc & ~0xFFF, 0x1000, 0x400, text)
        parts = isa.MovImm(rd, value).expand()
        for index, part in enumerate(parts):
            address = (pc & ~0xFFF) + 0x100 + 4 * index
            cpu.mmu.phys.store_instruction(
                cpu.mmu.translate(address, "x", 1), part, address
            )
        cpu.regs.pc = (pc & ~0xFFF) + 0x100
        for _ in parts:
            cpu.step()
        assert cpu.regs.read(rd) == (0 if rd == XZR else value)

    @settings(max_examples=60, deadline=None)
    @given(
        instruction=st.one_of(*_UNENCODABLE),
        pc=st.sampled_from((USER_TEXT + 0x100, TOP_SLOT)),
    )
    def test_unencodable_operand_is_refused(self, instruction, pc):
        """An operand the format cannot hold raises ReproError, and the
        store leaves memory and the generation untouched."""
        cpu = CPU()
        cpu.mmu.map_range(pc & ~0xFFF, 0x1000, 0x400, Permissions.kernel_text())
        pa = cpu.mmu.translate(pc, "x", 1)
        cpu.mmu.phys.store_instruction(pa, isa.Nop(), pc)
        if getattr(instruction, "target", None) is not None:
            instruction.target = (pc + instruction.target) & _MASK64
        before = (cpu.mmu.phys.read(pa & ~0xFFF, 0x1000), cpu.mmu.generation.value)
        with pytest.raises(ReproError):
            cpu.mmu.phys.store_instruction(pa, instruction, pc)
        assert (
            cpu.mmu.phys.read(pa & ~0xFFF, 0x1000), cpu.mmu.generation.value
        ) == before


# ---------------------------------------------------------------------------
# The instruction format: memory holds one 32-bit word per instruction.
# ---------------------------------------------------------------------------

_STORABLE = sorted(isa._OPCODES.items())
_PCS = st.sampled_from((USER_TEXT + 0x100, TOP_SLOT))


def _field_value(field):
    """Any value a field holds, its two ends drawn often."""
    values = field.values
    return st.one_of(
        st.sampled_from((values[0], values[-1])),
        st.integers(0, len(values) - 1).map(values.__getitem__),
    )


def _build(cls, operands, pc):
    """``cls`` from field values; relative fields hold distances."""
    for name, field in cls.fields:
        if field.relative:
            operands[name] = (pc + operands[name]) & _MASK64
    return cls(**operands)


def _word(instruction, pc=None):
    return int.from_bytes(instruction.encoding(pc), "little")


def _fields(instruction):
    return {name: getattr(instruction, name) for name, _ in instruction.fields}


class TestInstructionFormat:
    def test_storable_classes_and_real_branch_opcodes(self):
        assert len(_STORABLE) == 54
        assert all(0 < opcode < 64 for opcode, _ in _STORABLE)
        # B and BL are real A64 words: imm26 word offsets.
        assert _word(isa.B(target=USER_TEXT + 8), USER_TEXT) == 0x1400_0002
        assert _word(isa.Bl(target=USER_TEXT - 4), USER_TEXT) == 0x97FF_FFFF
        # The MOVZ/MOVK immediate is the low half-word.
        assert isa.Movk(3, 0xBEEF, 32).encoding()[:2] == b"\xef\xbe"

    def test_format_is_pinned(self):
        """One instance per class, each field set to a value picked by its
        name: any change to an opcode, a field list or its order moves
        this digest."""
        digest = hashlib.sha256()
        for opcode, cls in _STORABLE:
            if cls is isa.HostCall:
                continue
            operands = {
                name: field.values[
                    (7 * sum(map(ord, name)) + opcode) % len(field.values)
                ]
                for name, field in cls.fields
            }
            if cls is isa.Bfi:
                operands["width"] = 64 - operands["lsb"]
            digest.update(_build(cls, operands, TOP_SLOT).encoding(TOP_SLOT))
        assert digest.hexdigest()[:16] == "2456879b4e2c9dfd"

    @pytest.mark.parametrize(
        "cls", [cls for _, cls in _STORABLE if cls is not isa.HostCall],
        ids=lambda cls: cls.__name__,
    )
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), pc=_PCS)
    def test_round_trip(self, cls, data, pc):
        operands = {
            name: data.draw(_field_value(field), label=name)
            for name, field in cls.fields
        }
        if cls is isa.Bfi:
            assume(operands["lsb"] + operands["width"] <= 64)
        instruction = _build(cls, operands, pc)
        decoded = isa.decode(_word(instruction, pc), pc)
        assert type(decoded) is cls
        assert _fields(decoded) == _fields(instruction)

    @settings(max_examples=500, deadline=None)
    @given(
        word=st.one_of(
            st.integers(0, (1 << 32) - 1),
            st.builds(
                lambda opcode, operands: opcode << 26 | operands,
                st.sampled_from([opcode for opcode, _ in _STORABLE]),
                st.integers(0, (1 << 26) - 1),
            ),
        ),
        pc=_PCS,
    )
    def test_decoded_words_are_canonical(self, word, pc):
        instruction = isa.decode(word, pc)
        assert instruction is None or _word(instruction, pc) == word

    def test_host_call_slots_follow_store_order(self):
        def first(cpu):
            return None

        def second(cpu):
            return None

        calls = [isa.HostCall(first, "a"), isa.HostCall(second, "b")]
        phys = PhysicalMemory()
        for index, call in enumerate([*calls, calls[0]]):
            phys.store_instruction(4 * index, call)
        fetched = [phys.fetch_instruction(4 * index, 0) for index in range(3)]
        assert [call.slot for call in fetched] == [0, 1, 2]
        assert [call.fn for call in fetched] == [first, second, first]
        assert [call.label for call in fetched] == ["a", "b", "a"]
        # Another machine has its own table: no slot there yet.
        assert PhysicalMemory().fetch_instruction(0, 0) is None
        assert isa.decode(int.from_bytes(phys.read(0, 4), "little"), 0) is None

    @pytest.mark.parametrize(
        "word",
        [0, 0x3F << 26, _word(isa.Movz(0, 1)) | 0x1 << 25,
         _word(isa.AddReg(1, 2, 3)) & ~0x3F | 33],
        ids=["zero", "unassigned-opcode", "unused-bit", "register-33"],
    )
    def test_non_instruction_words_fault_on_fetch(self, word):
        cpu = CPU()
        cpu.mmu.map_range(USER_TEXT, 0x1000, 0x400, Permissions.kernel_text())
        cpu.mmu.phys.write(0x400 << 12, word.to_bytes(4, "little"))
        with pytest.raises(TranslationFault, match="no instruction at"):
            cpu.mmu.fetch(USER_TEXT, 1)

    def test_misaligned_pc_faults_on_fetch(self):
        cpu = CPU()
        cpu.mmu.map_range(USER_TEXT, 0x1000, 0x400, Permissions.kernel_text())
        cpu.mmu.place_program(
            Assembler(USER_TEXT).emit(isa.Nop(), isa.Nop()).assemble()
        )
        with pytest.raises(TranslationFault, match="no instruction at"):
            cpu.mmu.fetch(USER_TEXT + 2, 1)

    def test_bfi_field_past_bit_63_is_refused(self, machine):
        # A64 requires 1 <= width <= 64 - lsb; run, this one would leave
        # a 68-bit value in X0.
        with pytest.raises(ReproError):
            run_body(machine, [isa.Bfi(0, 1, 60, 8)], args=(0, 0xFF))
        assert isa.Bfi(0, 1, 56, 8).encoding()

    @given(lsb=st.integers(0, 63), width=st.integers(1, 64))
    def test_no_bfi_field_passes_bit_63(self, lsb, width):
        if lsb + width > 64:
            with pytest.raises(ReproError):
                isa.Bfi(0, 1, lsb, width)
        else:
            word = _word(isa.Bfi(0, 1, lsb, width))
            assert isa.decode(word, 0) == isa.Bfi(0, 1, lsb, width)
        # The same fields as a word: never decoded.
        fields = 0 | 1 << 6 | lsb << 12 | (width - 1) << 18
        assert (isa.decode(0x12 << 26 | fields, 0) is None) == (lsb + width > 64)


def _random_page(seed, base):
    """0x100 random words that decode at their addresses."""
    rng = random.Random(seed)
    opcodes = [opcode for opcode, _ in _STORABLE]
    words = []
    while len(words) < 0x100:
        word = rng.choice(opcodes) << 26 | rng.getrandbits(26)
        if isa.decode(word, base + 4 * len(words)) is not None:
            words.append(word)
    return b"".join(word.to_bytes(4, "little") for word in words)


def _random_core(cached, page, seed, el):
    if cached:
        cpu = CPU()
    else:
        with hotpath.disabled_caches():
            cpu = CPU()
    everything = Permissions.all_access()
    cpu.mmu.map_range(USER_TEXT, 0x1000, 0x400, everything)
    cpu.mmu.map_range(USER_DATA, 0x1000, 0x500, everything)
    rng = random.Random(seed)
    cpu.mmu.write(USER_TEXT, page, 1)
    cpu.mmu.write(USER_DATA, rng.randbytes(0x1000), 1)
    pool = [0, 1, USER_DATA + 0x800, USER_TEXT + 0x40, _MASK64]
    for index in range(31):
        cpu.regs.write(index, rng.choice(pool))
    cpu.regs.set_sp_of(0, USER_DATA + 0x400)
    cpu.regs.set_sp_of(1, USER_DATA + 0xC00)
    cpu.regs.current_el = el
    cpu.regs.pc = USER_TEXT + 4 * rng.randrange(0x100)
    return cpu


def _retire(cpu, steps):
    """Step ``steps`` times.  A fault, a halt or a PC off the page is
    recorded, then execution resumes at the next word of the page."""
    stream = []
    for _ in range(steps):
        pc = cpu.regs.pc
        try:
            cpu.step()
            outcome = cpu.mmu.fetch(pc, cpu.regs.current_el).text()
        except (SimFault, ReproError) as error:
            outcome = (type(error).__name__, str(error))
        regs = cpu.regs
        stream.append(
            (pc, outcome, cpu.cycles, regs.pc, regs.current_el,
             tuple(regs.x), tuple(regs.sp_el), cpu.nzcv)
        )
        if cpu.halted or type(outcome) is tuple or not (
            USER_TEXT <= regs.pc < USER_TEXT + 0x1000
        ):
            cpu.halted = False
            regs.pc = USER_TEXT + ((pc + 4 - USER_TEXT) & 0xFFC)
    return stream, cpu.mmu.read(USER_DATA, 0x1000, 1)


class TestRandomWordDifferential:
    """Random decodable words run alike on a cached core and its
    cache-free twin: the emulator-deviation method of "Automatically
    Locating ARM Instructions Deviation..." with the reference path as
    the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1 << 32), el=st.sampled_from((0, 1)))
    def test_cached_and_reference_retire_alike(self, seed, el):
        page = _random_page(seed, USER_TEXT)
        cached = _retire(_random_core(True, page, seed, el), 64)
        assert cached == _retire(_random_core(False, page, seed, el), 64)


#: sha256 of the words mapped at every address of the full-profile
#: kernel's text_instructions(), in order.
KERNEL_TEXT_SHA256 = (
    "893551526c2c8cf69b614b053d3002ad6f525fdec2c45116512aafd802c5e3e5"
)


class TestProcessIndependence:
    def test_kernel_text_bytes_do_not_depend_on_the_process(self):
        """Encoded words depend on nothing but the instruction: not the
        hash seed, not which class a process encoded first."""
        script = (
            "import hashlib, sys\n"
            "from repro.arch import isa\n"
            "if sys.argv[1] == 'movk-first':\n"
            "    isa.Movk(0, 1).encoding()\n"
            "from repro.kernel import System\n"
            "system = System(profile='full')\n"
            "mmu, digest = system.mmu, hashlib.sha256()\n"
            "for address, _ in system.kernel_image.text_instructions():\n"
            "    offset = address & (mmu.page_size - 1)\n"
            "    pa = mmu.frame_of(address) << mmu.page_shift | offset\n"
            "    digest.update(mmu.phys.read(pa, 4))\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(isa.__file__).resolve().parents[2])
        digests = {
            subprocess.run(
                [sys.executable, "-c", script, order],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed, order in (("1", "plain"), ("2", "movk-first"))
        }
        # The kernel's own text, pinned: a change to the instruction
        # format, the kernel build or the loader that moves a word fails.
        assert digests == {KERNEL_TEXT_SHA256 + "\n"}

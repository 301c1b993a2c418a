"""Tests for the assembler (repro.arch.assembler)."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.errors import ReproError
from repro.workloads.guest import TEXT_BASE


class TestAssembly:
    def test_addresses_sequential(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.Nop(), isa.Nop(), isa.Ret())
        program = asm.assemble()
        addresses = [a for a, _ in program.instructions]
        assert addresses == [TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8]

    def test_label_resolution(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.B("end"), isa.Nop())
        asm.label("end")
        asm.emit(isa.Ret())
        program = asm.assemble()
        branch = program.instructions[0][1]
        assert branch.target == program.address_of("end")

    def test_forward_and_backward_references(self):
        asm = Assembler(TEXT_BASE)
        asm.label("top")
        asm.emit(isa.B("bottom"))
        asm.label("bottom")
        asm.emit(isa.B("top"))
        program = asm.assemble()
        assert program.instructions[0][1].target == TEXT_BASE + 4
        assert program.instructions[1][1].target == TEXT_BASE

    def test_movimm_expands_to_four(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.mov_imm(0, 0x1234_5678_9ABC_DEF0)
        asm.emit(isa.Ret())
        program = asm.assemble()
        assert len(program.instructions) == 5

    def test_extern_symbols(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.Bl("external_fn"), isa.Ret())
        program = asm.assemble(extern={"external_fn": 0xFFFF_0000_0900_0000})
        assert program.instructions[0][1].target == 0xFFFF_0000_0900_0000

    def test_undefined_label_rejected(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.B("nowhere"))
        with pytest.raises(ReproError):
            asm.assemble()

    def test_duplicate_label_rejected(self):
        asm = Assembler(TEXT_BASE)
        asm.label("x")
        with pytest.raises(ReproError):
            asm.label("x")

    def test_unaligned_base_rejected(self):
        with pytest.raises(ReproError):
            Assembler(TEXT_BASE + 2)

    def test_adr_resolution(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.Adr(0, "data_here"))
        asm.label("data_here")
        asm.emit(isa.Ret())
        program = asm.assemble()
        assert program.instructions[0][1].target == TEXT_BASE + 4


class TestProgram:
    def test_size_and_end(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.Nop(), isa.Ret())
        program = asm.assemble()
        assert program.size == 8
        assert program.end == TEXT_BASE + 8

    def test_unknown_symbol(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("main")
        asm.emit(isa.Ret())
        program = asm.assemble()
        with pytest.raises(ReproError):
            program.address_of("ghost")

    def test_listing_contains_labels_and_text(self):
        asm = Assembler(TEXT_BASE)
        asm.fn("entry")
        asm.emit(isa.Movz(0, 7, 0), isa.Ret())
        listing = asm.assemble().listing()
        assert "entry:" in listing
        assert "movz x0" in listing
        assert f"{TEXT_BASE:#x}" in listing

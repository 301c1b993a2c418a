"""Tests for CFG recovery (repro.analysis.cfg)."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.analysis.cfg import recover_cfg
from repro.elfimage.image import ImageBuilder
from repro.errors import ReproError

BASE = 0x1000


def _ret_program(base, name):
    """A one-function program at ``base``: ``name`` returns 1."""
    asm = Assembler(base)
    asm.fn(name)
    asm.emit(isa.Movz(0, 1, 0), isa.Ret())
    return asm.assemble()


def _single(asm):
    """Recover and return the only FunctionCFG of a program."""
    cfg = recover_cfg(asm.assemble())
    assert len(cfg.functions) == 1
    return next(iter(cfg.functions.values()))


class TestBlocks:
    def test_straight_line_is_one_block(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Movz(0, 1, 0), isa.Movz(1, 2, 0), isa.Ret())
        fcfg = _single(asm)
        assert list(fcfg.blocks) == [BASE]
        assert fcfg.instruction_count == 3

    def test_branch_target_starts_a_block(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Cbz(0, "out"))
        asm.emit(isa.Movz(1, 1, 0))
        asm.label("out")
        asm.emit(isa.Ret())
        fcfg = _single(asm)
        # entry block, fall-through block, and the "out" target block
        assert sorted(fcfg.blocks) == [BASE, BASE + 4, BASE + 8]

    def test_conditional_branch_has_two_successors(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Cbz(0, "out"))
        asm.emit(isa.Movz(1, 1, 0))
        asm.label("out")
        asm.emit(isa.Ret())
        fcfg = _single(asm)
        entry = fcfg.blocks[BASE]
        assert sorted(entry.successors) == [BASE + 4, BASE + 8]

    def test_ret_block_exits(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Ret())
        fcfg = _single(asm)
        block = fcfg.blocks[BASE]
        assert block.exits
        assert not block.successors

    def test_direct_call_is_not_a_successor_edge(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Bl("g"), isa.Ret())
        asm.fn("g")
        asm.emit(isa.Ret())
        cfg = recover_cfg(asm.assemble())
        f = cfg.function("f")
        entry = f.blocks[BASE]
        # BL falls through to the RET block; the callee is in `calls`.
        assert entry.calls == [cfg.function("g").entry]
        assert entry.successors == [BASE + 4]

    def test_indirect_jump_exits(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Br(3))
        fcfg = _single(asm)
        assert fcfg.blocks[BASE].exits


class TestExtents:
    def test_functions_split_at_next_symbol(self):
        asm = Assembler(BASE)
        asm.fn("first")
        asm.emit(isa.Movz(0, 1, 0), isa.Ret())
        asm.fn("second")
        asm.emit(isa.Ret())
        cfg = recover_cfg(asm.assemble())
        assert cfg.function("first").instruction_count == 2
        assert cfg.function("second").instruction_count == 1
        assert cfg.function("second").entry == BASE + 8

    def test_tail_jump_out_of_extent_exits(self):
        asm = Assembler(BASE)
        asm.fn("first")
        asm.emit(isa.B("second"))
        asm.fn("second")
        asm.emit(isa.Ret())
        cfg = recover_cfg(asm.assemble())
        assert cfg.function("first").blocks[BASE].exits

    def test_duplicate_function_rejected(self):
        # Two text sections cannot both define "f": the image builder
        # refuses the symbol, so an image CFG holds one "f" at most.
        builder = ImageBuilder("dup", BASE)
        builder.add_text(".text", _ret_program(builder.next_base(), "f"))
        with pytest.raises(ReproError, match="duplicate symbol 'f'"):
            builder.add_text(
                ".text.other", _ret_program(builder.next_base(), "f")
            )

    def test_image_functions_end_with_their_section(self):
        builder = ImageBuilder("two", BASE)
        builder.add_text(".text", _ret_program(builder.next_base(), "f"))
        other = _ret_program(builder.next_base(), "g")
        builder.add_text(".text.other", other)
        cfg = recover_cfg(builder.build())
        assert cfg.name == "two"
        assert cfg.function("f").instruction_count == 2
        assert cfg.function("g").entry == other.base == BASE + 0x1000

    def test_unsupported_target_rejected(self):
        with pytest.raises(ReproError):
            recover_cfg(42)

    def test_unknown_function_lookup_raises(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Ret())
        cfg = recover_cfg(asm.assemble())
        with pytest.raises(ReproError):
            cfg.function("missing")


class TestQueries:
    def _diamond(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.Cbz(0, "right"))
        asm.emit(isa.Movz(1, 1, 0))
        asm.emit(isa.B("join"))
        asm.label("right")
        asm.emit(isa.Movz(1, 2, 0))
        asm.label("join")
        asm.emit(isa.Ret())
        return _single(asm)

    def test_reachable_blocks_cover_diamond(self):
        fcfg = self._diamond()
        assert fcfg.reachable_blocks() == set(fcfg.blocks)

    def test_unreachable_block_excluded(self):
        asm = Assembler(BASE)
        asm.fn("f")
        asm.emit(isa.B("end"))
        asm.label("dead")
        asm.emit(isa.Movz(0, 1, 0))
        asm.label("end")
        asm.emit(isa.Ret())
        fcfg = _single(asm)
        reachable = fcfg.reachable_blocks()
        assert BASE + 4 not in reachable  # the dead block
        assert BASE + 8 in reachable

    def test_instructions_in_address_order(self):
        fcfg = self._diamond()
        addresses = [a for a, _ in fcfg.instructions()]
        assert addresses == sorted(addresses)

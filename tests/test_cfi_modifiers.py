"""Tests for the modifier schemes (repro.cfi.modifiers)."""

import pytest

from repro.arch import isa
from repro.cfi.modifiers import (
    SCHEMES,
    CamouflageScheme,
    PARTSScheme,
    SPOnlyScheme,
)

SP_VALUE = 0xFFFF_0000_4000_3F80
FN_ADDRESS = 0xFFFF_0000_0801_2340


class TestSPOnly:
    def test_modifier_is_sp(self):
        assert SPOnlyScheme().compute(SP_VALUE, FN_ADDRESS) == SP_VALUE

    def test_prologue_is_single_hint(self):
        scheme = SPOnlyScheme()
        prologue = scheme.prologue("f")
        assert len(prologue) == 1
        assert isinstance(prologue[0], isa.PacSp)
        assert prologue[0].hint_space

    def test_replay_window(self):
        scheme = SPOnlyScheme()
        # Same SP: replay accepted even across functions.
        assert scheme.replay_window(SP_VALUE, SP_VALUE, 0x1000, 0x2000)
        assert not scheme.replay_window(SP_VALUE, SP_VALUE + 16, 0x1000, 0x1000)


class TestCamouflage:
    def test_modifier_packs_sp_over_fn(self):
        scheme = CamouflageScheme()
        modifier = scheme.compute(SP_VALUE, FN_ADDRESS)
        assert modifier & 0xFFFFFFFF == FN_ADDRESS & 0xFFFFFFFF
        assert modifier >> 32 == SP_VALUE & 0xFFFFFFFF

    def test_emits_listing3_sequence(self):
        scheme = CamouflageScheme()
        prologue = scheme.prologue("my_fn")
        kinds = [type(i).__name__ for i in prologue]
        assert kinds == ["Adr", "MovReg", "Bfi", "Pac"]
        bfi = prologue[2]
        assert (bfi.lsb, bfi.width) == (32, 32)
        assert prologue[3].key == "ib"  # Listing 3 signs with PACIB

    def test_replay_requires_same_function(self):
        scheme = CamouflageScheme()
        assert scheme.replay_window(SP_VALUE, SP_VALUE, FN_ADDRESS, FN_ADDRESS)
        assert not scheme.replay_window(
            SP_VALUE, SP_VALUE, FN_ADDRESS, FN_ADDRESS + 0x40
        )

    def test_full_32_sp_bits_bound(self):
        scheme = CamouflageScheme()
        # SPs 64 KiB apart do NOT collide (unlike PARTS).
        assert not scheme.replay_window(
            SP_VALUE, SP_VALUE + 65536, FN_ADDRESS, FN_ADDRESS
        )

    def test_modifier_collides_beyond_4gib(self):
        # The documented folding point of the 32-bit SP slice.
        scheme = CamouflageScheme()
        assert scheme.replay_window(
            SP_VALUE, SP_VALUE + (1 << 32), FN_ADDRESS, FN_ADDRESS
        )


class TestPARTS:
    def test_modifier_packs_sp16_over_id(self):
        scheme = PARTSScheme()
        fid = scheme.function_id("f")
        modifier = scheme.compute(SP_VALUE, FN_ADDRESS, function_id=fid)
        assert modifier & ((1 << 48) - 1) == fid
        assert modifier >> 48 == SP_VALUE & 0xFFFF

    def test_function_ids_unique_and_stable(self):
        scheme = PARTSScheme()
        a = scheme.function_id("alpha")
        b = scheme.function_id("beta")
        assert a != b
        assert scheme.function_id("alpha") == a

    def test_prologue_materialises_id(self):
        scheme = PARTSScheme()
        prologue = scheme.prologue("f")
        kinds = [type(i).__name__ for i in prologue]
        assert kinds == ["Movz", "Movk", "Movk", "MovReg", "Bfi", "Pac"]

    def test_sixteen_bit_sp_replay_weakness(self):
        # Stacks an exact multiple of 65536 bytes apart collide
        # (paper Section 7).
        scheme = PARTSScheme()
        assert scheme.replay_window(
            SP_VALUE, SP_VALUE + 65536, FN_ADDRESS, FN_ADDRESS
        )
        assert not scheme.replay_window(
            SP_VALUE, SP_VALUE + 4096, FN_ADDRESS, FN_ADDRESS
        )


class TestCostOrdering:
    def test_instruction_overhead_ordering(self):
        # The Figure 2 ordering is structural: sp-only < camouflage <
        # parts in added instructions.
        sp, camo, parts = (
            len(scheme.prologue("f", "ib")) + len(scheme.epilogue("f", "ib"))
            for scheme in (SPOnlyScheme(), CamouflageScheme(), PARTSScheme())
        )
        assert sp < camo < parts

    def test_registry(self):
        assert set(SCHEMES) == {"sp-only", "camouflage", "parts"}
        for name, factory in SCHEMES.items():
            assert factory().name == name

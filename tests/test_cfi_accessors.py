"""Tests for signed-field accessors (repro.cfi.accessors)."""

import pytest

from repro.arch import isa
from repro.arch.pac import PACEngine
from repro.arch.registers import KeyBank, PAuthKey
from repro.cfi.accessors import (
    AccessorGenerator,
    field_modifier,
    sign_field_value,
)
from repro.cfi.policy import ProtectionProfile
from repro.errors import TranslationFault
from repro.kernel.kobject import Field
from repro.workloads.guest import DATA_BASE


FOPS_FIELD = Field(
    name="f_ops", offset=40, is_function_pointer=False,
    protected=True, constant=0xFB45,
)
FN_FIELD = Field(
    name="func", offset=0, is_function_pointer=True,
    protected=True, constant=0x1234,
)


def _full_profile():
    return ProtectionProfile(
        name="full", backward_scheme="camouflage", forward=True, dfi=True
    )


def _none_profile():
    return ProtectionProfile(name="none")


def _setup_keys(machine):
    machine.cpu.regs.keys.ia = PAuthKey(0xA1, 0xA2)
    machine.cpu.regs.keys.ib = PAuthKey(0xB1, 0xB2)
    machine.cpu.regs.keys.db = PAuthKey(0xD1, 0xD2)
    return machine.cpu.regs.keys


class TestModifierConstruction:
    def test_listing4_layout(self):
        # mov w9, #const; bfi x9, x0, #16, #48.
        modifier = field_modifier(0xFFFF_0000_8000_0140, 0xFB45)
        assert modifier & 0xFFFF == 0xFB45
        assert modifier >> 16 == 0xFFFF_0000_8000_0140 & ((1 << 48) - 1)

    def test_distinct_objects_distinct_modifiers(self):
        a = field_modifier(0xFFFF_0000_8000_0100, 0xFB45)
        b = field_modifier(0xFFFF_0000_8000_0200, 0xFB45)
        assert a != b

    def test_distinct_constants_distinct_modifiers(self):
        a = field_modifier(0xFFFF_0000_8000_0100, 0xFB45)
        b = field_modifier(0xFFFF_0000_8000_0100, 0xFB46)
        assert a != b


class TestGeneratedAccessors:
    def _emit_pair(self, machine, profile, field):
        generator = AccessorGenerator(profile)
        asm = machine.assembler()
        generator.emit_setter(asm, "set_field", field)
        generator.emit_getter(asm, "get_field", field)
        program = asm.assemble()
        machine.place(program)
        return program

    def test_setter_then_getter_roundtrip(self, machine):
        _setup_keys(machine)
        program = self._emit_pair(machine, _full_profile(), FOPS_FIELD)
        obj = DATA_BASE
        value = 0xFFFF_0000_0801_4000
        machine.cpu.call(
            program.address_of("set_field"), args=(obj, value),
            stack_top=0xFFFF_0000_0900_0000,
        )
        stored = machine.cpu.mmu.read_u64(obj + FOPS_FIELD.offset, 1)
        assert stored != value  # a PAC is embedded
        result, _ = machine.cpu.call(
            program.address_of("get_field"), args=(obj,),
            stack_top=0xFFFF_0000_0900_0000,
        )
        assert result == value

    def test_in_sim_setter_matches_host_side(self, machine):
        keys = _setup_keys(machine)
        program = self._emit_pair(machine, _full_profile(), FOPS_FIELD)
        obj = DATA_BASE
        value = 0xFFFF_0000_0801_4000
        machine.cpu.call(
            program.address_of("set_field"), args=(obj, value),
            stack_top=0xFFFF_0000_0900_0000,
        )
        stored = machine.cpu.mmu.read_u64(obj + FOPS_FIELD.offset, 1)
        expected = sign_field_value(
            machine.cpu.pac, keys, "db", obj, FOPS_FIELD.constant, value
        )
        assert stored == expected

    def test_getter_poisons_raw_value(self, machine):
        _setup_keys(machine)
        program = self._emit_pair(machine, _full_profile(), FOPS_FIELD)
        obj = DATA_BASE
        machine.cpu.mmu.write_u64(
            obj + FOPS_FIELD.offset, 0xFFFF_0000_0801_4000, 1
        )
        result, _ = machine.cpu.call(
            program.address_of("get_field"), args=(obj,),
            stack_top=0xFFFF_0000_0900_0000,
        )
        assert not machine.cpu.config.is_canonical(result)

    def test_unprotected_profile_plain_store(self, machine):
        _setup_keys(machine)
        program = self._emit_pair(machine, _none_profile(), FOPS_FIELD)
        obj = DATA_BASE
        value = 0xFFFF_0000_0801_4000
        machine.cpu.call(
            program.address_of("set_field"), args=(obj, value),
            stack_top=0xFFFF_0000_0900_0000,
        )
        assert machine.cpu.mmu.read_u64(obj + FOPS_FIELD.offset, 1) == value

    def test_function_pointer_uses_forward_key(self, machine):
        keys = _setup_keys(machine)
        generator = AccessorGenerator(_full_profile())
        asm = machine.assembler()
        generator.emit_setter(asm, "set_fn", FN_FIELD)
        program = asm.assemble()
        machine.place(program)
        obj = DATA_BASE + 0x100
        value = 0xFFFF_0000_0801_5000
        machine.cpu.call(
            program.address_of("set_fn"), args=(obj, value),
            stack_top=0xFFFF_0000_0900_0000,
        )
        stored = machine.cpu.mmu.read_u64(obj + FN_FIELD.offset, 1)
        expected = sign_field_value(
            machine.cpu.pac, keys, "ia", obj, FN_FIELD.constant, value
        )
        assert stored == expected


class TestIndirectCall:
    def test_listing4_call_through_table(self, machine):
        _setup_keys(machine)
        generator = AccessorGenerator(_full_profile())
        asm = machine.assembler()
        asm.fn("dispatch")
        asm.emit(isa.MovReg(19, 30))
        generator.emit_indirect_call_inline(asm, FOPS_FIELD, callee_offset=8)
        asm.emit(isa.MovReg(30, 19), isa.Ret())
        asm.fn("the_callee")
        asm.emit(isa.Movz(0, 0x1337, 0), isa.Ret())
        program = asm.assemble()
        machine.place(program)

        obj = DATA_BASE
        table = DATA_BASE + 0x200
        machine.cpu.mmu.write_u64(
            table + 8, program.address_of("the_callee"), 1
        )
        signed_table = sign_field_value(
            machine.cpu.pac, machine.cpu.regs.keys, "db",
            obj, FOPS_FIELD.constant, table,
        )
        machine.cpu.mmu.write_u64(obj + FOPS_FIELD.offset, signed_table, 1)
        result, _ = machine.cpu.call(
            program.address_of("dispatch"), args=(obj,),
            stack_top=0xFFFF_0000_0900_0000,
        )
        assert result == 0x1337

    def test_call_with_raw_table_faults(self, machine):
        _setup_keys(machine)
        generator = AccessorGenerator(_full_profile())
        asm = machine.assembler()
        asm.fn("dispatch")
        generator.emit_indirect_call_inline(asm, FOPS_FIELD)
        asm.emit(isa.Ret())
        program = asm.assemble()
        machine.place(program)
        obj = DATA_BASE
        machine.cpu.mmu.write_u64(obj + FOPS_FIELD.offset, DATA_BASE + 0x200, 1)
        with pytest.raises(TranslationFault):
            machine.cpu.call(
                program.address_of("dispatch"), args=(obj,),
                stack_top=0xFFFF_0000_0900_0000,
            )

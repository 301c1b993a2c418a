"""Tests for tasks, stacks and the context switch (repro.kernel)."""

import pytest

from repro.errors import TranslationFault
from repro.kernel import System, layout
from repro.kernel.fault import TaskKilled
from repro.kernel.sched import CPU_SWITCH_TO_SYMBOL
from repro.kernel.task import (
    TASK_CONTEXT_PC_OFFSET,
    TASK_CONTEXT_SP_OFFSET,
    TASK_STRUCT_SIZE,
    TASK_USER_KEYS_OFFSET,
    USER_KEY_ORDER,
)


class TestTaskLayout:
    def test_stacks_are_16k_and_aligned(self):
        system = System(profile="full")
        task = system.spawn_process("t")
        assert task.stack_top - task.stack_base == layout.KERNEL_STACK_SIZE
        assert task.stack_base % 4096 == 0

    def test_low_sp_bits_repeat_across_threads(self):
        # The property motivating the hardened modifier (Section 4.2):
        # 4 KiB-aligned stacks make the low 12 bits of SP repeat.
        system = System(profile="full")
        tasks = [system.spawn_process(f"t{i}") for i in range(4)]
        low_bits = {t.stack_top & 0xFFF for t in tasks}
        assert len(low_bits) == 1

    def test_64k_stride_repeats_16_bits(self):
        # The PARTS weakness layout (Section 7).
        system = System(profile="full", stack_stride=65536)
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        assert (a.stack_top & 0xFFFF) == (b.stack_top & 0xFFFF)
        assert a.stack_top != b.stack_top

    def test_default_stride_keeps_32_bits_distinct(self):
        system = System(profile="full")
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        assert (a.stack_top & 0xFFFFFFFF) != (b.stack_top & 0xFFFFFFFF)

    def test_task_struct_layout_constants(self):
        assert TASK_CONTEXT_SP_OFFSET == 0
        assert TASK_CONTEXT_PC_OFFSET == 8
        assert TASK_USER_KEYS_OFFSET + 16 * len(USER_KEY_ORDER) == (
            TASK_STRUCT_SIZE
        )

    def test_user_keys_serialised_into_task_struct(self):
        system = System(profile="full")
        task = system.spawn_process("t")
        base = task.address + TASK_USER_KEYS_OFFSET
        for index, name in enumerate(USER_KEY_ORDER):
            key = task.user_keys.get(name)
            assert system.mmu.read_u64(base + 16 * index, 1) == key.lo
            assert system.mmu.read_u64(base + 16 * index + 8, 1) == key.hi

    def test_tids_monotonic(self):
        system = System(profile="full")
        tids = [system.spawn_process(f"t{i}").tid for i in range(3)]
        assert tids == sorted(tids)
        assert len(set(tids)) == 3



class TestContextSwitch:
    def _prepare(self, profile):
        system = System(profile=profile)
        prev = system.tasks.current
        nxt = system.spawn_process("other")
        # Give the next task a resumable context: entry at the host
        # landing pad, SP at its own stack top (signed if protected).
        landing = system.cpu._landing_pad()
        nxt.kobj.raw_write("cpu_context_pc", landing)
        if system.profile.dfi:
            nxt.kobj.set_protected(
                "cpu_context_sp", nxt.stack_top,
                system.cpu.pac, system.kernel_keys, "db",
            )
        else:
            nxt.kobj.raw_write("cpu_context_sp", nxt.stack_top)
        return system, prev, nxt

    def test_switch_restores_next_context(self):
        system, prev, nxt = self._prepare("full")
        system.scheduler.switch_to(nxt)
        assert system.tasks.current is nxt
        assert system.cpu.regs.sp == nxt.stack_top
        # The current pointer was updated by the assembly itself.
        current_ptr = system.mmu.read_u64(layout.KERNEL_PERCPU_BASE, 1)
        assert current_ptr == nxt.address

    def test_switch_saves_prev_sp_signed(self):
        system, prev, nxt = self._prepare("full")
        system.scheduler.switch_to(nxt)
        raw_sp = prev.kobj.raw_read("cpu_context_sp")
        # The saved SP carries a PAC: not a canonical pointer value.
        pointer, ok = prev.kobj.get_protected(
            "cpu_context_sp", system.cpu.pac, system.kernel_keys, "db"
        )
        assert ok
        assert raw_sp != pointer

    def test_corrupted_saved_sp_detected_under_full(self):
        system, prev, nxt = self._prepare("full")
        # Attacker rewrites the next task's saved SP to a fake stack.
        fake = prev.stack_top - 0x100
        nxt.kobj.raw_write("cpu_context_sp", fake)
        system.scheduler.switch_to(nxt)
        # AUTDB poisoned the SP (it carried no valid PAC), so the
        # switched-to task never lands on the attacker's fake stack:
        # its first stack access faults on the non-canonical address.
        assert system.cpu.regs.sp != fake
        assert not system.config.is_canonical(system.cpu.regs.sp)
        with pytest.raises(TranslationFault):
            system.mmu.read_u64(system.cpu.regs.sp, 1)

    def test_corrupted_saved_sp_accepted_under_none(self):
        system, prev, nxt = self._prepare("none")
        fake = prev.stack_top - 0x100
        nxt.kobj.raw_write("cpu_context_sp", fake)
        system.scheduler.switch_to(nxt)
        assert system.cpu.regs.sp == fake  # hijacked silently

    def test_callee_saved_registers_roundtrip(self):
        system, prev, nxt = self._prepare("full")
        for reg in range(19, 29):
            system.cpu.regs.write(reg, 0x1000 + reg)
        system.scheduler.switch_to(nxt)
        # Switch back: prev's saved context must be restored exactly.
        system.scheduler.switch_to(prev)
        for reg in range(19, 29):
            assert system.cpu.regs.read(reg) == 0x1000 + reg

    def test_symbol_exists(self):
        system = System(profile="full")
        assert system.kernel_symbol(CPU_SWITCH_TO_SYMBOL)

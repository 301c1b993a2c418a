"""Crash-dump tests: the authenticated unwinder and its tamper evidence.

The golden path: the forced Section 5.4 panic unwinds to the exact
instrumented call chain, every frame authenticated.  The adversarial
path: a tampered saved return address (or exception frame) must show up
as *broken* — never dressed up as a plausible symbol.
"""

from __future__ import annotations

import re

import pytest

from repro.arch.isa import Nop
from repro.arch.registers import FP
from repro.cfi.policy import frame_mac_profile
from repro.kernel.entry import FRAME_ELR_OFFSET, S_FRAME_SIZE
from repro.observe import CrashDump, force_pauth_panic, render_crash, unwind

#: One crashed system per module: capture is read-only, tamper tests
#: re-crash their own.
@pytest.fixture(scope="module")
def crashed():
    return force_pauth_panic()


class TestForcedPanic:
    def test_panic_is_captured(self, crashed):
        assert crashed.last_crash is not None
        assert crashed.last_crash_error is None
        assert crashed.last_crash.data["reason"] == "pauth-threshold"

    def test_threshold_accounting(self, crashed):
        dump = crashed.last_crash
        assert dump.data["pauth_failures"] == 1
        assert dump.data["fault_threshold"] == 1

    def test_fault_decodes_the_poisoned_pointer(self, crashed):
        fault = crashed.last_crash.data["fault"]
        assert fault["kind"] == "TranslationFault"
        assert fault["poison"] == "instruction"


def _symbolised(dump):
    """Frames that resolved to a real function symbol."""
    return [
        frame for frame in dump.frames
        if frame["symbol"] and not frame["symbol"].startswith("<")
    ]


class TestGoldenUnwind:
    def test_at_least_three_symbolised_frames(self, crashed):
        assert len(_symbolised(crashed.last_crash)) >= 3

    def test_the_exact_call_chain(self, crashed):
        names = [
            frame["symbol"].split("+")[0]
            for frame in _symbolised(crashed.last_crash)
        ]
        assert names[:4] == [
            "__crash_victim", "__crash_mid", "sys_crashme", "el0_sync",
        ]

    def test_return_frames_authenticate(self, crashed):
        returns = [
            frame
            for frame in crashed.last_crash.frames
            if frame["kind"] == "return"
        ]
        assert returns and all(
            frame["authenticated"] is True for frame in returns
        )
        assert all(
            frame["authenticated"] is not False
            for frame in crashed.last_crash.frames
        )

    def test_pc_frame_first_exception_frame_last(self, crashed):
        frames = crashed.last_crash.frames
        assert frames[0]["kind"] == "pc"
        assert frames[0]["symbol"].startswith("__crash_victim")
        assert frames[-1]["kind"] == "exception"
        assert frames[-1]["symbol"] == "<user>"


class TestTamperedFrames:
    """Forged stack state must surface as broken, not as a symbol."""

    def test_tampered_return_address_is_broken(self):
        system = force_pauth_panic()
        fp = system.cpu.regs.read(FP)
        raw = system.cpu.mmu.read_u64(fp + 8, el=1)
        system.cpu.mmu.write_u64(fp + 8, raw ^ (1 << 50), 1)
        frames = unwind(system)
        tampered = frames[1]
        assert tampered["kind"] == "return"
        assert tampered["authenticated"] is False
        assert tampered["symbol"] is None

    def test_tamper_does_not_break_the_rest_of_the_walk(self):
        system = force_pauth_panic()
        fp = system.cpu.regs.read(FP)
        raw = system.cpu.mmu.read_u64(fp + 8, el=1)
        system.cpu.mmu.write_u64(fp + 8, raw ^ (1 << 50), 1)
        frames = unwind(system)
        survivors = [
            frame["symbol"].split("+")[0]
            for frame in frames[2:]
            if frame["symbol"] and not frame["symbol"].startswith("<")
        ]
        assert survivors[:2] == ["sys_crashme", "el0_sync"]

    def test_frame_mac_authenticates_the_exception_frame(self):
        system = force_pauth_panic(profile=frame_mac_profile())
        exception = system.last_crash.frames[-1]
        assert exception["kind"] == "exception"
        assert exception["authenticated"] is True

    def test_tampered_exception_frame_is_flagged(self):
        system = force_pauth_panic(profile=frame_mac_profile())
        task = system.tasks.current
        base = task.stack_top - S_FRAME_SIZE
        elr = system.cpu.mmu.read_u64(base + FRAME_ELR_OFFSET, el=1)
        system.cpu.mmu.write_u64(base + FRAME_ELR_OFFSET, elr + 0x100, 1)
        frames = unwind(system)
        exception = frames[-1]
        assert exception["kind"] == "exception"
        assert exception["authenticated"] is False
        assert exception["symbol"] is None


class TestDumpContents:
    def test_registers_snapshot(self, crashed):
        registers = crashed.last_crash.registers
        assert registers["current_el"] == 1
        assert registers["pc"] == crashed.cpu.regs.pc
        assert registers["x10"] == 0x42  # the victim's modifier

    def test_ring_tail_ends_at_the_panic(self, crashed):
        events = crashed.last_crash.data["events"]
        assert events
        kinds = [event["kind"] for event in events]
        assert "auth_failure" in kinds
        assert kinds[-1] == "panic_threshold_tick"

    def test_dmesg_lines_carry_cycle_timestamps(self, crashed):
        dump = crashed.last_crash
        lines = dump.data["dmesg"]
        assert lines
        match = re.match(r"^\[\s*(\d+)\] PAUTH:", lines[0])
        assert match, lines[0]
        assert int(match.group(1)) == dump.data["cycle"]

    def test_disassembly_window_marks_the_pc(self, crashed):
        rows = crashed.last_crash.data["disassembly"]
        marked = [row for row in rows if row["pc"]]
        assert len(marked) == 1
        assert "ldr" in marked[0]["text"]

    def test_disassembly_reads_the_words_in_memory(self):
        system = force_pauth_panic()
        pc = system.cpu.regs.pc
        mmu = system.cpu.mmu
        phys = mmu.phys
        pa = mmu.frame_of(pc) * phys.page_size + pc % phys.page_size
        phys.write(pa, Nop().encoding(pc))
        # Capture is no fetch: it marks no frame as fetched code.
        phys._fetched.clear()
        rows = CrashDump.capture(system).data["disassembly"]
        assert [row["text"] for row in rows if row["pc"]] == ["nop"]
        assert not phys._fetched

    def test_stack_window_reads_the_kernel_stack(self, crashed):
        stack = crashed.last_crash.data["stack"]
        assert stack
        assert stack[0]["address"] == crashed.cpu.regs.sp


class TestPersistenceAndRendering:
    def test_save_load_roundtrip(self, crashed, tmp_path):
        path = crashed.last_crash.save(tmp_path / "dump.json")
        loaded = CrashDump.load(path)
        assert loaded.data == crashed.last_crash.data
        assert render_crash(loaded) == render_crash(crashed.last_crash)

    def test_render_sections(self, crashed):
        text = render_crash(crashed.last_crash)
        for section in (
            "-- panic",
            "-- registers",
            "-- stack",
            "-- disassembly",
            "-- backtrace (authenticated unwind)",
            "-- dmesg",
        ):
            assert section in text, section
        assert "[pac ok]" in text
        assert "???" not in text.split("-- trace")[0]

    def test_render_marks_broken_frames(self):
        system = force_pauth_panic()
        fp = system.cpu.regs.read(FP)
        raw = system.cpu.mmu.read_u64(fp + 8, el=1)
        system.cpu.mmu.write_u64(fp + 8, raw ^ (1 << 50), 1)
        dump = CrashDump.capture(system)
        text = render_crash(dump)
        assert "BROKEN: authentication failed" in text
        assert "???" in text


class TestCli:
    def test_crash_command_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        saved = tmp_path / "dump.json"
        assert main(["crash", "--json", str(saved)]) == 0
        first = capsys.readouterr().out
        assert "backtrace (authenticated unwind)" in first
        assert main(["crash", str(saved)]) == 0
        second = capsys.readouterr().out
        assert second.strip() == first.split("\ncrash dump written")[0].strip()

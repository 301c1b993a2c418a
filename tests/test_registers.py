"""Tests for the register file (repro.arch.registers)."""

import pytest

from repro.arch.registers import (
    FP,
    IP0,
    IP1,
    KEY_REGISTER_NAMES,
    LR,
    XZR,
    KeyBank,
    PAuthKey,
    RegisterFile,
    SCTLR,
)
from repro.errors import ReproError


class TestGPRs:
    def test_read_write(self):
        regs = RegisterFile()
        regs.write(5, 0xDEADBEEF)
        assert regs.read(5) == 0xDEADBEEF

    def test_writes_truncate_to_64_bits(self):
        regs = RegisterFile()
        regs.write(0, 1 << 65 | 0x42)
        assert regs.read(0) == 0x42

    def test_xzr_reads_zero(self):
        regs = RegisterFile()
        assert regs.read(XZR) == 0

    def test_xzr_writes_discarded(self):
        regs = RegisterFile()
        regs.write(XZR, 0x1234)
        assert regs.read(XZR) == 0

    def test_aliases(self):
        assert FP == 29
        assert LR == 30
        assert IP0 == 16
        assert IP1 == 17

    def test_clear_gprs(self):
        regs = RegisterFile()
        for i in range(31):
            regs.write(i, i + 1)
        regs.clear_gprs(keep=(19,))
        assert [regs.read(i) for i in range(31)] == [0] * 19 + [20] + [0] * 11


class TestBankedSP:
    def test_sp_banked_per_el(self):
        regs = RegisterFile()
        regs.current_el = 1
        regs.sp = 0x1000
        regs.current_el = 0
        regs.sp = 0x2000
        assert regs.sp_of(1) == 0x1000
        assert regs.sp_of(0) == 0x2000
        regs.current_el = 1
        assert regs.sp == 0x1000

    def test_set_sp_of(self):
        regs = RegisterFile()
        regs.set_sp_of(0, 0xAAA0)
        assert regs.sp_of(0) == 0xAAA0


class TestKeys:
    def test_key_bank_names(self):
        bank = KeyBank()
        assert bank.NAMES == ("ia", "ib", "da", "db", "ga")
        for name in bank.NAMES:
            assert bank.get(name).as_pair() == (0, 0)

    def test_key_bank_unknown_key(self):
        with pytest.raises(ReproError):
            KeyBank().get("xx")

    def test_key_bank_copy_is_deep(self):
        bank = KeyBank()
        bank.ia.lo = 42
        copy = bank.copy()
        copy.ia.lo = 99
        assert bank.ia.lo == 42

    def test_key_bank_snapshot(self):
        bank = KeyBank()
        bank.db.hi = 7
        snap = bank.snapshot()
        assert snap[3] == (0, 7)

    def test_ten_key_registers(self):
        assert len(KEY_REGISTER_NAMES) == 10

    def test_msr_mrs_key_register_mapping(self):
        regs = RegisterFile()
        regs.write_sysreg("APIBKeyLo_EL1", 0x1111)
        regs.write_sysreg("APIBKeyHi_EL1", 0x2222)
        assert regs.keys.ib.lo == 0x1111
        assert regs.keys.ib.hi == 0x2222
        assert regs.read_sysreg("APIBKeyLo_EL1") == 0x1111

    def test_all_key_registers_roundtrip(self):
        regs = RegisterFile()
        for index, name in enumerate(KEY_REGISTER_NAMES):
            regs.write_sysreg(name, index + 100)
        for index, name in enumerate(KEY_REGISTER_NAMES):
            assert regs.read_sysreg(name) == index + 100

    def test_pauth_key_pair(self):
        key = PAuthKey(lo=1, hi=2)
        assert key.as_pair() == (1, 2)
        assert key.as_pair() != (0, 0)


class TestSCTLR:
    def test_default_all_enabled(self):
        sctlr = SCTLR()
        for name in ("ia", "ib", "da", "db", "ga"):
            assert sctlr.enabled_for(name)

    def test_pack_unpack_roundtrip(self):
        for bits in range(16):
            sctlr = SCTLR(
                en_ia=bool(bits & 1),
                en_ib=bool(bits & 2),
                en_da=bool(bits & 4),
                en_db=bool(bits & 8),
            )
            assert SCTLR.from_value(sctlr.as_value()) == sctlr

    def test_sysreg_write_updates_flags(self):
        regs = RegisterFile()
        regs.write_sysreg("SCTLR_EL1", 0)
        assert not regs.sctlr_el1.en_ia
        assert not regs.sctlr_el1.en_db

    def test_sysreg_read_packs_flags(self):
        regs = RegisterFile()
        value = regs.read_sysreg("SCTLR_EL1")
        assert value & (1 << 31)  # EnIA
        assert value & (1 << 13)  # EnDB

    def test_ga_has_no_enable_bit(self):
        assert SCTLR(en_ia=False).enabled_for("ga")


class TestGenericSysregs:
    def test_unknown_sysreg_defaults_zero(self):
        assert RegisterFile().read_sysreg("CONTEXTIDR_EL1") == 0

    def test_generic_sysreg_roundtrip(self):
        regs = RegisterFile()
        regs.write_sysreg("CONTEXTIDR_EL1", 0x77)
        assert regs.read_sysreg("CONTEXTIDR_EL1") == 0x77

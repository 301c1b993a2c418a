"""Invalidation semantics of the host-side hot-path caches.

The differential suite (``test_diff_cached.py``) shows the caches are
invisible on the pinned workloads; these tests pin the *mechanisms* that
make that true — the staleness contracts.  Each one constructs the exact
hazard a cache could get wrong (a key-register write, self-modifying
code, an unmap, a wholesale stage-2 swap) and asserts the stale entry is
never served.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import DATA_BASE, STACK_TOP

from repro import hotpath
from repro.arch import isa
from repro.arch.pac import PACEngine
from repro.arch.registers import PAuthKey
from repro.errors import PermissionFault, TranslationFault
from repro.mem.pagetable import Stage2Table

_POINTER = 0xFFFF_0000_0801_2340
_MODIFIER = 0xAA55


def _stage1_vpn(mmu, va):
    """The stage-1 table's page index (sign-extension bits dropped)."""
    return (va & ((1 << mmu.config.va_bits) - 1)) >> mmu.page_shift


def _cold_pac(pointer, modifier, key):
    """The ground truth: a fresh, fully cache-disabled computation."""
    with hotpath.disabled_caches():
        return PACEngine().compute_pac(pointer, modifier, key)


class TestPacStaleness:
    """A PAC computed before a key write is never served after it."""

    def test_msr_key_write_flushes_cached_macs(self, machine):
        cpu = machine.cpu
        engine = cpu.pac
        key = cpu.regs.keys.ia

        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        mac_a = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_a
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.misses == 1
        assert mac_a == _cold_pac(_POINTER, _MODIFIER, key)

        # The key register changes: the cached MAC must die with it.
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xBBBB)
        assert engine.cache_stats.flushes == 1
        assert engine.cache_stats.flushed_entries == 1
        mac_b = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.cache_stats.misses == 2
        assert mac_b != mac_a
        assert mac_b == _cold_pac(_POINTER, _MODIFIER, key)

        # Restoring the old value must *recompute*, not resurrect: the
        # flush dropped the bucket, so this is a miss — and it still
        # agrees with the cold computation.
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        mac_a2 = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.cache_stats.misses == 3
        assert mac_a2 == mac_a

    def test_key_write_emits_flush_trace_event(self, machine):
        cpu = machine.cpu
        ops = []
        cpu.pac.trace_hook = lambda op, ok: ops.append(op)
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        cpu.pac.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia)
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xBBBB)
        assert ops == ["cache_miss", "cache_flush"]

    def test_empty_bucket_flush_is_silent(self):
        engine = PACEngine()
        engine.note_key_write(PAuthKey(lo=0x1, hi=0x2))
        assert engine.cache_stats.flushes == 0

    def test_in_place_key_corruption_never_served_stale(self):
        # A fault-injection site mutates key.lo directly, bypassing the
        # MSR flush path entirely.  Value-keyed buckets make even that
        # safe: the corrupted value simply selects a different bucket.
        engine = PACEngine()
        key = PAuthKey(lo=0x1111, hi=0x2222)
        mac_good = engine.compute_pac(_POINTER, _MODIFIER, key)
        key.lo ^= 1 << 13
        mac_bad = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert mac_bad != mac_good
        assert mac_bad == _cold_pac(_POINTER, _MODIFIER, key)
        key.lo ^= 1 << 13
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_good

    def test_per_key_register_flush_is_selective(self, machine):
        cpu = machine.cpu
        engine = cpu.pac
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0x1111)
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x2222)
        engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia)
        engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ib)
        # Writing IB must not disturb the IA bucket.
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x3333)
        engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia)
        assert engine.cache_stats.hits == 1
        assert engine.cache_stats.flushes == 1


class TestDecodeCacheInvalidation:
    def test_straightline_rerun_hits(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 7, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 7
        hits_before = machine.cpu.decode_stats.hits
        result, _ = machine.cpu.call(
            program.address_of("main"), stack_top=STACK_TOP
        )
        assert result == 7
        assert machine.cpu.decode_stats.hits > hits_before

    def test_self_modifying_code_invalidates(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 1, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 1

        # Overwrite the Movz in place: the next fetch must decode the
        # new instruction, not replay the cached handler.
        cpu = machine.cpu
        pa = cpu.mmu.translate(program.address_of("main"), "x", 1)
        cpu.mmu.phys.store_instruction(pa, isa.Movz(0, 2, 0))
        flushes_before = cpu.decode_stats.flushes
        result, _ = cpu.call(program.address_of("main"), stack_top=STACK_TOP)
        assert result == 2
        assert cpu.decode_stats.flushes > flushes_before

    def test_erase_instruction_invalidates(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 3, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 3
        cpu = machine.cpu
        pa = cpu.mmu.translate(program.address_of("main"), "x", 1)
        cpu.mmu.phys.erase_instruction(pa)
        with pytest.raises(TranslationFault):
            cpu.call(program.address_of("main"), stack_top=STACK_TOP)


class TestTranslationCacheInvalidation:
    def test_repeat_translation_uses_cache(self, machine):
        mmu = machine.cpu.mmu
        pa = mmu.translate(DATA_BASE, "r", 1)
        assert mmu.translate(DATA_BASE, "r", 1) == pa
        assert (DATA_BASE >> mmu.page_shift, "r", 1) in mmu._walk_cache

    def test_unmap_page_faults_after_cached_walk(self, machine):
        mmu = machine.cpu.mmu
        mmu.translate(DATA_BASE, "r", 1)  # populate the walk cache
        mmu.address_space.kernel.unmap_page(_stage1_vpn(mmu, DATA_BASE))
        with pytest.raises(TranslationFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_stage2_revocation_faults_after_cached_walk(self, machine):
        mmu = machine.cpu.mmu
        pa = mmu.translate(DATA_BASE, "r", 1)
        mmu.stage2.set_frame(
            pa >> mmu.page_shift, r=False, w=False, x_el1=False
        )
        with pytest.raises(PermissionFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_stage2_wholesale_replacement_invalidates(self, machine):
        # The hypervisor swaps in a whole new table at enable time.  The
        # fresh table has never been mutated, so only the install itself
        # (which bumps the machine generation) can flush the cached walk.
        mmu = machine.cpu.mmu
        mmu.translate(DATA_BASE, "r", 1)
        mmu.stage2 = Stage2Table(default_allow=False)
        with pytest.raises(PermissionFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_remap_serves_new_frame(self, machine):
        mmu = machine.cpu.mmu
        old_pa = mmu.translate(DATA_BASE, "r", 1)
        vpn = _stage1_vpn(mmu, DATA_BASE)
        mapping = mmu.address_space.kernel.lookup(vpn)
        mmu.address_space.kernel.map_page(
            vpn, mapping.frame + 1, mapping.permissions
        )
        new_pa = mmu.translate(DATA_BASE, "r", 1)
        assert new_pa == old_pa + mmu.page_size


class TestEnvironmentSwitch:
    def test_disable_env_var_builds_cacheless_components(self):
        code = (
            "from repro import hotpath\n"
            "from repro.arch.cpu import CPU\n"
            "assert not any(hotpath.snapshot().values()), hotpath.snapshot()\n"
            "cpu = CPU()\n"
            "assert not cpu._decode_enabled\n"
            "assert not cpu.pac._cache_macs\n"
            "print('ok')\n"
        )
        env = dict(os.environ, REPRO_DISABLE_CACHES="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

"""Invalidation semantics of the host-side hot-path caches.

The differential suite (``test_diff_cached.py``) shows the caches are
invisible on the pinned workloads; these tests pin the *mechanisms* that
make that true — the staleness contracts.  Each one constructs the exact
hazard a cache could get wrong (a key-register write, self-modifying
code, an unmap, a remap, a wholesale stage-2 swap) and asserts the stale
entry is never served.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.pac import PACEngine
from repro.arch.registers import (
    KEY_REGISTER_NAMES,
    KEY_REGISTERS,
    PAuthKey,
)
from repro.errors import PermissionFault, TranslationFault
from repro.kernel import System, layout
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions, Stage2Table
from repro.workloads.guest import DATA_BASE, STACK_TOP, run_el0, syscall

_POINTER = 0xFFFF_0000_0801_2340
_MODIFIER = 0xAA55

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
pointers = st.one_of(
    u64,
    st.integers(min_value=0, max_value=(1 << 48) - 1).map(
        lambda low: (0xFFFF << 48) | low
    ),
)
_STALENESS = settings(max_examples=40, deadline=None)


def _stage1_vpn(mmu, va):
    """The stage-1 table's page index (sign-extension bits dropped)."""
    return (va & ((1 << mmu.config.va_bits) - 1)) >> mmu.page_shift


def _cold_pac(pointer, modifier, key):
    """The ground truth: a fresh, fully cache-disabled computation."""
    with hotpath.disabled_caches():
        return PACEngine().compute_pac(pointer, modifier, key)


def _assert_served_fresh(engine, pointer, modifier, key, stale_mac):
    """Everything the engine serves under ``key`` is computed under its
    current value, never the ``stale_mac`` of an earlier one."""
    mac = engine.compute_pac(pointer, modifier, key)
    assert mac == _cold_pac(pointer, modifier, key)
    assert mac != stale_mac
    with hotpath.disabled_caches():
        cold = PACEngine()
        signed = cold.add_pac(pointer, modifier, key)
    assert engine.add_pac(pointer, modifier, key) == signed
    assert engine.auth_pac(signed, modifier, key) == cold.auth_pac(
        signed, modifier, key
    )


class TestPacStaleness:
    """No MAC computed under an old key value is served after the key
    changes, whichever way the change happens."""

    @_STALENESS
    @given(
        register=st.sampled_from(KEY_REGISTER_NAMES),
        old=u64, new=u64, pointer=pointers, modifier=u64,
    )
    def test_msr_key_write_never_serves_stale(
        self, register, old, new, pointer, modifier
    ):
        assume(old != new)
        cpu = CPU()
        name = KEY_REGISTERS[register][0]
        key = cpu.regs.keys.get(name)
        other = cpu.regs.keys.get("ga" if name == "ia" else "ia")
        cpu.write_sysreg_checked(register, old)
        stale = cpu.pac.compute_pac(pointer, modifier, key)
        other_mac = cpu.pac.compute_pac(pointer, modifier, other)
        cpu.write_sysreg_checked(register, new)
        _assert_served_fresh(cpu.pac, pointer, modifier, key, stale)
        # Other key registers keep their MACs.
        assert cpu.pac.compute_pac(pointer, modifier, other) == other_mac
        # Restoring the old value serves the old value's MAC again.
        cpu.write_sysreg_checked(register, old)
        assert cpu.pac.compute_pac(pointer, modifier, key) == stale

    @_STALENESS
    @given(
        register=st.sampled_from(KEY_REGISTER_NAMES),
        old=u64, new=u64, pointer=pointers, modifier=u64,
    )
    def test_banked_key_write_never_serves_stale(self, register, old, new, pointer, modifier):
        assume(old != new)
        cpu = CPU(features=frozenset({"pauth", "pauth-ks"}))
        name = KEY_REGISTERS[register][0]
        cpu.write_sysreg_checked("APKSSEL_EL1", 1)
        cpu.write_sysreg_checked(register, old)
        key = cpu.regs.alt_keys.get(name)
        assert cpu._key(name) is key
        stale = cpu.pac.compute_pac(pointer, modifier, key)
        cpu.write_sysreg_checked(register, new)
        _assert_served_fresh(cpu.pac, pointer, modifier, key, stale)
        # The primary bank is untouched by the banked write.
        primary = cpu.regs.keys.get(name)
        assert cpu.pac.compute_pac(pointer, modifier, primary) == _cold_pac(
            pointer, modifier, primary
        )

    @_STALENESS
    @given(
        lo=u64, hi=u64, bit=st.integers(min_value=0, max_value=127),
        pointer=pointers, modifier=u64,
    )
    def test_in_place_key_corruption_never_served_stale(
        self, lo, hi, bit, pointer, modifier
    ):
        # A fault-injection site flips a key bit directly, bypassing the
        # MSR path entirely.
        engine = PACEngine()
        key = PAuthKey(lo=lo, hi=hi)
        stale = engine.compute_pac(pointer, modifier, key)
        half = "lo" if bit < 64 else "hi"
        setattr(key, half, getattr(key, half) ^ (1 << (bit % 64)))
        _assert_served_fresh(engine, pointer, modifier, key, stale)
        setattr(key, half, getattr(key, half) ^ (1 << (bit % 64)))
        assert engine.compute_pac(pointer, modifier, key) == stale

    def test_msr_key_write_flushes_cached_macs(self, machine):
        # The MAC memoised under the old key value dies with it: after
        # the write the engine misses and computes under the new value.
        cpu = machine.cpu
        engine = cpu.pac
        key = cpu.regs.keys.ia

        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        base = engine.cache_stats.to_dict()
        mac_a = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_a
        stats = engine.cache_stats.to_dict()
        assert stats["hits"] - base["hits"] == 1
        assert stats["misses"] - base["misses"] == 1
        assert mac_a == _cold_pac(_POINTER, _MODIFIER, key)

        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xBBBB)
        mac_b = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.cache_stats.to_dict()["misses"] - base["misses"] == 2
        assert mac_b != mac_a
        assert mac_b == _cold_pac(_POINTER, _MODIFIER, key)

        # Restoring the old value serves the old value's MAC, which is
        # still the cold computation's answer.
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_a
        assert mac_a == _cold_pac(_POINTER, _MODIFIER, key)
        assert engine.cache_stats.to_dict()["flushes"] == 0

    def test_per_key_register_flush_is_selective(self, machine):
        cpu = machine.cpu
        engine = cpu.pac
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0x1111)
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x2222)
        mac_ia = engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia)
        engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ib)
        # Writing IB must not disturb the MACs memoised under IA.
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x3333)
        base = engine.cache_stats.to_dict()
        assert engine.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia) == mac_ia
        assert engine.cache_stats.to_dict()["hits"] - base["hits"] == 1
        assert engine.cache_stats.to_dict()["flushes"] == 0

    def test_key_write_emits_no_cache_event(self, machine):
        cpu = machine.cpu
        ops = []
        cpu.pac.trace_hook = lambda op, ok: ops.append(op)
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        cpu.pac.compute_pac(_POINTER, _MODIFIER, cpu.regs.keys.ia)
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xBBBB)
        assert ops == []
        assert cpu.pac.cache_stats.to_dict()["flushes"] == 0


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
        flushes_before = cpu.decode_stats.flushes
        cpu.mmu.phys.store_instruction(pa, isa.Movz(0, 2, 0))
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


_SMC_TEXT = 0xFFFF_0000_0A00_0000


def _smc_core(cached):
    """A core with one writable, executable kernel page holding
    ``movz x0, #7`` then ``hlt``."""
    if cached:
        cpu = CPU()
    else:
        with hotpath.disabled_caches():
            cpu = CPU()
    cpu.mmu.map_range(
        _SMC_TEXT, 0x1000, 0x420,
        Permissions(r_el1=True, w_el1=True, x_el1=True),
    )
    cpu.mmu.place_program(
        Assembler(_SMC_TEXT).emit(isa.Movz(0, 7, 0), isa.Hlt()).assemble()
    )
    return cpu


def _run_from(cpu, pc):
    cpu.regs.write(0, 0)
    cpu.regs.pc, cpu.halted = pc, False
    cpu.run(10)
    return cpu.regs.read(0)


class TestCodeIsBytes:
    """Memory is the only copy of code: a data write over an instruction
    changes what executes, with the caches on or off."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "reference"])
    def test_data_write_over_code_changes_what_runs(self, cached):
        cpu = _smc_core(cached)
        assert _run_from(cpu, _SMC_TEXT) == 7
        cpu.mmu.write(_SMC_TEXT, isa.Nop().encoding(), 1)
        assert _run_from(cpu, _SMC_TEXT) == 0
        assert cpu.instructions_retired == 4

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "reference"])
    def test_code_written_as_data_runs(self, cached):
        cpu = _smc_core(cached)
        cpu.mmu.write_u64(
            _SMC_TEXT + 0x100,
            int.from_bytes(
                isa.Movz(0, 9, 16).encoding() + isa.Hlt().encoding(), "little"
            ),
            1,
        )
        assert _run_from(cpu, _SMC_TEXT + 0x100) == 9 << 16

    def test_cached_and_reference_generations_agree(self):
        cores = [_smc_core(True), _smc_core(False)]
        for cpu in cores:
            _run_from(cpu, _SMC_TEXT)
            cpu.mmu.write(_SMC_TEXT, isa.Nop().encoding(), 1)
            _run_from(cpu, _SMC_TEXT)
        assert cores[0].mmu.generation.value == cores[1].mmu.generation.value

    def test_erase_leaves_zero_bytes(self):
        cpu = _smc_core(True)
        pa = cpu.mmu.translate(_SMC_TEXT, "x", 1)
        cpu.mmu.phys.erase_instruction(pa)
        assert cpu.mmu.phys.read(pa, 4) == bytes(4)
        with pytest.raises(TranslationFault, match="no instruction"):
            cpu.mmu.fetch(_SMC_TEXT, 1)


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


def _getpid_with_x1(system, imm):
    """``x1 = imm``, then getpid, loaded into fresh frames as a new task
    would be, and run: (cycles, x0, x1, retired)."""
    number = system.syscall_numbers["getpid"]

    def body(user):
        user.mov_imm(1, imm)
        syscall(user, number)

    cycles = run_el0(system, body)
    regs = system.cpu.regs
    return cycles, regs.read(0), regs.read(1), system.cpu.instructions_retired


def _step_from(cpu, pc):
    cpu.regs.pc, cpu.regs.current_el = pc, 1
    cpu.step()
    return cpu.regs.read(0), cpu.regs.pc, cpu.cycles


class TestScopedInvalidation:
    """A remap drops one page's walks and blocks at the call, and a
    store into a frame no fetch has read drops nothing: each against a
    cache-free twin."""

    def test_second_user_program_keeps_kernel_blocks(self):
        with hotpath.disabled_caches():
            reference = System(profile="full")
        cached = System(profile="full")
        for system in (cached, reference):
            system.map_user_stack()
        assert _getpid_with_x1(cached, 1) == _getpid_with_x1(reference, 1)
        cpu = cached.cpu
        frame = cached.mmu.frame_of(layout.USER_TEXT_BASE)
        stats, blocks = cpu.decode_stats.to_dict(), set(cpu._decode_cache)
        result = _getpid_with_x1(cached, 2)
        assert result == _getpid_with_x1(reference, 2)
        assert result[2] == 2
        assert cached.mmu.frame_of(layout.USER_TEXT_BASE) != frame
        # The new program's blocks are the only ones built; the kernel's
        # syscall path runs from the blocks the first program left.
        assert cpu.decode_stats.flushes == stats["flushes"]
        # Its ten words: two four-word moves, SVC and HLT.
        assert cpu.decode_stats.misses - stats["misses"] == 10
        assert {key for key in blocks if key[1] == 1} <= set(cpu._decode_cache)

    def test_remap_of_executed_page_runs_the_new_frame(self):
        observed = []
        for cached in (True, False):
            cpu = _smc_core(cached)
            cpu.mmu.phys.store_instruction(0x421 << 12, isa.Movz(0, 8, 0))
            first = _step_from(cpu, _SMC_TEXT)
            flushes = cpu.decode_stats.flushes
            cpu.mmu.map_range(_SMC_TEXT, 0x1000, 0x421, Permissions.kernel_text())
            observed.append((first, _step_from(cpu, _SMC_TEXT)))
            if cached:
                assert cpu.decode_stats.flushes == flushes
        assert observed[0] == observed[1]
        assert [step[0] for step in observed[0]] == [7, 8]

    @pytest.mark.parametrize("remaps", [1, 16, 17, 40])
    def test_repeated_remaps_drop_only_that_page(self, remaps):
        # The first map fills an empty slot (no scope); every later one
        # replaces it, one page scope each, and a read after each must
        # see the frame just mapped.
        observed = []
        for cached in (True, False):
            cpu = _smc_core(cached)
            mmu = cpu.mmu
            for frame in (0x430, 0x431):
                mmu.phys.write_u64(frame << mmu.page_shift, frame)
            first = _run_from(cpu, _SMC_TEXT)
            before = cpu.decode_stats.to_dict()
            reads = []
            for index in range(remaps + 1):
                mmu.map_range(
                    _SMC_TEXT + 0x1000, 0x1000, 0x430 + index % 2,
                    Permissions.kernel_data(),
                )
                reads.append(mmu.read_u64(_SMC_TEXT + 0x1000, 1))
            observed.append(
                (first, reads, _run_from(cpu, _SMC_TEXT), cpu.cycles)
            )
            if cached:
                stats = cpu.decode_stats
                assert stats.flushes == before["flushes"]
                assert stats.misses == before["misses"]
                text = (_SMC_TEXT >> mmu.page_shift, "x", 1)
                assert text in mmu._walk_cache
        assert observed[0] == observed[1]
        assert observed[0][1][:2] == [0x430, 0x431]

    def test_remap_among_a_thousand_walks_drops_only_that_page(self):
        """A page bump pops that page's keys from each cache's page
        index: it never scans a cache, so its cost does not grow with
        the walks other tasks left behind."""

        class Unscannable(dict):
            def __iter__(self):
                raise AssertionError("a page bump scanned the cache")

            keys = values = items = __iter__

        mmu = MMU()
        base, pages = 0xFFFF_0000_1000_0000, 1001
        mmu.map_range(base, pages << mmu.page_shift, 0x1000,
                      Permissions.kernel_data())
        extra, extra_pages = Unscannable(), {}
        mmu.generation.register(extra, extra_pages)
        for page in range(pages):
            va = base + (page << mmu.page_shift)
            mmu.read_u64(va, 1)
            extra[va] = page
            extra_pages.setdefault(_stage1_vpn(mmu, va), []).append(va)
        target = base + (500 << mmu.page_shift)
        walk = (target >> mmu.page_shift, "r", 1)
        others = dict(mmu._walk_cache)
        del others[walk]
        assert len(others) == pages - 1
        mmu.phys.write_u64(0x3000 << mmu.page_shift, 0x55)
        mmu.map_range(target, 0x1000, 0x3000, Permissions.kernel_data())
        assert mmu._walk_cache == others
        assert _stage1_vpn(mmu, target) not in mmu._walk_pages
        assert dict.__len__(extra) == pages - 1 and target not in extra
        assert mmu.read_u64(target, 1) == 0x55

    def test_unmap_drops_the_page_at_the_call(self):
        cpu = _smc_core(True)
        mmu = cpu.mmu
        mmu.map_range(
            _SMC_TEXT + 0x1000, 0x1000, 0x430, Permissions.kernel_data()
        )
        _run_from(cpu, _SMC_TEXT)
        mmu.read_u64(_SMC_TEXT + 0x1000, 1)
        page = _SMC_TEXT >> mmu.page_shift
        assert {key[0] for key in mmu._walk_cache} == {page, page + 1}
        assert {key[0] >> mmu.page_shift for key in cpu._decode_cache} == {page}
        mmu.address_space.kernel.unmap_page(_stage1_vpn(mmu, _SMC_TEXT))
        assert {key[0] for key in mmu._walk_cache} == {page + 1}
        assert not cpu._decode_cache
        assert cpu.decode_stats.flushes == 0

    def test_only_cached_machines_register_caches(self):
        cached = CPU()
        registered = [cache for cache, *_ in cached.mmu.generation._caches]
        assert [id(cache) for cache in registered] == [
            id(cached.mmu._walk_cache), id(cached._decode_cache)
        ]
        with hotpath.disabled_caches():
            reference = CPU()
        assert reference.mmu.generation._caches == []


class TestEnvironmentSwitch:
    def test_disable_env_var_builds_cacheless_components(self):
        code = (
            "from repro import hotpath\n"
            "from repro.arch.cpu import CPU\n"
            "assert not any(hotpath.snapshot().values()), hotpath.snapshot()\n"
            "cpu = CPU()\n"
            "assert not cpu._decode_enabled\n"
            "assert cpu.pac._cipher(cpu.regs.keys.ia)._memo is None\n"
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

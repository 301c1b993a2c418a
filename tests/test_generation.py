"""The machine generation: one counter behind both host-side caches.

Physical memory, both stage-1 tables and the stage-2 table of one MMU
share a single :class:`~repro.mem.phys.Generation` cell.  Every change a
cached translation or decoded instruction could depend on moves it
forward, and nothing else does.  The property test below drives random
mutations and lookups through a cached machine and a cache-free twin
and requires the two to agree at every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import cpu as cpu_module
from repro.arch import isa
from repro.arch.cpu import CPU, DecodeCacheStats
from repro.errors import ReproError, SimFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions, Stage1Table, Stage2Table

KERNEL_VA = 0xFFFF_0000_0800_0000
USER_VA = 0x0000_0000_0040_0000
CODE_FRAME = 0x100
DATA_FRAME = 0x200
RESTRICTED_FRAME = 0x300


def _vpn(mmu, va):
    return (va & ((1 << mmu.config.va_bits) - 1)) >> mmu.page_shift


@pytest.fixture
def mmu():
    mmu = MMU()
    mmu.map_range(KERNEL_VA, 0x1000, CODE_FRAME, Permissions(r_el1=True, x_el1=True))
    mmu.map_range(
        KERNEL_VA + 0x1000, 0x1000, DATA_FRAME, Permissions.kernel_data()
    )
    mmu.phys.store_instruction(CODE_FRAME << 12, isa.Nop())
    mmu.stage2.set_frame(RESTRICTED_FRAME, r=False, w=False, x_el1=True)
    return mmu


#: Every mutator a cached fetch or translation depends on.
MUTATIONS = {
    "map_range": lambda mmu: mmu.map_range(
        KERNEL_VA + 0x2000, 0x1000, 0x400, Permissions.kernel_data()
    ),
    "unmap_page": lambda mmu: mmu.address_space.kernel.unmap_page(
        _vpn(mmu, KERNEL_VA)
    ),
    "set_frame": lambda mmu: mmu.stage2.set_frame(
        CODE_FRAME, r=True, w=False, x_el1=False
    ),
    "clear_frame": lambda mmu: mmu.stage2.clear_frame(RESTRICTED_FRAME),
    "install_stage2": lambda mmu: setattr(mmu, "stage2", Stage2Table()),
    "install_user_table": lambda mmu: setattr(
        mmu.address_space, "user", Stage1Table()
    ),
    "install_kernel_table": lambda mmu: setattr(
        mmu.address_space, "kernel", Stage1Table()
    ),
    "store_instruction": lambda mmu: mmu.phys.store_instruction(
        (CODE_FRAME << 12) + 4, isa.Ret()
    ),
    "erase_instruction": lambda mmu: mmu.phys.erase_instruction(
        CODE_FRAME << 12
    ),
    "write_code_frame": lambda mmu: mmu.phys.write(
        (CODE_FRAME << 12) + 0x800, b"\x01\x02"
    ),
    "write_u64_code_frame": lambda mmu: mmu.phys.write_u64(
        (CODE_FRAME << 12) + 0x808, 0x0102
    ),
}


def _write_u64_twice(mmu):
    # The second store hits the translation cache.
    for value in (1, 2):
        mmu.write_u64(KERNEL_VA + 0x1008, value, 1)


#: Calls that change nothing a cache could depend on.
NON_MUTATIONS = {
    "write_data_frame": lambda mmu: mmu.phys.write(DATA_FRAME << 12, b"\xff"),
    "write_u64_data_frame": _write_u64_twice,
    "unmap_unmapped_page": lambda mmu: mmu.address_space.kernel.unmap_page(
        _vpn(mmu, KERNEL_VA + 0x8000)
    ),
    "clear_unrestricted_frame": lambda mmu: mmu.stage2.clear_frame(0x999),
    "erase_missing_instruction": lambda mmu: mmu.phys.erase_instruction(
        (CODE_FRAME << 12) + 0x100
    ),
}


class TestOneGeneration:
    def test_one_cell_per_machine(self, mmu):
        cell = mmu.generation
        assert mmu.phys.generation is cell
        assert mmu.address_space.user.generation is cell
        assert mmu.address_space.kernel.generation is cell
        assert mmu.stage2.generation is cell
        assert MMU().generation is not cell

    def test_both_epochs_are_the_generation(self, mmu):
        assert mmu.translation_epoch == mmu.fetch_epoch == mmu.generation.value
        assert MMU.fetch_epoch is MMU.translation_epoch

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutator_advances_generation(self, mmu, name):
        before = mmu.translation_epoch
        MUTATIONS[name](mmu)
        assert mmu.translation_epoch > before

    @pytest.mark.parametrize("name", sorted(NON_MUTATIONS))
    def test_non_mutation_keeps_generation(self, mmu, name):
        before = mmu.translation_epoch
        NON_MUTATIONS[name](mmu)
        assert mmu.translation_epoch == before

    def test_installed_stage2_joins_the_generation(self, mmu):
        table = Stage2Table()
        mmu.stage2 = table
        assert table.generation is mmu.generation
        before = mmu.translation_epoch
        table.set_frame(CODE_FRAME, r=False, w=False, x_el1=False)
        assert mmu.translation_epoch > before

    def test_installed_stage1_table_joins_the_generation(self, mmu):
        table = Stage1Table()
        mmu.address_space.user = table
        assert table.generation is mmu.generation
        before = mmu.translation_epoch
        table.map_page(_vpn(mmu, USER_VA), DATA_FRAME, Permissions.user_data())
        assert mmu.translation_epoch > before

    def test_swapped_user_table_is_walked_again(self):
        cpu = CPU()
        mmu = cpu.mmu
        old, new = 0x500, 0x501
        for frame, imm in ((old, 1), (new, 2)):
            mmu.phys.store_instruction(frame << 12, isa.Movz(0, imm, 0))
            mmu.phys.write_u64((frame << 12) + 8, imm)
        mmu.map_range(USER_VA, 0x1000, old, Permissions(*[True] * 6))

        def observe():
            value = mmu.read_u64(USER_VA + 8, 0)
            text = mmu.fetch(USER_VA, 0).text()
            cpu.regs.pc, cpu.regs.current_el = USER_VA, 0
            cpu.step()
            return value, text, cpu.regs.read(0)

        # Twice, so the second round is served from the caches.
        assert observe() == observe() == (1, "movz x0, #0x1, lsl #0", 1)
        table = Stage1Table()
        table.map_page(_vpn(mmu, USER_VA), new, Permissions(*[True] * 6))
        mmu.address_space.user = table
        assert observe() == (2, "movz x0, #0x2, lsl #0", 2)


#: A user page sharing KERNEL_VA's low VPN.
USER_ALIAS = KERNEL_VA & ((1 << 48) - 1)

#: Mutator -> the pages of KERNEL_VA, KERNEL_VA + 0x1000 and USER_ALIAS
#: whose cached walks survive it (CODE_FRAME has been fetched).
SCOPES = {
    "map_empty_slot": (MUTATIONS["map_range"],
                       {KERNEL_VA, KERNEL_VA + 0x1000, USER_ALIAS}),
    "remap": (lambda mmu: mmu.map_range(
        KERNEL_VA, 0x1000, 0x400, Permissions(r_el1=True, x_el1=True)
    ), {KERNEL_VA + 0x1000}),
    "unmap_page": (MUTATIONS["unmap_page"], {KERNEL_VA + 0x1000}),
    "set_frame": (MUTATIONS["set_frame"], set()),
    "clear_frame": (MUTATIONS["clear_frame"], set()),
    "install_stage2": (MUTATIONS["install_stage2"], set()),
    "install_user_table": (MUTATIONS["install_user_table"], set()),
    "store_unfetched_frame": (lambda mmu: mmu.phys.store_instruction(
        0x400 << 12, isa.Ret()
    ), {KERNEL_VA, KERNEL_VA + 0x1000, USER_ALIAS}),
    "store_fetched_frame": (MUTATIONS["store_instruction"], set()),
    "write_fetched_frame": (MUTATIONS["write_code_frame"], set()),
}


class TestScopes:
    """Each bump names what it may have made stale, and drops it from
    every cache registered with the generation."""

    @staticmethod
    def _replay(mmu, mutations):
        """The cached pages left after ``mutations``, and whether they
        flushed the cache."""
        cache = {
            (va >> mmu.page_shift, "r", 1): va
            for va in (KERNEL_VA, KERNEL_VA + 0x1000, USER_ALIAS)
        }
        pages = {}
        for key in cache:
            pages.setdefault(key[0] & mmu.vpn_mask, []).append(key)
        stats = DecodeCacheStats()
        mmu.generation.register(cache, pages, stats)
        for mutate in mutations:
            mutate(mmu)
        return set(cache.values()), stats.flushes > 0

    @pytest.mark.parametrize("name", sorted(SCOPES))
    def test_mutator_scope(self, mmu, name):
        mutate, kept = SCOPES[name]
        mmu.fetch(KERNEL_VA, 1)
        assert self._replay(mmu, [mutate]) == (kept, not kept)


class TestTraceScopes:
    """A trace head is indexed under every page its trace covers."""

    SECOND = KERNEL_VA + 0x1000
    HEAD = (KERNEL_VA, 1)

    def _hot_loop(self, monkeypatch):
        """A loop whose head at KERNEL_VA branches to a block on the next
        page, run until it forms one trace over both pages."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 1)
        cpu = CPU()
        mmu = cpu.mmu
        code = Permissions(r_el1=True, x_el1=True)
        mmu.map_range(KERNEL_VA, 0x2000, CODE_FRAME, code)
        second = self.SECOND
        for pc, instruction in (
            (KERNEL_VA, isa.AddImm(0, 0, 1)),
            (KERNEL_VA + 4, isa.B(target=second)),
            (second, isa.SubsImm(1, 1, 1)),
            (second + 4, isa.BCond("ne", target=KERNEL_VA)),
            (second + 8, isa.Hlt()),
        ):
            mmu.phys.store_instruction(mmu.translate(pc, "x", 1), instruction, pc)
        cpu.regs.current_el = 1
        cpu.regs.write(1, 4)
        cpu.regs.pc = KERNEL_VA
        cpu.run(max_steps=20)
        assert cpu.regs.read(0) == 4
        assert cpu._decode_cache[self.HEAD][4][3] == (
            KERNEL_VA, KERNEL_VA + 4, second, second + 4
        )
        return cpu

    def test_a_bump_of_a_trace_page_drops_the_head(self, monkeypatch):
        """A bump of the trace's second page drops the head, and a later
        bump of the head's own page, whose index still names it, does
        not raise."""
        cpu = self._hot_loop(monkeypatch)
        kernel = cpu.mmu.address_space.kernel
        kernel.unmap_page(_vpn(cpu.mmu, self.SECOND))
        assert self.HEAD not in cpu._decode_cache
        kernel.unmap_page(_vpn(cpu.mmu, KERNEL_VA))
        assert not cpu._decode_cache

    def test_a_block_rebuilt_at_a_dropped_head_leaves_its_trace_pages(
        self, monkeypatch
    ):
        """A remap of the head's page drops the trace; the cold block
        built at the head's key again lies on that page only, so an
        unmap of the page the old trace ran into keeps it."""
        cpu = self._hot_loop(monkeypatch)
        mmu = cpu.mmu
        mmu.map_range(
            KERNEL_VA, 0x1000, CODE_FRAME, Permissions(r_el1=True, x_el1=True)
        )
        assert self.HEAD not in cpu._decode_cache
        cpu.halted = False
        cpu.regs.pc = KERNEL_VA
        cpu.step()
        rebuilt = cpu._decode_cache[self.HEAD]
        assert rebuilt[4] is None
        mmu.address_space.kernel.unmap_page(_vpn(mmu, self.SECOND))
        assert cpu._decode_cache.get(self.HEAD) is rebuilt


# -- cached machine vs cache-free twin -----------------------------------------

# A small universe, so that random operations keep landing on the same
# few entries.  Pages 0 and 1 map code frames; page 2 maps a data frame
# (until a store turns it into code).  Page 3 starts unmapped, so
# installs into its empty slot follow faulting fetches and translates,
# and in the kernel half it shares its low VPN with user page 0.  Frame
# 0x103 starts unmapped: stores land in a code frame no fetch has read
# until a mapping exposes it to the lookups.
PAGES = 4
FRAMES = (0x100, 0x101, 0x102, 0x103)
CODE_FRAMES = FRAMES[:2]
PAGE_BASES = {
    True: (KERNEL_VA, KERNEL_VA + 0x1000, KERNEL_VA + 0x2000,
           0xFFFF_0000_0000_0000 | USER_VA),
    False: tuple(USER_VA + page * 0x1000 for page in range(PAGES)),
}
#: Instruction slots per page; slot 2 lies past the 8-byte writes at
#: offset 0, so code stored there survives the lookups.
SLOTS = 3
#: 8-byte access offsets: one inside the page, one straddling into the
#: next page.
U64_OFFSETS = (0x0, 0xFFC)
PERMISSIONS = (
    Permissions(*[True] * 6),
    Permissions(r_el1=True, x_el1=True),
    Permissions.kernel_data(),
    Permissions(r_el0=True, x_el0=True, r_el1=True),
)

_page = st.integers(0, PAGES - 1)
_frame = st.sampled_from(FRAMES)
_slot = st.integers(0, SLOTS - 1)
_bool = st.booleans()
_el = st.integers(0, 1)

MUTATION_OPS = st.one_of(
    st.tuples(st.just("map"), _bool, _page, _frame,
              st.integers(0, len(PERMISSIONS) - 1)),
    st.tuples(st.just("unmap"), _bool, _page),
    st.tuples(st.just("install_stage1"), _bool, st.integers(0, PAGES - 1)),
    st.tuples(st.just("set_frame"), _frame, _bool, _bool, _bool, _bool),
    st.tuples(st.just("clear_frame"), _frame),
    st.tuples(st.just("install_stage2"), _bool),
    st.tuples(st.just("store"), _frame, _slot, st.integers(0, 3)),
    st.tuples(st.just("erase"), _frame, _slot),
    st.tuples(st.just("write"), _frame, _slot, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("write_u64"), _bool, _page,
              st.sampled_from(U64_OFFSETS), _el,
              st.integers(0, (1 << 64) - 1)),
    st.tuples(st.just("load"), _bool, _page, _frame, st.integers(1, 3)),
)

#: Every lookup in the universe, run after each mutation: whatever the
#: cached machine memoised before the mutation is looked up again.  The
#: 8-byte accesses come first: every read before any write (a store into
#: a code frame moves the generation and would flush a stale entry before
#: it is read), then each write with a value unique to it, read back.
_U64_ACCESSES = [
    (kernel, page, offset, el)
    for el in (1, 0)
    for offset in U64_OFFSETS
    for kernel in (True, False)
    for page in range(PAGES)
]
LOOKUPS = [("read_u64", *access) for access in _U64_ACCESSES] + [
    (name, kernel, page, offset, el, *value)
    for kernel, page, offset, el in _U64_ACCESSES
    for name, *value in (
        ("write_u64", (page << 16 | offset << 2 | el << 1 | kernel) * 0x0101),
        ("read_u64",),
    )
] + [
    (name, kernel, page, slot, *rest)
    for kernel in (True, False)
    for page in range(PAGES)
    for slot in range(SLOTS)
    for name, *rest in (
        [("translate", access, el) for access in "rwx" for el in (0, 1)]
        + [(name, el) for name in ("fetch", "step", "run") for el in (0, 1)]
    )
]

#: Run first after each mutation: the lookups that make no data write, so
#: they meet the walks and blocks the previous round cached, before a
#: ``write_u64`` lookup into a fetched code frame flushes both caches.
PROBES = [
    lookup for lookup in LOOKUPS
    if lookup[0] in ("read_u64", "translate", "fetch", "step")
]


def _machine():
    cpu = CPU()
    for kernel in (True, False):
        for page in range(PAGES - 1):
            _apply(cpu, ("map", kernel, page, FRAMES[page], 0))
    _apply(cpu, ("install_stage2", False))
    for frame in FRAMES:
        _apply(cpu, ("set_frame", frame, True, True, True, True))
    for frame in CODE_FRAMES:
        for slot in range(SLOTS):
            _apply(cpu, ("store", frame, slot, slot))
    return cpu


def _va(kernel, page, slot=0):
    return PAGE_BASES[kernel][page] + slot * 4


def _enter(cpu, kernel, page, slot, el):
    cpu.regs.write(0, 0)
    cpu.regs.pc = _va(kernel, page, slot)
    cpu.regs.current_el = el


def _apply(cpu, operation):
    """Run one operation; return what it observed (or the fault class)."""
    mmu = cpu.mmu
    name, *args = operation
    try:
        if name == "map":
            kernel, page, frame, perms = args
            mmu.map_range(_va(kernel, page), 0x1000, frame, PERMISSIONS[perms])
        elif name == "unmap":
            kernel, page = args
            table = mmu.address_space.kernel if kernel else mmu.address_space.user
            table.unmap_page(_vpn(mmu, _va(kernel, page)))
        elif name == "install_stage1":
            # A fresh table with every page mapped ``rotate`` frames on.
            kernel, rotate = args
            table = Stage1Table(mmu.page_shift)
            for page in range(PAGES):
                table.map_page(
                    _vpn(mmu, _va(kernel, page)),
                    FRAMES[(page + rotate) % PAGES],
                    Permissions(*[True] * 6),
                )
            setattr(mmu.address_space, "kernel" if kernel else "user", table)
        elif name == "set_frame":
            frame, r, w, x_el1, x_el0 = args
            mmu.stage2.set_frame(frame, r=r, w=w, x_el1=x_el1, x_el0=x_el0)
        elif name == "clear_frame":
            mmu.stage2.clear_frame(args[0])
        elif name == "install_stage2":
            mmu.stage2 = Stage2Table(default_allow=args[0])
        elif name == "store":
            frame, slot, imm = args
            instruction = isa.Nop() if imm == 0 else isa.Movz(0, imm, 0)
            mmu.phys.store_instruction((frame << 12) + slot * 4, instruction)
        elif name == "erase":
            frame, slot = args
            mmu.phys.erase_instruction((frame << 12) + slot * 4)
        elif name == "write":
            frame, slot, data = args
            mmu.phys.write((frame << 12) + slot * 4, data)
        elif name == "write_u64":
            kernel, page, offset, el, value = args
            mmu.write_u64(_va(kernel, page) + offset, value, el)
        elif name == "load":
            # A program load: map, then store code, with no lookup in
            # between (into a frame no fetch has read, the first time).
            kernel, page, frame, imm = args
            _apply(cpu, ("map", kernel, page, frame, 0))
            for slot in range(SLOTS):
                _apply(cpu, ("store", frame, slot, imm + slot))
        elif name == "read_u64":
            kernel, page, offset, el = args
            return mmu.read_u64(_va(kernel, page) + offset, el)
        elif name == "translate":
            kernel, page, slot, access, el = args
            return mmu.translate(_va(kernel, page, slot), access, el)
        elif name == "fetch":
            kernel, page, slot, el = args
            return mmu.fetch(_va(kernel, page, slot), el).text()
        elif name == "step":
            _enter(cpu, *args)
            cpu.step()
            return cpu.regs.read(0), cpu.regs.pc, cpu.cycles
        else:
            _enter(cpu, *args)
            # No HLT in the universe: the run ends in an overrun or at
            # the fault past the last slot.
            try:
                cpu.run(max_steps=SLOTS)
            except ReproError:
                pass
            return cpu.regs.read(0), cpu.regs.pc, cpu.cycles
    except SimFault as fault:
        return type(fault)
    return None


class TestCachedMatchesReference:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(MUTATION_OPS, min_size=1, max_size=20))
    def test_interleaved_mutations_and_lookups(self, mutations):
        cached = _machine()
        with hotpath.disabled_caches():
            reference = _machine()
        assert not reference._decode_enabled
        assert not reference.mmu._cache_walks
        for mutation in [None, *mutations]:
            if mutation is not None:
                _apply(cached, mutation)
                _apply(reference, mutation)
            for lookup in PROBES + LOOKUPS:
                # The generation is compared too: whatever the caches
                # do, it must move on exactly the same operations.
                assert (
                    _apply(cached, lookup),
                    cached.mmu.generation.value,
                ) == (
                    _apply(reference, lookup),
                    reference.mmu.generation.value,
                ), (mutation, lookup)

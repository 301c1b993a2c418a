"""Compiled translation blocks against the cache-free reference.

A differential in the style of Jiang et al. (PAPERS.md): hypothesis
generates straight-line blocks over the classes with a template (the
ones a compiled block inlines), with SP and XZR operands, pairs that
straddle into an unmapped page, stores into the block's own page and
into a code page no fetch has read, accesses to a page whose frame was
never allocated, loads that fault and SP operands BFI rejects, plus a
few classes a compiled block calls.  Every prefix of a block, closed by
HLT, runs on a core that compiles each block on its first run and on a
cache-free twin; registers, memory, the allocated frames, the machine
generation, cycles, the retired count and the fault (with the pc it
leaves) must match.  Comparing every prefix compares the state after
every entry.  A second property runs each block three times, so loads
and stores take the walk-cache fast path, and unmaps, remaps or turns
its data page into code between runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import cpu as cpu_module
from repro.arch import isa
from repro.arch.cpu import CPU
from repro.arch.isa import SP, XZR
from repro.arch.registers import PAuthKey
from repro.errors import SimFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions

#: Two code pages (the blocks sit in the first; the second holds a
#: stored word no fetch reads), a data page, an unmapped page after it,
#: a mapped page whose frame no access has allocated and a read-only
#: page, all EL1.
TEXT = 0xFFFF_0000_0D00_0000
STORED = TEXT + 0x1000
DATA = TEXT + 0x2000
UNMAPPED = DATA + 0x1000
FRESH = TEXT - 0x1000
RODATA = TEXT - 0x2000
START = TEXT + 0x100
#: Frames: text, stored code, data, fresh, read-only, and the one a
#: remap moves the data page to.
_FRAMES = (0x700, 0x701, 0x703, 0x705, 0x707, 0x706)
#: Base registers: the data page, its last 0x80 bytes (pairs there
#: straddle into the unmapped page), the block's own page, the
#: unmapped page, the stored-code page, the fresh page and the
#: read-only page.
_DATA_REG, _END_REG, _TEXT_REG, _UNMAPPED_REG = 20, 23, 21, 24
_STORED_REG, _FRESH_REG, _RODATA_REG = 25, 26, 27
#: Two words a store may write over the block's later entries: ADD x3,
#: x3, #5 and MOVZ x4, #0x77 (storing XZR writes two undecodable ones).
_PATCH_REG = 22
_PATCH = int.from_bytes(
    isa.AddImm(3, 3, 5).encoding() + isa.Movz(4, 0x77, 0).encoding(), "little"
)
#: Distinct SP_EL0 and SP_EL1, both in the data page: reading the wrong
#: one reads other memory.
SP_EL0, SP_EL1 = DATA + 0x400, DATA + 0x800

_REG = st.one_of(st.integers(0, 7), st.just(XZR))
_REG_OR_SP = st.one_of(_REG, st.just(SP))
_BASE = st.sampled_from((
    _DATA_REG, _END_REG, _TEXT_REG, _UNMAPPED_REG, _STORED_REG, _FRESH_REG,
    _RODATA_REG, SP, SP,
))
_OFFSET = st.integers(0, 30).map(lambda slot: 8 * slot - 0x40)
_PAIR_OFFSET = st.integers(-8, 15).map(lambda slot: 8 * slot)
_UIMM = st.integers(0, 0x3FFF)

#: One block entry.  Loads and stores draw a base register above; the
#: writeback forms move it.
_ENTRY = st.one_of(
    st.builds(isa.Movz, _REG, st.integers(0, 0xFFFF), st.sampled_from((0, 16, 48))),
    st.builds(isa.Movk, _REG, st.integers(0, 0xFFFF), st.sampled_from((0, 32, 48))),
    st.builds(isa.MovReg, _REG_OR_SP, _REG_OR_SP),
    st.builds(isa.AddImm, _REG_OR_SP, _REG_OR_SP, st.integers(0, 0x40)),
    st.builds(isa.SubImm, _REG_OR_SP, _REG_OR_SP, st.integers(0, 0x40)),
    st.builds(
        lambda rd, distance: isa.Adr(rd, target=(START + distance) & (2**64 - 1)),
        _REG, st.integers(-0x400, 0x400).map(lambda words: 4 * words),
    ),
    st.tuples(st.integers(0, 63), st.integers(1, 64))
    .filter(lambda field: sum(field) <= 64)
    .flatmap(lambda field: st.builds(
        isa.Bfi, _REG_OR_SP, _REG_OR_SP, st.just(field[0]), st.just(field[1])
    )),
    *(
        st.builds(cls, _REG_OR_SP, _REG_OR_SP, _REG_OR_SP)
        for cls in (isa.AddReg, isa.SubReg, isa.SubsReg, isa.EorReg)
    ),
    *(
        st.builds(cls, _REG_OR_SP, _REG_OR_SP, _UIMM)
        for cls in (isa.SubsImm, isa.AndImm, isa.OrrImm, isa.EorImm)
    ),
    *(
        st.builds(cls, _REG_OR_SP, _REG_OR_SP, st.integers(0, 63))
        for cls in (isa.LslImm, isa.LsrImm)
    ),
    *(st.builds(cls, _REG, _BASE, _OFFSET) for cls in (isa.Ldr, isa.LdrPost)),
    *(st.builds(cls, _REG_OR_SP, _BASE, _OFFSET) for cls in (isa.Str, isa.StrPre)),
    *(
        st.builds(cls, _REG, _REG, _BASE, _PAIR_OFFSET)
        for cls in (isa.Ldp, isa.LdpPost)
    ),
    *(
        st.builds(cls, _REG_OR_SP, _REG_OR_SP, _BASE, _PAIR_OFFSET)
        for cls in (isa.Stp, isa.StpPre)
    ),
    st.just(isa.Nop()),
    st.builds(isa.Work, st.integers(1, 9)),
    # Called, not inlined: the generation is checked after each.
    st.builds(isa.Pac, st.just("ia"), _REG, _REG_OR_SP),
    st.builds(isa.Msr, st.just("CONTEXTIDR_EL1"), _REG),
)
#: A store over the block's own later entries, one entry in five.
_BLOCK_ENTRY = st.one_of(
    *[_ENTRY] * 4,
    st.one_of(
        st.builds(
            isa.Str, st.sampled_from((_PATCH_REG, XZR)), st.just(_TEXT_REG),
            st.integers(1, 10).map(lambda words: 4 * words),
        ),
        st.builds(
            isa.Stp, st.just(_PATCH_REG), st.sampled_from((_PATCH_REG, XZR)),
            st.just(_TEXT_REG), st.integers(1, 5).map(lambda pairs: 8 * pairs),
        ),
    ),
)

#: X0-X7: any value, or an address in the data page.
_REGISTERS = st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(0, 0xFF0).map(lambda offset: DATA + offset),
    ),
    min_size=8, max_size=8,
)


def _core(cached, entries, registers):
    """A core at ``START`` holding ``entries`` then HLT; ``cached`` cores
    compile every block on its first run."""
    if cached:
        cpu = CPU()
    else:
        with hotpath.disabled_caches():
            cpu = CPU()
    mmu = cpu.mmu
    mmu.map_range(TEXT, 0x2000, 0x700, Permissions(*[True] * 6))
    mmu.map_range(DATA, 0x1000, 0x703, Permissions.kernel_data())
    mmu.map_range(FRESH, 0x1000, 0x705, Permissions.kernel_data())
    mmu.map_range(RODATA, 0x1000, 0x707, Permissions(r_el1=True))
    for index, instruction in enumerate([*entries, isa.Hlt()]):
        pc = START + 4 * index
        mmu.phys.store_instruction(mmu.translate(pc, "x", 1), instruction, pc)
    mmu.phys.store_instruction(0x701 << 12, isa.Nop())
    mmu.write(DATA, bytes(range(256)) * 16, 1)
    regs = cpu.regs
    regs.keys.ia = PAuthKey(0x1234, 0x5678)
    for index, value in enumerate(registers):
        regs.write(index, value)
    regs.write(_DATA_REG, DATA + 0x100)
    regs.write(_END_REG, DATA + 0xF80)
    regs.write(_TEXT_REG, START)
    regs.write(_PATCH_REG, _PATCH)
    regs.write(_UNMAPPED_REG, UNMAPPED)
    regs.write(_STORED_REG, STORED + 0x100)
    regs.write(_FRESH_REG, FRESH + 0x100)
    regs.write(_RODATA_REG, RODATA + 0x100)
    regs.set_sp_of(0, SP_EL0)
    regs.set_sp_of(1, SP_EL1)
    regs.current_el = 1
    regs.pc = START
    return cpu


def _outcome(cpu):
    try:
        cpu.run(max_steps=64)
        fault = None
    except SimFault as error:
        fault = (type(error).__name__, getattr(error, "address", None))
    regs = cpu.regs
    phys = cpu.mmu.phys
    return {
        "fault": fault,
        "pc": regs.pc,
        "cycles": cpu.cycles,
        "retired": cpu.instructions_retired,
        "halted": cpu.halted,
        "x": tuple(regs.x),
        "sp": tuple(regs.sp_el),
        "nzcv": cpu.nzcv,
        "sysregs": dict(regs.sysregs),
        "generation": cpu.mmu.generation.value,
        # Before the reads below, which allocate.
        "frames": sorted(phys._frames),
        "memory": [bytes(phys.read(frame << 12, 0x1000)) for frame in _FRAMES],
    }


def _rerun(cpu):
    """Send a core that halted or faulted back to the block's start."""
    cpu.halted = False
    cpu.regs.pc = START


def _store_code(mmu):
    """Store a word into the frame behind the data page, if mapped."""
    frame = mmu.frame_of(DATA)
    if frame is not None:
        mmu.phys.store_instruction((frame << 12) + 0x180, isa.Nop())


#: What changes between two runs of a block: nothing, the data page
#: unmapped or remapped onto a fresh frame (its cached walks go, the
#: compiled block stays), or a word stored into the data frame, which
#: makes it code no fetch has read.
_MUTATIONS = {
    "none": lambda mmu: None,
    "unmap": lambda mmu: mmu.address_space.kernel.unmap_page(
        DATA >> mmu.page_shift & mmu.vpn_mask
    ),
    "remap": lambda mmu: mmu.map_range(
        DATA, 0x1000, 0x706, Permissions.kernel_data()
    ),
    "code": _store_code,
}


class TestCompiledBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(_BLOCK_ENTRY, min_size=1, max_size=10),
        registers=_REGISTERS,
    )
    def test_every_prefix_matches_the_reference(self, entries, registers):
        compiled = []
        compile_body = cpu_module._compile_body

        def counted(*args):
            compiled.append(args)
            return compile_body(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
            patch.setattr(cpu_module, "_compile_body", counted)
            for length in range(1, len(entries) + 1):
                prefix = entries[:length]
                del compiled[:]
                outcome = _outcome(_core(True, prefix, registers))
                # The first block spans the whole prefix, compiled.
                assert len(compiled[0][0]) == length + 1
                reference = _outcome(_core(False, prefix, registers))
                assert outcome == reference, length

    @settings(max_examples=150, deadline=None)
    @given(
        entries=st.lists(_BLOCK_ENTRY, min_size=1, max_size=8),
        registers=_REGISTERS,
        mutations=st.lists(st.sampled_from(sorted(_MUTATIONS)), min_size=2, max_size=2),
        hot_runs=st.sampled_from((0, 2)),
    )
    def test_reruns_across_remaps_match_the_reference(
        self, entries, registers, mutations, hot_runs
    ):
        """Each prefix runs three times, with a mutation between runs:
        the block compiles on the first run (or the third, running as
        template ``execute``s before), and the later runs find the walks
        their accesses cached, or lost, in the walk cache."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module, "HOT_BLOCK_RUNS", hot_runs)
            for length in range(1, len(entries) + 1):
                cores = [_core(cached, entries[:length], registers)
                         for cached in (True, False)]
                outcomes = [[], []]
                for mutation in [*mutations, "none"]:
                    for cpu, seen in zip(cores, outcomes):
                        seen.append(_outcome(cpu))
                        _MUTATIONS[mutation](cpu.mmu)
                        _rerun(cpu)
                assert outcomes[0] == outcomes[1], (length, mutations)

    def test_a_walk_cache_hit_makes_no_translate_call(self, monkeypatch):
        """A compiled STP/LDP whose walks are cached reads and writes the
        host frame without ``MMU.translate``; without caches each access
        still translates."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
        accesses = []
        translate = MMU.translate

        def counted(mmu, va, access, el):
            accesses.append(access)
            return translate(mmu, va, access, el)

        monkeypatch.setattr(MMU, "translate", counted)
        entries = [
            isa.Stp(1, 2, _DATA_REG, 0x10), isa.Ldp(3, 4, _DATA_REG, 0x10), isa.Nop(),
        ]
        for cached, expected in ((True, []), (False, ["x", "w", "x", "r", "x", "x"])):
            cpu = _core(cached, entries, [5, 6, 7, 8, 0, 0, 0, 0])
            _outcome(cpu)
            _rerun(cpu)
            del accesses[:]
            outcome = _outcome(cpu)
            assert accesses == expected
            assert outcome["x"][1:5] == (6, 7, 6, 7)

    @pytest.mark.parametrize(
        "entry, fault",
        [
            (isa.Ldr(1, _UNMAPPED_REG, 0), "TranslationFault"),
            (isa.Ldp(1, 2, _END_REG, 0x78), "TranslationFault"),
            (isa.Bfi(1, SP, 0, 8), "UndefinedInstructionFault"),
        ],
        ids=["ldr", "straddling-ldp", "bfi-sp"],
    )
    def test_a_fault_mid_block_leaves_its_own_pc(self, entry, fault, monkeypatch):
        """The compiled body rebuilds pc, cycles and the retired count of
        the faulting entry: here the third, after 1 + 2 cycles."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
        entries = [isa.Movz(1, 5, 0), isa.Ldr(2, _DATA_REG, 0), entry, isa.Nop()]
        outcome = _outcome(_core(True, entries, [0] * 8))
        assert outcome == _outcome(_core(False, entries, [0] * 8))
        assert outcome["fault"][0] == fault
        assert (outcome["pc"], outcome["cycles"], outcome["retired"]) == (
            START + 8, 1 + 2 + entry.cycles, 2
        )

    def test_blocks_of_the_same_code_share_one_function(self, monkeypatch):
        """The generated body is memoised by its source: a second core
        running the same block reuses the first one's function."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
        entries = [isa.Movz(1, 5, 0), isa.Stp(1, SP, SP, -16), isa.Nop()]
        bodies = []
        for _ in range(2):
            cpu = _core(True, entries, [0] * 8)
            cpu.run(max_steps=8)
            bodies.append(cpu._decode_cache[(START, 1)][4])
        assert bodies[0] is bodies[1]
        assert bodies[0].__code__.co_filename == "<translation block>"

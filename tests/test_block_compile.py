"""Compiled translation blocks against the cache-free reference.

A differential in the style of Jiang et al. (PAPERS.md): hypothesis
generates blocks over the classes with a template (the ones a compiled
block inlines), with SP and XZR operands, pairs that straddle into an
unmapped page, stores into the block's own page and into a code page no
fetch has read, accesses to a page whose frame was never allocated,
loads that fault and SP operands BFI rejects; PAC/AUT/XPAC under every
key (signed round trips among them, some tampered), key, ELR and SPSR
writes and system register reads; plus a few classes a compiled block
calls.  Every prefix of a block, closed by HLT or by any branch (which
the compiled body runs too), runs on a core that compiles each block on
its first run and on a cache-free twin; registers, keys, ELR/SPSR,
memory, the allocated frames, the machine generation, cycles, the
retired count and the fault (with the pc it leaves) must match.
Comparing every prefix compares the state after every entry.  A second
property runs each block three times, so loads and stores take the
walk-cache fast path and PAuth instructions the cipher memo's, and
unmaps, remaps or turns its data page into code between runs.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch import cpu as cpu_module
from repro.arch import isa
from repro.arch.cpu import CPU
from repro.arch.isa import SP, XZR
from repro.arch.pac import PACEngine
from repro.arch.registers import KEY_REGISTER_NAMES, LR, KeyBank, PAuthKey
from repro.errors import HypervisorTrap, PermissionFault, ReproError, SimFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions, Stage1Table
from repro.workloads.guest import syscall_cycles
from repro.workloads.lmbench import build_lmbench_system

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
#: Where the drawn branches go: a HLT in the block's page.
LANDING = TEXT + 0x800
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
_KEYS = st.sampled_from(("ia", "ib", "da", "db"))
#: Each key's value, in the primary bank and in the alternate one.
_KEY_VALUES = {
    name: (PAuthKey(0x1234 + index, 0x5678 + index),
           PAuthKey(0x9ABC + index, 0xDEF0 + index))
    for index, name in enumerate(KeyBank.NAMES)
}
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
    *(st.builds(cls, _KEYS, _REG, _REG_OR_SP) for cls in (isa.Pac, isa.Aut)),
    st.builds(isa.Xpac, _REG, st.booleans()),
    st.builds(
        isa.Msr,
        st.sampled_from(("ELR_EL1", "SPSR_EL1", *KEY_REGISTER_NAMES[:8])),
        _REG,
    ),
    st.builds(
        isa.Mrs, _REG,
        st.sampled_from(("ELR_EL1", "SPSR_EL1", "CONTEXTIDR_EL1", "APIAKeyLo_EL1")),
    ),
    # Called, not inlined: the generation is checked after each.
    st.builds(isa.Msr, st.just("CONTEXTIDR_EL1"), _REG),
    st.builds(isa.PacGa, _REG, _REG, _REG_OR_SP),
)
#: Sign then authenticate one register, the pointer tampered (the
#: PAC's top bit flipped by X7, which holds it) or not in between.
_ROUND_TRIP = st.tuples(_KEYS, st.integers(0, 6), _REG_OR_SP, st.booleans()).map(
    lambda draw: [
        isa.Pac(*draw[:3]),
        *([isa.EorReg(draw[1], draw[1], 7)] if draw[3] else []),
        isa.Aut(*draw[:3]),
    ]
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

#: The entries of a block: single entries and signed round trips.
_BLOCK = st.lists(
    st.one_of(_BLOCK_ENTRY.map(lambda entry: [entry]), _ROUND_TRIP),
    min_size=1, max_size=6,
).map(lambda parts: [entry for part in parts for entry in part])

#: What closes a block: HLT or a branch, every condition of B.cond
#: included; the register forms read X0-X7, XZR or LR.
_TARGET_REG = st.one_of(_REG, st.just(LR))
_CLOSER = st.one_of(
    st.just(isa.Hlt()),
    *(st.just(cls(target=LANDING)) for cls in (isa.B, isa.Bl)),
    *(st.builds(cls, _TARGET_REG) for cls in (isa.Br, isa.Blr, isa.Ret)),
    st.builds(isa.BCond, st.sampled_from(tuple(isa._CONDITIONS)), target=st.just(LANDING)),
    *(st.builds(cls, _REG, target=st.just(LANDING)) for cls in (isa.Cbz, isa.Cbnz)),
)

#: X0-X6: any value, an address in the data page or the landing HLT's;
#: X7: the mask a tampering round trip flips, bit 54, in the PAC field of
#: user and kernel pointers alike (48-bit VAs).
_REGISTERS = st.tuples(
    *[st.one_of(
        st.integers(0, 2**64 - 1),
        st.integers(0, 0xFF0).map(lambda offset: DATA + offset),
        st.just(LANDING),
    )] * 7,
    st.just(1 << 54),
).map(list)


def _caches(cached):
    """The host-cache setting a core is built and run under: a cache-free
    core's ciphers, made as it runs, have no memo either."""
    return contextlib.nullcontext() if cached else hotpath.disabled_caches()


def _core(
    cached, entries, registers, closer=None, features=frozenset({"pauth"}),
    warm=(),
):
    """A core at ``START`` holding ``entries``, ``closer`` (HLT by
    default) and a HLT, with one at ``LANDING`` too; ``cached`` cores
    compile every block on its first run.  Every key has a distinct
    value, already signed under, as are the key values in ``warm`` (so
    a cached core's first PAC under them takes the memo path), and LR
    holds ``LANDING``."""
    with _caches(cached):
        cpu = CPU(features=features)
    mmu = cpu.mmu
    mmu.map_range(TEXT, 0x2000, 0x700, Permissions(*[True] * 6))
    mmu.map_range(DATA, 0x1000, 0x703, Permissions.kernel_data())
    mmu.map_range(FRESH, 0x1000, 0x705, Permissions.kernel_data())
    mmu.map_range(RODATA, 0x1000, 0x707, Permissions(r_el1=True))
    code = [*entries, closer or isa.Hlt(), isa.Hlt()]
    for pc, instruction in [
        *((START + 4 * index, entry) for index, entry in enumerate(code)),
        (LANDING, isa.Hlt()),
    ]:
        mmu.phys.store_instruction(mmu.translate(pc, "x", 1), instruction, pc)
    mmu.phys.store_instruction(0x701 << 12, isa.Nop())
    mmu.write(DATA, bytes(range(256)) * 16, 1)
    regs = cpu.regs
    with _caches(cached):
        for name, (primary, alternate) in _KEY_VALUES.items():
            for bank, key in ((regs.keys, primary), (regs.alt_keys, alternate)):
                setattr(bank, name, key.copy())
                cpu.pac.add_pac(0, 0, key)
        for key in warm:
            cpu.pac.add_pac(0, 0, key)
    for index, value in enumerate(registers):
        regs.write(index, value)
    regs.write(LR, LANDING)
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


def _outcome(cpu, frames=_FRAMES, max_steps=64):
    try:
        with _caches(cpu._decode_enabled):
            cpu.run(max_steps=max_steps)
        fault = None
    except SimFault as error:
        fault = (type(error).__name__, getattr(error, "address", None))
    except ReproError as error:
        # A block that branches back to START runs out of steps: the
        # state it stops in is compared like any other.
        fault = ("overrun", str(error))
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
        "keys": (regs.keys.snapshot(), regs.alt_keys.snapshot()),
        "elr": dict(regs.elr),
        "spsr": dict(regs.spsr),
        "el": regs.current_el,
        "generation": cpu.mmu.generation.value,
        # Before the reads below, which allocate.
        "frames": sorted(phys._frames),
        "memory": [bytes(phys.read(frame << 12, 0x1000)) for frame in frames],
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
    @given(entries=_BLOCK, registers=_REGISTERS, closer=_CLOSER)
    def test_every_prefix_matches_the_reference(self, entries, registers, closer):
        compiled = []
        compile_trace = cpu_module._compile_trace

        def counted(blocks, *args):
            compiled.append(blocks)
            return compile_trace(blocks, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
            patch.setattr(cpu_module, "_compile_trace", counted)
            for length in range(1, len(entries) + 1):
                prefix = entries[:length]
                del compiled[:]
                outcome = _outcome(_core(True, prefix, registers, closer))
                # The first trace is one block spanning the whole prefix.
                ((pc, instructions),) = compiled[0]
                assert (pc, len(instructions)) == (START, length + 1)
                reference = _outcome(_core(False, prefix, registers, closer))
                assert outcome == reference, length

    @settings(max_examples=150, deadline=None)
    @given(
        entries=_BLOCK,
        registers=_REGISTERS,
        closer=_CLOSER,
        mutations=st.lists(st.sampled_from(sorted(_MUTATIONS)), min_size=2, max_size=2),
        hot_runs=st.sampled_from((0, 2)),
    )
    def test_reruns_across_remaps_match_the_reference(
        self, entries, registers, closer, mutations, hot_runs
    ):
        """Each prefix runs three times, with a mutation between runs:
        the block compiles on the first run (or the third, running as
        template ``execute``s before), and the later runs find the walks
        their accesses cached, or lost, in the walk cache."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module, "HOT_BLOCK_RUNS", hot_runs)
            for length in range(1, len(entries) + 1):
                cores = [_core(cached, entries[:length], registers, closer)
                         for cached in (True, False)]
                outcomes = [[], []]
                for mutation in [*mutations, "none"]:
                    for cpu, seen in zip(cores, outcomes):
                        seen.append(_outcome(cpu))
                        _MUTATIONS[mutation](cpu.mmu)
                        _rerun(cpu)
                assert outcomes[0] == outcomes[1], (length, mutations)

    @pytest.mark.parametrize("hot_runs", (0, 2))
    def test_a_block_looping_to_its_start_overruns_like_the_reference(
        self, hot_runs, monkeypatch
    ):
        """``adr x0, START; br x0`` loops until the step budget runs out:
        the compiled trace, which runs back to itself, stops after
        exactly the budget, as the cache-free core does."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", hot_runs)
        entries = [isa.Movz(1, 1, 0), isa.Adr(0, target=START)]
        outcomes = [
            _outcome(_core(cached, entries, [0] * 8, isa.Br(0)))
            for cached in (True, False)
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["fault"][0] == "overrun"
        assert (outcomes[0]["pc"], outcomes[0]["retired"]) == (START + 4, 64)

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
            bodies.append(cpu._decode_cache[(START, 1)][4][0])
        assert bodies[0] is bodies[1]
        assert bodies[0].__code__.co_filename == "<trace>"


#: A page past the unmapped one: an executable alias of the data frame.
ALIAS = UNMAPPED + 0x1000
#: A user page (EL0 read and execute) the EL0 loads run from.
USER_TEXT = 0x40_0000


def _stage1_copy(mmu):
    """Install a new kernel table: the text pages as before, the data
    page on frame 0x706 (a table install, not a remap)."""
    old, table = mmu.address_space.kernel, Stage1Table(mmu.page_shift)
    for va, frame in ((TEXT, 0x700), (STORED, 0x701), (DATA, 0x706)):
        vpn = va >> mmu.page_shift & mmu.vpn_mask
        table.map_page(vpn, frame, old.lookup(vpn).permissions)
    mmu.address_space.kernel = table


#: What a load through the TLB must not outlive, and the fault it then
#: takes: an unmap, a remap onto frame 0x706, a stage-2 restriction and
#: a stage-1 table install that maps the page onto 0x706.
_TLB_MUTATIONS = {
    "unmap": (_MUTATIONS["unmap"], "TranslationFault"),
    "remap": (_MUTATIONS["remap"], None),
    "stage-2": (
        lambda mmu: mmu.stage2.set_frame(0x703, r=False, w=False, x_el1=False),
        "PermissionFault",
    ),
    "stage-1-install": (_stage1_copy, None),
}


class TestHostFrameTLB:
    """The MMU's host-frame TLB (``MMU._reads``/``_writes``, one dict per
    EL), which a templated load or store probes instead of translating:
    what fills it and what must empty it, each against a cache-free
    core."""

    @staticmethod
    def _warm(monkeypatch, entries, cached=True):
        """A core that has run ``entries`` compiled twice: the first
        run's accesses fill the TLB (or, cache-free, would)."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)
        cpu = _core(cached, entries, [5, 6, 7, 8, 0, 0, 0, 0])
        for _ in range(2):
            _outcome(cpu)
            _rerun(cpu)
        return cpu

    def test_a_store_to_a_frame_fetched_since_bumps_and_drops_its_block(
        self, monkeypatch
    ):
        """The STP's page is in the store TLB; an executable alias of its
        frame is then fetched, so the frame is code, and the STP takes
        ``MMU.write_pair`` again: it bumps and drops the alias's block."""
        entries = [isa.Stp(1, 2, _DATA_REG, 0)]
        cores = [self._warm(monkeypatch, entries, cached) for cached in (True, False)]
        page = DATA >> cores[0].mmu.page_shift
        assert page in cores[0].mmu._writes[1]
        outcomes = []
        for cpu in cores:
            mmu = cpu.mmu
            mmu.map_range(ALIAS, 0x1000, 0x703, Permissions(r_el1=True, x_el1=True))
            mmu.phys.write((0x703 << 12) + 0x800, isa.Hlt().encoding())
            cpu.regs.pc = ALIAS + 0x800
            cpu.run(max_steps=4)
            generation = mmu.generation.value
            _rerun(cpu)
            outcomes.append(_outcome(cpu))
            assert mmu.generation.value > generation
        cached = cores[0]
        assert page not in cached.mmu._writes[1]
        assert (ALIAS + 0x800, 1) not in cached._decode_cache
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "execute"])
    def test_a_kernel_page_read_at_el1_still_faults_at_el0(self, compiled, monkeypatch):
        """Each EL has its own dict: the kernel page an EL1 load filled
        is not in EL0's, so an EL0 load of it walks and faults, from a
        compiled block in a user page and from the template ``execute``."""
        load = isa.Ldr(1, _DATA_REG, 0)
        cpu = self._warm(monkeypatch, [load])
        mmu = cpu.mmu
        assert DATA >> mmu.page_shift in mmu._reads[1]
        cpu.regs.current_el = 0
        with pytest.raises(PermissionFault) as fault:
            if compiled:
                mmu.map_range(
                    USER_TEXT, 0x1000, 0x708, Permissions(r_el0=True, x_el0=True)
                )
                for index, instruction in enumerate((load, isa.Hlt())):
                    mmu.phys.store_instruction((0x708 << 12) + 4 * index, instruction)
                cpu.regs.pc = USER_TEXT
                cpu.run(max_steps=4)
            else:
                load.execute(cpu)
        assert fault.value.address == DATA + 0x100
        assert not mmu._reads[0]

    @pytest.mark.parametrize("mutation", sorted(_TLB_MUTATIONS))
    def test_a_load_after_a_mapping_change_walks_again(self, mutation, monkeypatch):
        """The TLB drops what the machine generation's bumps drop: after
        an unmap, a remap, a stage-2 restriction or a stage-1 table
        install, the compiled LDR that hit it walks again and faults or
        reads the new frame, as on a cache-free core."""
        entries = [isa.Ldr(1, _DATA_REG, 0)]
        cores = [self._warm(monkeypatch, entries, cached) for cached in (True, False)]
        assert DATA >> cores[0].mmu.page_shift in cores[0].mmu._reads[1]
        mutate, fault = _TLB_MUTATIONS[mutation]
        outcomes = []
        for cpu in cores:
            cpu.mmu.phys.write_u64((0x706 << 12) + 0x100, 0xFEED)
            mutate(cpu.mmu)
            outcomes.append(_outcome(cpu))
        assert outcomes[0] == outcomes[1]
        if fault is None:
            assert (outcomes[0]["fault"], outcomes[0]["x"][1]) == (None, 0xFEED)
        else:
            assert outcomes[0]["fault"] == (fault, DATA + 0x100)

    def test_a_cache_free_core_never_fills_it(self, monkeypatch):
        """Built under ``disabled_caches()``, a core's TLB stays empty,
        so its every load and store takes the ``MMU`` call."""
        entries = [
            isa.Stp(1, 2, _DATA_REG, 0x10), isa.Ldp(3, 4, _DATA_REG, 0x10),
            isa.Str(1, _FRESH_REG, 0), isa.Ldr(5, _FRESH_REG, 0),
        ]
        mmu = self._warm(monkeypatch, entries, cached=False).mmu
        mmu.read_u64(DATA, 1)
        mmu.write_u64(DATA, 1, 1)
        assert not any(mmu._reads) and not any(mmu._writes)


#: The checked paths the inlined PAuth, MSR and MRS lines fall back to.
_FALLBACKS = ("pac_add", "pac_auth", "write_sysreg_checked", "read_sysreg_checked")


def _run_compiled(monkeypatch, entries, registers, **core):
    """The outcome of ``entries`` on a core that compiles the block on
    its first run, checked against the cache-free twin, and the
    fallback calls the compiled run made."""
    calls = []

    def counted(name):
        original = getattr(CPU, name)

        def fallback(cpu, *args):
            calls.append(name)
            return original(cpu, *args)
        return fallback

    cpu = _core(True, entries, registers, **core)
    with monkeypatch.context() as patch:
        for name in _FALLBACKS:
            patch.setattr(CPU, name, counted(name))
        outcome = _outcome(cpu)
    assert cpu._decode_cache[(START, 1)][4] is not None
    assert outcome == _outcome(_core(False, entries, registers, **core))
    return outcome, calls


def _source(trace):
    """The generated source of a compiled trace."""
    return next(
        source for (_, source), function in isa._CODE.items()
        if function is trace[0]
    )


class TestCompiledPAuth:
    """The PAuth, MSR and MRS lines a compiled block inlines."""

    @pytest.fixture(autouse=True)
    def _compile_on_first_run(self, monkeypatch):
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 0)

    def test_a_key_write_signs_the_next_pac_under_the_new_key(self, monkeypatch):
        new_key = PAuthKey(0xAAAA, _KEY_VALUES["ia"][0].hi)
        entries = [isa.Msr("APIAKeyLo_EL1", 1), isa.Pac("ia", 2, 3), isa.Nop()]
        registers = [0, new_key.lo, DATA + 0x40, 0x77, 0, 0, 0, 0]
        outcome, calls = _run_compiled(
            monkeypatch, entries, registers, warm=[new_key]
        )
        assert calls == []
        assert outcome["keys"][0][0] == new_key.as_pair()
        assert outcome["x"][2] == PACEngine().add_pac(DATA + 0x40, 0x77, new_key)

    def test_a_failed_aut_gives_the_poisoned_pointer(self, monkeypatch):
        """Signed, tampered and authenticated under DA in one block: the
        AUT finds the MAC in the memo, fails, and leaves the pointer
        poisoned with the data-key error code."""
        key = _KEY_VALUES["da"][0]
        entries = [
            isa.Pac("da", 1, 2), isa.EorReg(1, 1, 7), isa.Aut("da", 1, 2), isa.Nop(),
        ]
        registers = [0, DATA + 0x40, 0x99, 0, 0, 0, 0, 1 << 54]
        outcome, calls = _run_compiled(monkeypatch, entries, registers)
        assert calls == ["pac_auth"]
        engine = PACEngine()
        tampered = engine.add_pac(DATA + 0x40, 0x99, key) ^ 1 << 54
        result = engine.auth_pac(tampered, 0x99, key, key_name="da")
        assert not result.ok
        assert outcome["x"][1] == result.pointer
        assert engine.decode_poison(outcome["x"][1]) == "data"

    @pytest.mark.parametrize(
        "register", ["TTBR0_EL1", "APIAKeyLo_EL1", "ELR_EL1"],
    )
    def test_an_msr_to_a_locked_register_faults_at_its_own_pc(self, register):
        """A hypervisor hook that traps the write faults the MSR, both
        on the checked path (TTBR0) and on the direct one (a key, ELR),
        with nothing stored."""
        def trap(cpu, name, value):
            if name == register:
                raise HypervisorTrap(f"{name} is locked", el=1)

        entries = [isa.Movz(1, 5, 0), isa.Msr(register, 1), isa.Nop()]
        outcomes = []
        for cached in (True, False):
            cpu = _core(cached, entries, [0] * 8)
            cpu.sysreg_write_hook = trap
            outcomes.append(_outcome(cpu))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0]["fault"][0] == "HypervisorTrap"
        assert (outcomes[0]["pc"], outcomes[0]["cycles"], outcomes[0]["retired"]) == (
            START + 4, 1 + 2, 1
        )
        assert outcomes[0]["elr"][1] == 0
        assert outcomes[0]["keys"][0][0] == _KEY_VALUES["ia"][0].as_pair()

    def test_a_pac_with_its_key_disabled_passes_the_pointer_through(self):
        entries = [isa.Pac("ia", 1, 2), isa.Nop()]
        cpus = [_core(cached, entries, [0, DATA + 0x40, 0x99, 0, 0, 0, 0, 0])
                for cached in (True, False)]
        for cpu in cpus:
            cpu.regs.sctlr_el1.en_ia = False
        outcome = _outcome(cpus[0])
        assert outcome == _outcome(cpus[1])
        assert outcome["x"][1] == DATA + 0x40

    def test_apkssel_selects_the_alternate_bank(self, monkeypatch):
        """On a ``pauth-ks`` core, APKSSEL_EL1 = 1 makes the next key
        write and PAC address the alternate bank."""
        new_key = PAuthKey(_KEY_VALUES["ia"][1].lo, 0xBBBB)
        entries = [
            isa.Msr("APKSSEL_EL1", 1), isa.Msr("APIAKeyHi_EL1", 2),
            isa.Pac("ia", 3, 4), isa.Nop(),
        ]
        registers = [0, 1, new_key.hi, DATA + 0x40, 0x55, 0, 0, 0]
        outcome, calls = _run_compiled(
            monkeypatch, entries, registers,
            features=frozenset({"pauth", "pauth-ks"}), warm=[new_key],
        )
        assert calls == ["write_sysreg_checked"]  # APKSSEL_EL1
        primary, banked = outcome["keys"]
        assert primary[0] == _KEY_VALUES["ia"][0].as_pair()
        assert banked[0] == new_key.as_pair()
        assert outcome["x"][3] == PACEngine().add_pac(DATA + 0x40, 0x55, new_key)

    def test_a_pac_on_a_v8_0_core_is_undefined_mid_block(self, monkeypatch):
        entries = [isa.Movz(1, 5, 0), isa.Pac("ia", 2, 3), isa.Nop()]
        outcome, _ = _run_compiled(
            monkeypatch, entries, [0] * 8, features=frozenset()
        )
        assert outcome["fault"][0] == "UndefinedInstructionFault"
        assert (outcome["pc"], outcome["cycles"], outcome["retired"]) == (
            START + 4, 1 + isa.PAUTH_CYCLES, 1
        )

    def test_key_setter_and_signed_return_run_whole(self):
        """The key setter (MOVZ/MOVK, key MSRs, RET) and the traces
        holding a signed function's epilogue (AUTIB, RET) compile with
        no call left."""
        system = build_lmbench_system("full")
        system.map_user_stack()
        syscall_cycles(system, "stat", 3)
        blocks = system.cpu._decode_cache
        setter = blocks[(system.key_setter_address, 1)][4]
        epilogues = [
            trace for trace in (block[4] for block in blocks.values())
            if trace is not None
            and {isa.Aut, isa.Ret} <= {type(run.__self__) for run in trace[1]}
        ]
        assert setter is not None and epilogues
        for trace in (setter, *epilogues):
            assert "executes[" not in _source(trace)


# -- chained traces -------------------------------------------------------------

#: User code pages A and B, a user data page and a kernel page whose
#: SVC handler (from EL0) adds 1 to X5 and returns.
CHAIN_A = 0x0000_0000_0040_0000
CHAIN_B = CHAIN_A + 0x1000
CHAIN_DATA = CHAIN_A + 0x2000
VECTORS = 0xFFFF_0000_0E00_0000
#: Frames: A, B, data, the vectors and the one a remap moves B onto.
_CHAIN_FRAMES = (0x710, 0x711, 0x713, 0x714, 0x712)
#: X10-X15 hold the blocks' addresses (BR/BLR targets), X19 a counter
#: SUBS counts down, X20 the data page; X21 and X23 pages B and A, into
#: which a store writes the patch word X22.
_CHAIN_REG = st.integers(0, 5)
_CHAIN_ENTRY = st.one_of(
    st.builds(isa.Movz, _CHAIN_REG, st.integers(0, 0xFFFF), st.just(0)),
    st.builds(isa.AddImm, _CHAIN_REG, _CHAIN_REG, st.integers(0, 0x40)),
    st.builds(isa.EorReg, _CHAIN_REG, _CHAIN_REG, _CHAIN_REG),
    st.just(isa.SubsImm(19, 19, 1)),
    *(
        st.builds(
            cls, _CHAIN_REG, st.just(20),
            st.integers(0, 15).map(lambda slot: 8 * slot),
        )
        for cls in (isa.Ldr, isa.Str)
    ),
)
#: A store over code: a later entry of the program in page A or B.
_CODE_STORE = st.builds(
    isa.Str, st.just(_PATCH_REG), st.sampled_from((21, 23)),
    st.integers(0x40, 0x60).map(lambda words: 4 * words),
)
#: What closes a block: a branch ``j`` blocks on, wrapping around (BR
#: and BLR through X10 plus the block's index), RET, an SVC round trip
#: or HLT.  A HLT also closes each page's run.
_CHAIN_ENDER = st.one_of(
    st.tuples(
        st.sampled_from(("b", "bl", "br", "blr", "b.ne", "b.eq", "cbz", "cbnz")),
        st.integers(0, 5),
    ),
    st.tuples(st.sampled_from(("ret", "ret", "svc", "svc", "hlt")), st.just(0)),
)
#: Blocks: in page B or not, their entries, their ender.
_CHAIN_BLOCKS = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(st.one_of(*[_CHAIN_ENTRY] * 19, _CODE_STORE), max_size=4),
        _CHAIN_ENDER,
    ),
    min_size=2, max_size=6,
)


def _chain_program(blocks):
    """The blocks' addresses, laid out back to back from offset 0x100 of
    their page, each page's run closed by a HLT; and the ``(pc,
    instruction)`` words.  A BL returns to, and a B.cond or CBZ not
    taken falls into, the next block of the same page."""
    starts, ends = [], {False: CHAIN_A + 0x100, True: CHAIN_B + 0x100}
    for in_b, entries, _ in blocks:
        starts.append(ends[in_b])
        ends[in_b] += 4 * (len(entries) + 1)
    words = [(end, isa.Hlt()) for end in ends.values()]
    for index, (start, (_, entries, (kind, j))) in enumerate(zip(starts, blocks)):
        j = (index + 1 + j) % len(starts)
        target = starts[j]
        ender = {
            "b": lambda: isa.B(target=target),
            "bl": lambda: isa.Bl(target=target),
            "br": lambda: isa.Br(10 + j),
            "blr": lambda: isa.Blr(10 + j),
            "b.ne": lambda: isa.BCond("ne", target=target),
            "b.eq": lambda: isa.BCond("eq", target=target),
            "cbz": lambda: isa.Cbz(19, target=target),
            "cbnz": lambda: isa.Cbnz(19, target=target),
            "ret": isa.Ret,
            "svc": lambda: isa.Svc(0),
            "hlt": isa.Hlt,
        }[kind]()
        words += [(start + 4 * n, entry) for n, entry in enumerate([*entries, ender])]
    return starts, words


def _chain_core(cached, blocks, counter):
    """A core at EL0 at the first block of ``blocks``, with page B's code
    also stored, each ADD immediate one higher, in the frame a remap
    moves B onto; LR holds the first block's address."""
    with _caches(cached):
        cpu = CPU()
    mmu = cpu.mmu
    mmu.map_range(CHAIN_A, 0x2000, 0x710, Permissions(*[True] * 6))
    mmu.map_range(CHAIN_DATA, 0x1000, 0x713, Permissions.user_data())
    mmu.map_range(VECTORS, 0x1000, 0x714, Permissions(r_el1=True, x_el1=True))
    starts, words = _chain_program(blocks)
    for pc, instruction in words:
        mmu.phys.store_instruction(mmu.translate(pc, "x", 0), instruction, pc)
        if pc >= CHAIN_B:
            if isinstance(instruction, isa.AddImm):
                instruction = isa.AddImm(
                    instruction.rd, instruction.rn, instruction.imm + 1
                )
            mmu.phys.store_instruction((0x712 << 12) + (pc & 0xFFF), instruction, pc)
    for offset, instruction in ((0x400, isa.AddImm(5, 5, 1)), (0x404, isa.Eret())):
        mmu.phys.store_instruction(
            (0x714 << 12) + offset, instruction, VECTORS + offset
        )
    regs = cpu.regs
    regs.write_sysreg("VBAR_EL1", VECTORS)
    for index, start in enumerate(starts):
        regs.write(10 + index, start)
    regs.write(19, counter)
    regs.write(20, CHAIN_DATA)
    regs.write(21, CHAIN_B)
    regs.write(_PATCH_REG, _PATCH)
    regs.write(23, CHAIN_A)
    regs.write(LR, starts[0])
    _chain_rerun(cpu, starts[0])
    return cpu


def _chain_rerun(cpu, start):
    cpu.halted = False
    cpu.regs.current_el = 0
    cpu.regs.interrupts_masked = False
    cpu.regs.pc = start


def _store_into_b(mmu):
    frame = mmu.frame_of(CHAIN_B)
    if frame is not None:
        mmu.phys.store_instruction((frame << 12) + 0x104, isa.AddImm(3, 3, 9))


#: What changes between two runs: nothing, page B unmapped, remapped
#: onto its other frame, or a word stored into its frame.
_CHAIN_MUTATIONS = {
    "none": lambda mmu: None,
    "unmap": lambda mmu: mmu.address_space.user.unmap_page(
        CHAIN_B >> mmu.page_shift & mmu.vpn_mask
    ),
    "remap": lambda mmu: mmu.map_range(
        CHAIN_B, 0x1000, 0x712, Permissions(*[True] * 6)
    ),
    "store": _store_into_b,
}


def _chain_outcome(cpu):
    return _outcome(cpu, _CHAIN_FRAMES, max_steps=120)


class TestChainedTraces:
    """Multi-block programs across two pages, their traces chained."""

    @settings(max_examples=150, deadline=None)
    @given(
        blocks=_CHAIN_BLOCKS,
        counter=st.integers(1, 4),
        mutations=st.lists(
            st.sampled_from(sorted(_CHAIN_MUTATIONS)), min_size=3, max_size=3
        ),
        hot_runs=st.sampled_from((0, 1, 2)),
    )
    def test_chained_runs_match_the_reference(
        self, blocks, counter, mutations, hot_runs
    ):
        """Branches of every kind leave or stay on their trace, SVC and
        ERET run inside a chain, stores write over later code, and page
        B is unmapped, remapped or written between runs; after every
        run the state matches the cache-free core's."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cpu_module, "HOT_BLOCK_RUNS", hot_runs)
            cores = [_chain_core(cached, blocks, counter) for cached in (True, False)]
            start = cores[0].regs.pc
            for mutation in [*mutations, "none"]:
                outcomes = [_chain_outcome(cpu) for cpu in cores]
                assert outcomes[0] == outcomes[1], mutation
                for cpu in cores:
                    _CHAIN_MUTATIONS[mutation](cpu.mmu)
                    _chain_rerun(cpu, start)

    #: A loop over both pages: A calls a function in B, which returns,
    #: makes an SVC round trip and counts X19 down.
    _LOOP = [
        (False, [isa.AddImm(1, 1, 1)], ("bl", 1)),
        (False, [isa.SubsImm(19, 19, 1)], ("svc", 0)),
        (True, [isa.AddImm(2, 2, 3), isa.EorReg(3, 3, 2)], ("ret", 0)),
        (False, [], ("b.ne", 0)),
    ]

    def _loop(self, monkeypatch, mutate=lambda mmu: None):
        """Run the loop twice (``mutate`` between) on a cached core whose
        blocks head a trace after two runs, and on a cache-free one;
        return the cached core and its chained steps by ``_chain`` call."""
        monkeypatch.setattr(cpu_module, "HOT_BLOCK_RUNS", 2)
        chains = []
        chain = CPU._chain

        def counted(cpu, trace, budget):
            steps, fault = chain(cpu, trace, budget)
            chains.append(steps)
            return steps, fault

        monkeypatch.setattr(CPU, "_chain", counted)
        cores = [_chain_core(cached, self._LOOP, 20) for cached in (True, False)]
        start = cores[0].regs.pc
        for _ in range(2):
            outcomes = [_outcome(cpu, _CHAIN_FRAMES, 400) for cpu in cores]
            assert outcomes[0] == outcomes[1]
            assert outcomes[0]["halted"] and outcomes[0]["x"][19] == 0
            for cpu in cores:
                mutate(cpu.mmu)
                _chain_rerun(cpu, start)
                cpu.regs.write(19, 20)
        return cores[0], chains

    def test_a_hot_loop_chains_across_pages_and_svc(self, monkeypatch):
        """Once hot, the loop's call into page B runs inside the trace
        its head in page A forms, and each pass's SVC round trip runs
        inside the chain: a second run of 20 passes is one chain."""
        cpu, chains = self._loop(monkeypatch)
        head = cpu._decode_cache[(CHAIN_A + 0x100, 0)][4]
        assert {pc >> 12 for pc in head[3]} == {CHAIN_A >> 12, CHAIN_B >> 12}
        assert chains[-1] > 100 and len(chains) < 12

    def test_remapping_a_successor_page_drops_the_head(self, monkeypatch):
        """Remapping page B between runs drops the trace headed in page
        A that runs B's code, so the second run adds B's new immediate."""
        cpu, _ = self._loop(monkeypatch, _CHAIN_MUTATIONS["remap"])
        assert cpu.regs.read(2) == 20 * 3 + 20 * 4

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
from repro.errors import HypervisorTrap, SimFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions
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


def _outcome(cpu):
    try:
        with _caches(cpu._decode_enabled):
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
        "keys": (regs.keys.snapshot(), regs.alt_keys.snapshot()),
        "elr": dict(regs.elr),
        "spsr": dict(regs.spsr),
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
    @given(entries=_BLOCK, registers=_REGISTERS, closer=_CLOSER)
    def test_every_prefix_matches_the_reference(self, entries, registers, closer):
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
                outcome = _outcome(_core(True, prefix, registers, closer))
                # The first block spans the whole prefix, compiled.
                assert len(compiled[0][0]) == length + 1
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


def _source(body):
    """The generated source of a compiled block body."""
    return next(
        source for (_, source), function in isa._CODE.items() if function is body
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
        """The key setter (MOVZ/MOVK, key MSRs, RET) and a signed
        function's epilogue (AUTIB, RET) compile with no call left."""
        system = build_lmbench_system("full")
        system.map_user_stack()
        syscall_cycles(system, "stat", 3)
        blocks = system.cpu._decode_cache
        setter = blocks[(system.key_setter_address, 1)]
        epilogues = [
            block for block in blocks.values()
            if block[4] is not None and isinstance(block[0][-1], isa.Ret)
            and any(isinstance(entry, isa.Aut) for entry in block[0])
        ]
        assert setter[4] is not None and epilogues
        for block in (setter, *epilogues):
            assert "executes[" not in _source(block[4])

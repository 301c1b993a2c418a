"""Tests for the LKM loader: verification, sealing, pointer fixup."""

import pytest

from repro.analysis.verifier import verify_image
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.cfi.instrument import Compiler
from repro.cfi.keys import KeyRole
from repro.elfimage.image import DataSectionBuilder, Image, ImageBuilder
from repro.errors import PermissionFault
from repro.kernel import System
from repro.kernel.module import ModuleRejected
from repro.kernel.workqueue import declare_work

MODULE_BASE = 0xFFFF_0000_0C00_0000


def _benign_module(system, name="testmod", base=MODULE_BASE):
    compiler = Compiler(system.profile)
    asm = Assembler(base)
    compiler.function(
        asm, f"{name}_handler", [isa.Movz(0, 0x99, 0)], leaf=True
    )
    text = asm.assemble()
    builder = ImageBuilder(name, base)
    builder.add_text(".text", text)
    data = DataSectionBuilder(".data")
    entry = declare_work(
        data, system.registry, f"{name}_work",
        text.symbols[f"{name}_handler"],
        key=system.profile.key_for(KeyRole.FORWARD),
    )
    builder.add_data(".data", data, writable=True)
    builder.add_signed_pointer(entry)
    rodata = DataSectionBuilder(".rodata")
    rodata.add_u64(f"{name}_magic", 0x4D4F44)
    builder.add_data(".rodata", rodata, writable=False)
    return builder.build()


def _evil_module(instructions, name="evil", base=MODULE_BASE):
    asm = Assembler(base)
    asm.fn(f"{name}_init")
    asm.emit(*instructions)
    asm.emit(isa.Ret())
    builder = ImageBuilder(name, base)
    builder.add_text(".text", asm.assemble())
    return builder.build()


class TestLoading:
    def test_benign_module_loads(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        assert module.name == "testmod"
        assert module.symbol("testmod_handler")

    def test_module_code_runs(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        result, _ = system.kernel_call(module.symbol("testmod_handler"))
        assert result == 0x99

    def test_static_work_signed_at_load(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        assert len(module.signed_pointers) == 1
        entry, signed = module.signed_pointers[0]
        stored = system.mmu.read_u64(module.symbol("testmod_work"), 1)
        assert stored == signed
        # The stored pointer authenticates under the field modifier.
        from repro.elfimage.ptrtable import field_modifier

        modifier = field_modifier(module.symbol("testmod_work"), entry.constant)
        result = system.cpu.pac.auth_pac(
            stored, modifier, system.kernel_keys.get(entry.key)
        )
        assert result.ok

    def test_static_work_runs_through_run_work(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        result, _ = system.kernel_call(
            "run_work", args=(module.symbol("testmod_work"),)
        )
        assert result == 0x99

    def test_module_rodata_sealed(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        with pytest.raises(PermissionFault):
            system.mmu.write_u64(module.symbol("testmod_magic"), 0, 1)

    def test_module_text_sealed(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        with pytest.raises(PermissionFault):
            system.mmu.write_u64(module.symbol("testmod_handler"), 0, 1)

    def test_module_data_stays_writable(self):
        system = System(profile="full")
        module = system.modules.load(_benign_module(system))
        system.mmu.write_u64(module.symbol("testmod_work") + 8, 5, 1)

    def test_duplicate_module_rejected(self):
        system = System(profile="full")
        system.modules.load(_benign_module(system))
        allocator, phys = system.loader.allocator, system.mmu.phys
        next_frame, host_calls = allocator.allocate(0), list(phys.host_calls)
        base = MODULE_BASE + 0x100000
        with pytest.raises(ModuleRejected, match="already loaded"):
            system.modules.load(_benign_module(system, base=base))
        # Rejected before placement: nothing mapped, allocated or bound.
        assert system.mmu.frame_of(base) is None
        assert allocator.allocate(0) == next_frame
        assert phys.host_calls == host_calls


class TestStaticVerification:
    def test_mrs_key_read_rejected(self):
        system = System(profile="full")
        module = _evil_module([isa.Mrs(0, "APIAKeyHi_EL1")])
        with pytest.raises(ModuleRejected) as info:
            system.modules.load(module)
        assert "APIAKeyHi_EL1" in info.value.report.errors[0].message

    def test_sctlr_write_rejected(self):
        system = System(profile="full")
        module = _evil_module([isa.Msr("SCTLR_EL1", 0)])
        with pytest.raises(ModuleRejected):
            system.modules.load(module)

    def test_key_write_rejected(self):
        system = System(profile="full")
        module = _evil_module([isa.Msr("APIBKeyLo_EL1", 0)])
        with pytest.raises(ModuleRejected):
            system.modules.load(module)

    def test_rejected_module_not_mapped(self):
        from repro.errors import TranslationFault

        system = System(profile="full")
        module = _evil_module([isa.Mrs(0, "APIAKeyHi_EL1")])
        with pytest.raises(ModuleRejected):
            system.modules.load(module)
        with pytest.raises(TranslationFault):
            system.mmu.read_u64(MODULE_BASE, 1)

    def test_benign_mrs_allowed(self):
        system = System(profile="full")
        module = _evil_module([isa.Mrs(0, "CONTEXTIDR_EL1")], name="ok")
        loaded = system.modules.load(module)
        assert loaded.name == "ok"


def _patch_text(image, offset, word):
    """Overwrite one word of a built image's ``.text`` bytes."""
    text = image.section(".text")
    data = bytearray(text.data)
    data[offset:offset + 4] = word
    text.data = bytes(data)
    return text


def _mapped_word(system, address):
    mmu = system.mmu
    pa = mmu.frame_of(address) << mmu.page_shift
    return mmu.phys.read(pa | address & (mmu.page_size - 1), 4)


class TestLoadedBytes:
    """The loader judges the words that it maps."""

    @pytest.mark.parametrize(
        "instruction", [isa.Msr("APIAKeyLo_EL1", 0), isa.Xpac(0)],
        ids=["msr-key", "xpaci"],
    )
    def test_word_written_after_build_rejected(self, instruction):
        from repro.errors import TranslationFault

        system = System(profile="full")
        image = _evil_module([isa.Movz(0, 1, 0)], name="patched")
        text = _patch_text(image, 0, instruction.encoding(MODULE_BASE))
        with pytest.raises(ModuleRejected) as info:
            system.modules.load(image)
        assert info.value.report.errors[0].address == text.base
        with pytest.raises(TranslationFault):
            system.mmu.read_u64(MODULE_BASE, 1)

    def test_undecodable_word_rejected_with_its_offset(self):
        system = System(profile="full")
        image = _evil_module([isa.Movz(0, 1, 0)], name="garbled")
        _patch_text(image, 4, b"\xff\xff\xff\xff")
        with pytest.raises(ModuleRejected, match=r"\.text\+0x4 holds"):
            system.modules.load(image)
        assert "garbled" not in system.modules.modules

    def test_host_call_slot_relocated_past_the_kernel(self):
        system = System(profile="full")
        kernel_slots = len(system.mmu.phys.host_calls)
        assert kernel_slots >= 2
        seen = []
        probe = isa.HostCall(lambda cpu: seen.append(cpu.regs.x[0]), "probe")
        image = _evil_module([isa.Movz(0, 0x42, 0), probe], name="hooked")
        (local,) = image.host_calls
        assert local.slot == 0
        module = system.modules.load(image)
        entry = module.symbol("hooked_init")
        word = int.from_bytes(_mapped_word(system, entry + 4), "little")
        call = isa.decode(word, entry + 4, system.mmu.phys.host_calls)
        assert call.slot == kernel_slots and call.fn is probe.fn
        system.kernel_call(entry)
        assert seen == [0x42]

    def test_host_call_words_written_after_build_are_relocated(self):
        # The slot-0 word moves from +4 to +8 after build(): the loader
        # binds the words it decodes, not the addresses add_text saw.
        system = System(profile="full")
        kernel_slots = len(system.mmu.phys.host_calls)
        seen = []
        probe = isa.HostCall(lambda cpu: seen.append(cpu.regs.x[0]), "probe")
        image = _evil_module(
            [isa.Movz(0, 7, 0), probe, isa.Movz(0, 8, 0)], name="moved"
        )
        text = image.section(".text")
        call_word = text.data[8:12]
        _patch_text(image, 8, text.data[4:8])
        _patch_text(image, 4, call_word)
        module = system.modules.load(image)
        entry = module.symbol("moved_init")
        assert _mapped_word(system, entry + 4) == isa.Movz(0, 8, 0).encoding()
        word = int.from_bytes(_mapped_word(system, entry + 8), "little")
        call = isa.decode(word, entry + 8, system.mmu.phys.host_calls)
        assert call.slot == kernel_slots and call.fn is probe.fn
        system.kernel_call(entry)
        assert seen == [8]

    def test_second_slot_zero_word_runs_the_module_call(self):
        system = System(profile="full")
        seen = []
        probe = isa.HostCall(lambda cpu: seen.append(cpu.regs.x[0]), "probe")
        image = _evil_module(
            [isa.Movz(0, 1, 0), probe, isa.Movz(0, 2, 0), isa.Nop()],
            name="twice",
        )
        text = image.section(".text")
        _patch_text(image, 12, text.data[4:8])
        module = system.modules.load(image)
        calls = [insn for _, insn in image.text_instructions()
                 if isinstance(insn, isa.HostCall)]
        assert [call.fn for call in calls] == [probe.fn, probe.fn]
        system.kernel_call(module.symbol("twice_init"))
        assert seen == [1, 2]

    def test_kernel_text_instructions_are_the_mapped_words(self):
        system = System(profile="full")
        pairs = system.kernel_image.text_instructions()
        assert any(isinstance(insn, isa.HostCall) for _, insn in pairs)
        for address, insn in pairs:
            assert _mapped_word(system, address) == insn.encoding(address)


_GAP_WORDS = [
    pytest.param(isa.Mrs(0, "APIAKeyLo_EL1"), "key-register", id="mrs-key"),
    pytest.param(isa.Msr("APIAKeyLo_EL1", 0), "key-register", id="msr-key"),
    pytest.param(isa.Msr("SCTLR_EL1", 0), "key-register", id="msr-sctlr"),
    pytest.param(isa.Xpac(0), "strip-gadget", id="xpaci"),
]


def _word_before_first_function(word, name="gap"):
    """The word, then the module's first function symbol."""
    asm = Assembler(MODULE_BASE)
    asm.emit(word)
    asm.fn(f"{name}_init")
    asm.emit(isa.Movz(0, 1, 0), isa.Ret())
    builder = ImageBuilder(name, MODULE_BASE)
    builder.add_text(".text", asm.assemble())
    return builder.build(), MODULE_BASE, "?"


def _word_in_unnamed_section(word, name="gap"):
    """A clean ``.text``, then an executable section with no function
    symbol: a label, the word and a RET."""
    builder = ImageBuilder(name, MODULE_BASE)
    asm = Assembler(MODULE_BASE)
    asm.fn(f"{name}_init")
    asm.emit(isa.Movz(0, 1, 0), isa.Ret())
    builder.add_text(".text", asm.assemble())
    extra = Assembler(builder.next_base())
    extra.label(f"{name}_extra")
    extra.emit(word, isa.Ret())
    builder.add_text(".text.extra", extra.assemble())
    image = builder.build()
    return image, image.section(".text.extra").base, f"{name}_extra"


class TestWordsOutsideFunctions:
    """No key read, key write, SCTLR write or strip escapes the verifier
    because it sits outside every function's extent."""

    @pytest.mark.parametrize("word, rule", _GAP_WORDS)
    @pytest.mark.parametrize(
        "place", [_word_before_first_function, _word_in_unnamed_section],
        ids=["before-first-function", "unnamed-section"],
    )
    def test_word_flagged_and_module_rejected(self, word, rule, place):
        image, address, owner = place(word)
        report = verify_image(image, module=True)
        assert [(f.rule, f.function, f.address) for f in report.errors] == [
            (rule, owner, address)
        ], report.summary()
        system = System(profile="full")
        with pytest.raises(ModuleRejected) as info:
            system.modules.load(image)
        assert info.value.report.errors == report.errors
        for section in image.sections.values():
            assert system.mmu.frame_of(section.base) is None


class TestDecodeOnce:
    """Each load decodes an image's text once: the words the verifier
    judges are the words the loader relocates and maps."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        counts = {}
        decode = Image.text_instructions

        def counted(image, section=None):
            key = (image.name, section.name if section else None)
            counts[key] = counts.get(key, 0) + 1
            return decode(image, section)

        monkeypatch.setattr(Image, "text_instructions", counted)
        return counts

    def test_boot_decodes_each_kernel_text_section_once(self, decodes):
        system = System(profile="full")
        text = [
            ("vmlinux", section.name)
            for section in system.kernel_image.sections.values()
            if section.permissions.x_el1
        ]
        assert decodes == dict.fromkeys(text, 1)

    def test_module_load_decodes_its_text_once(self, decodes):
        system = System(profile="full")
        decodes.clear()
        system.modules.load(_benign_module(system))
        assert decodes == {("testmod", ".text"): 1}

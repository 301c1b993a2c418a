"""Tests for the whole-image CFI verifier (repro.analysis.verifier)."""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.isa import SP
from repro.arch.registers import FP, KEY_REGISTER_NAMES, LR
from repro.analysis.cfg import recover_cfg
from repro.analysis.verifier import (
    RESTORE_USER_KEYS_SYMBOL,
    KeyRegisterRule,
    StripGadgetRule,
    verify_image,
)
from repro.cfi.instrument import Compiler, frame_pop, frame_push
from repro.cfi.modifiers import SCHEMES
from repro.cfi.policy import ProtectionProfile, profile_by_name
from repro.kernel import System
from repro.kernel.module import ModuleRejected

BASE = 0x1000
MODULE_BASE = 0xFFFF_0000_0C00_0000


def _profile(scheme="camouflage", compat=False, forward=False):
    return ProtectionProfile(
        name="test", backward_scheme=scheme, forward=forward, compat=compat
    )


def _function(profile, body=(), leaf=False, name="victim"):
    asm = Assembler(BASE)
    Compiler(profile).function(asm, name, list(body), leaf=leaf)
    return asm.assemble()


def _hand_function(instructions, name="victim"):
    asm = Assembler(BASE)
    asm.fn(name)
    asm.emit(*instructions)
    return asm.assemble()


class TestCleanCode:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("compat", [False, True])
    def test_instrumented_function_verifies(self, scheme, compat):
        profile = _profile(scheme, compat)
        report = verify_image(_function(profile), profile=profile)
        assert report.clean, report.summary()

    def test_leaf_function_exempt(self):
        profile = _profile()
        report = verify_image(
            _function(profile, leaf=True), profile=profile
        )
        assert report.clean, report.summary()

    def test_unprotected_profile_skips_pairing(self):
        none = profile_by_name("none")
        # Uninstrumented spill/reload would violate pairing, but the
        # build claims no backward-edge protection.
        program = _hand_function(
            [
                isa.StpPre(FP, LR, SP, -16),
                isa.LdpPost(FP, LR, SP, 16),
                isa.Ret(),
            ]
        )
        report = verify_image(program, profile=none)
        assert "pac-pairing" not in report.rules
        assert report.ok

    def test_reta_accepted_as_sp_only_auth(self):
        profile = _profile("sp-only")
        program = _hand_function(
            [
                isa.PacSp(profile.scheme.key),
                isa.StpPre(FP, LR, SP, -16),
                isa.LdpPost(FP, LR, SP, 16),
                isa.RetA(profile.scheme.key),
            ]
        )
        report = verify_image(program, profile=profile)
        assert report.clean, report.summary()


class TestSeededViolations:
    def _findings(self, program, profile, **kwargs):
        return verify_image(program, profile=profile, **kwargs).findings

    def test_missing_aut_flagged(self):
        profile = _profile()
        scheme, key = profile.scheme, profile.scheme.key
        program = _hand_function(
            frame_push(scheme, key, "victim")
            + [isa.LdpPost(FP, LR, SP, 16), isa.Ret()]
        )
        findings = self._findings(program, profile)
        assert any(
            f.rule == "pac-pairing"
            and f.function == "victim"
            and "missing AUT*" in f.message
            for f in findings
        ), findings

    def test_key_mismatch_flagged(self):
        profile = _profile("camouflage")
        scheme = profile.scheme
        program = _hand_function(
            frame_push(scheme, "ia", "victim")
            + frame_pop(scheme, "ib", "victim")
            + [isa.Ret()]
        )
        findings = self._findings(program, profile)
        assert any("key mismatch" in f.message for f in findings), findings

    def test_scheme_mismatch_flagged(self):
        profile = _profile("camouflage")
        sign_scheme = SCHEMES["camouflage"](key="ib")
        auth_scheme = SCHEMES["parts"](key="ib")
        program = _hand_function(
            frame_push(sign_scheme, "ib", "victim")
            + frame_pop(auth_scheme, "ib", "victim")
            + [isa.Ret()]
        )
        findings = self._findings(program, profile)
        assert any(
            "modifier-scheme mismatch" in f.message for f in findings
        ), findings

    def test_uninstrumented_spill_flagged(self):
        profile = _profile()
        program = _hand_function(
            [
                isa.StpPre(FP, LR, SP, -16),
                isa.LdpPost(FP, LR, SP, 16),
                isa.Ret(),
            ]
        )
        findings = self._findings(program, profile)
        assert any(
            "without ever being signed" in f.message for f in findings
        ), findings

    def test_finding_carries_rule_function_address(self):
        profile = _profile()
        scheme, key = profile.scheme, profile.scheme.key
        program = _hand_function(
            frame_push(scheme, key, "victim")
            + [isa.LdpPost(FP, LR, SP, 16), isa.Ret()]
        )
        finding = self._findings(program, profile)[0]
        assert finding.rule == "pac-pairing"
        assert finding.function == "victim"
        ret_address = program.instructions[-1][0]
        assert finding.address == ret_address
        assert finding.render().startswith("[pac-pairing] victim @")

    def test_naked_blr_flagged(self):
        profile = _profile(forward=True)
        program = _hand_function([isa.Blr(3), isa.Ret()])
        findings = self._findings(program, profile)
        assert any(
            f.rule == "naked-branch" and "blr x3" in f.message
            for f in findings
        ), findings

    def test_authenticated_pointer_branch_ok(self):
        profile = _profile(forward=True)
        program = _hand_function(
            [isa.Aut("ia", 3, 4), isa.Blr(3), isa.Ret()]
        )
        findings = [
            f
            for f in self._findings(program, profile)
            if f.rule == "naked-branch"
        ]
        assert not findings, findings

    def test_sealed_table_walk_ok(self):
        profile = _profile(forward=True)
        table = 0x2000
        program = _hand_function(
            [
                isa.MovImm(3, table),
                isa.Ldr(4, 3, 8),
                isa.Blr(4),
                isa.Ret(),
            ]
        )
        findings = [
            f
            for f in self._findings(
                program, profile, sealed_ranges=((table, table + 0x100),)
            )
            if f.rule == "naked-branch"
        ]
        assert not findings, findings

    def test_signing_oracle_flagged(self):
        profile = _profile()
        program = _hand_function(
            [isa.Ldr(0, 1, 0), isa.Pac("ia", 0, 2), isa.Ret()]
        )
        findings = self._findings(program, profile)
        assert any(
            f.rule == "signing-oracle" and "signing oracle" in f.message
            for f in findings
        ), findings

    def test_pacga_not_an_oracle(self):
        profile = _profile()
        program = _hand_function(
            [isa.Ldr(1, 2, 0), isa.PacGa(0, 1, 3), isa.Ret()]
        )
        findings = [
            f
            for f in self._findings(program, profile)
            if f.rule == "signing-oracle"
        ]
        assert not findings, findings

    def test_module_strip_gadget_flagged(self):
        program = _hand_function([isa.Xpac(5), isa.Ret()])
        report = verify_image(program, profile=_profile(), module=True)
        assert any(f.rule == "strip-gadget" for f in report.findings)
        # The same code is tolerated in the kernel image proper
        # (backtrace printing strips PACs legitimately).
        kernel = verify_image(program, profile=_profile(), module=False)
        assert not any(f.rule == "strip-gadget" for f in kernel.findings)

    def test_sp_only_collision_is_warning(self):
        profile = _profile("sp-only")
        scheme, key = profile.scheme, "ia"
        asm = Assembler(BASE)
        compiler = Compiler(
            ProtectionProfile(name="sp", backward_scheme="sp-only")
        )
        compiler.function(asm, "one", [isa.Movz(0, 1, 0)])
        compiler.function(asm, "two", [isa.Movz(0, 2, 0)])
        report = verify_image(asm.assemble(), profile=profile)
        warnings = [f for f in report.findings if f.severity == "warning"]
        assert any(
            f.rule == "modifier-collision"
            and "mutually substitutable" in f.message
            for f in warnings
        ), report.findings
        assert report.ok  # warnings alone do not fail the image
        assert not report.clean

    def test_camouflage_has_no_collision(self):
        profile = _profile("camouflage")
        asm = Assembler(BASE)
        compiler = Compiler(profile)
        compiler.function(asm, "one", [isa.Movz(0, 1, 0)])
        compiler.function(asm, "two", [isa.Movz(0, 2, 0)])
        report = verify_image(asm.assemble(), profile=profile)
        assert not any(
            f.rule == "modifier-collision" for f in report.findings
        ), report.findings


# The word rules, one case a row: (functions, module, expected), where
# ``functions`` lays out ``(name, words)`` in order, each function ending
# in RET, and ``expected`` lists the ``(rule, function)`` of every
# finding, or is empty for clean code.
_STUB = RESTORE_USER_KEYS_SYMBOL
_KEY_READ = isa.Mrs(3, "APDBKeyHi_EL1")
_KEY_WRITE = isa.Msr("APIBKeyLo_EL1", 1)
_SCTLR_WRITE = isa.Msr("SCTLR_EL1", 0)
_KR, _SG = "key-register", "strip-gadget"

WORD_RULE_TABLE = [
    pytest.param(
        [("victim", [isa.Movz(0, 1, 0), isa.Mrs(0, "CONTEXTIDR_EL1")])],
        False, [], id="clean-code",
    ),
    pytest.param(
        [("victim", [isa.Msr("CONTEXTIDR_EL1", 0)])], True, [],
        id="benign-msr-clean",
    ),
    pytest.param(
        [("victim", [_KEY_READ])], False, [(_KR, "victim")],
        id="key-read-flagged",
    ),
    *[
        pytest.param(
            [("victim", [isa.Mrs(0, name)])], False, [(_KR, "victim")],
            id=f"key-read-{name}",
        )
        for name in KEY_REGISTER_NAMES
    ],
    pytest.param(
        [(_STUB, [_KEY_READ])], False, [(_KR, _STUB)],
        id="key-read-in-restore-stub-flagged",
    ),
    pytest.param(
        [("victim", [_SCTLR_WRITE])], False, [(_KR, "victim")],
        id="sctlr-write-flagged",
    ),
    pytest.param(
        [(_STUB, [_SCTLR_WRITE])], False, [(_KR, _STUB)],
        id="sctlr-write-in-restore-stub-flagged",
    ),
    pytest.param(
        [("victim", [_KEY_WRITE])], False, [(_KR, "victim")],
        id="kernel-key-write-outside-stub-flagged",
    ),
    pytest.param(
        [(_STUB, [_KEY_WRITE, isa.Msr("APIBKeyHi_EL1", 2)])], False, [],
        id="kernel-key-write-in-stub-clean",
    ),
    pytest.param(
        [(_STUB, [_KEY_WRITE]), ("after", [isa.Msr("APIBKeyHi_EL1", 2)])],
        False, [(_KR, "after")],
        id="kernel-key-write-one-word-past-stub-flagged",
    ),
    pytest.param(
        [(_STUB, [_KEY_WRITE])], True, [(_KR, _STUB)],
        id="module-key-write-in-stub-flagged",
    ),
    pytest.param(
        [("cpu_switch_to", [_KEY_WRITE])], True, [(_KR, "cpu_switch_to")],
        id="module-key-write-in-allowed-symbol-flagged",
    ),
    pytest.param(
        [("victim", [isa.Xpac(5), isa.Xpac(7, data=True)])], False, [],
        id="kernel-strip-clean",
    ),
    pytest.param(
        [("victim", [isa.Xpac(5)])], True, [(_SG, "victim")],
        id="module-xpaci-flagged",
    ),
    pytest.param(
        [("victim", [isa.Xpac(7, data=True)])], True, [(_SG, "victim")],
        id="module-xpacd-flagged",
    ),
    pytest.param(
        [(_STUB, [isa.Xpac(5)])], True, [(_SG, _STUB)],
        id="module-strip-in-stub-flagged",
    ),
]


def _laid_out(functions):
    asm = Assembler(BASE)
    for name, words in functions:
        asm.fn(name)
        asm.emit(*words, isa.Ret())
    return asm.assemble()


class TestWordRules:
    """Key reads, SCTLR writes, key writes and strips (§4.1, §6.2.2)."""

    @pytest.mark.parametrize("functions, module, expected", WORD_RULE_TABLE)
    def test_table(self, functions, module, expected):
        program = _laid_out(functions)
        report = verify_image(
            program, module=module, rules=(KeyRegisterRule, StripGadgetRule)
        )
        found = [(f.rule, f.function) for f in report.findings]
        assert found == expected, report.summary()
        words = dict(program.instructions)
        for finding in report.findings:
            assert finding.severity == "error"
            assert words[finding.address].text() in finding.message
        if not expected:
            assert report.summary().endswith("clean")

    def test_summary_lists_each_finding_with_its_register(self):
        program = _laid_out(
            [("victim", [isa.Mrs(0, "APIAKeyLo_EL1"), isa.Xpac(5),
                         _SCTLR_WRITE, _KEY_WRITE])]
        )
        report = verify_image(program, module=True)
        lines = report.summary().splitlines()[1:]
        assert len(lines) == 4, report.summary()
        for line, text in zip(lines, [
            "mrs x0, APIAKeyLo_EL1", "xpaci x5", "msr SCTLR_EL1, x0",
            "msr APIBKeyLo_EL1, x1",
        ]):
            assert text in line
        assert "reads a PAuth key register (R2)" in lines[0]
        assert "could clear the PAuth enable flags (R2)" in lines[2]
        assert f"outside the kernel's {RESTORE_USER_KEYS_SYMBOL}" in lines[3]

    def test_key_rule_runs_under_every_profile(self):
        program = _laid_out([("victim", [_KEY_READ])])
        for name in ("none", "backward", "full"):
            report = verify_image(program, profile=profile_by_name(name))
            assert [f.rule for f in report.errors] == ["key-register"]


class TestKernelImages:
    @pytest.mark.parametrize("name", ["full", "backward", "none"])
    def test_stock_kernel_verifies_clean(self, name):
        system = System(profile=name)
        sealed = system.modules.sealed_ranges(system.kernel_image)
        report = verify_image(
            system.kernel_image,
            profile=system.profile,
            sealed_ranges=sealed,
        )
        assert report.clean, report.summary()

    def test_kernel_sealed_ranges_have_no_duplicate(self):
        """The kernel's read-only sections count once when the kernel
        itself is the image judged."""
        system = System(profile="full")
        sealed = system.modules.sealed_ranges(system.kernel_image)
        assert len(set(sealed)) == len(sealed)
        read_only = [
            section for section in system.kernel_image.sections.values()
            if not section.permissions.w_el1
        ]
        assert len(sealed) == len(read_only) + 1  # + the syscall table

    def test_compat_kernel_verifies_clean(self):
        profile = ProtectionProfile(
            name="compat-full",
            backward_scheme="camouflage",
            forward=True,
            dfi=True,
            compat=True,
        )
        system = System(profile=profile)
        sealed = system.modules.sealed_ranges(system.kernel_image)
        report = verify_image(
            system.kernel_image,
            profile=system.profile,
            sealed_ranges=sealed,
        )
        assert report.clean, report.summary()

    def test_key_rule_judges_every_kernel_text_word(self):
        # The CFG covers 544 of the kernel's 672 text words; the other
        # 128 are the vector table, before the first function of its
        # section.  A key read planted in each of them is flagged, and
        # named after the symbol it follows.
        system = System(profile="full")
        programs = system.kernel_image.text_programs()
        cfg = recover_cfg(programs)
        inside = {
            address
            for fcfg in cfg.functions.values()
            for address, _ in fcfg.instructions()
        }
        assert sum(len(p.instructions) for p in programs) == 672
        assert len(inside) == cfg.instruction_count == 544
        outside = set()
        for program in programs:
            for index, (address, _) in enumerate(program.instructions):
                if address not in inside:
                    outside.add(address)
                    program.instructions[index] = (address, _KEY_READ)
        report = verify_image(programs, rules=(KeyRegisterRule,))
        assert report.instructions == 544
        assert len(outside) == 128
        assert {f.address for f in report.errors} == outside
        assert {f.function for f in report.errors} == {"vectors"}

    def test_report_to_dict_round_trips(self):
        profile = _profile()
        report = verify_image(_function(profile), profile=profile)
        payload = report.to_dict()
        assert payload["ok"] and payload["clean"]
        assert payload["functions"] == 1
        assert "pac-pairing" in payload["rules"]


class TestModuleLoader:
    def _evil(self, instructions, name="evil"):
        from repro.elfimage.image import ImageBuilder

        asm = Assembler(MODULE_BASE)
        asm.fn(f"{name}_init")
        asm.emit(*instructions)
        asm.emit(isa.Ret())
        builder = ImageBuilder(name, MODULE_BASE)
        builder.add_text(".text", asm.assemble())
        return builder.build()

    def test_naked_blr_module_rejected(self):
        system = System(profile="full")
        with pytest.raises(ModuleRejected) as info:
            system.modules.load(self._evil([isa.Blr(3)]))
        assert "failed static verification" in str(info.value)
        assert any(
            f.rule == "naked-branch" for f in info.value.report.findings
        )

    def test_strip_module_rejected(self):
        system = System(profile="full")
        with pytest.raises(ModuleRejected):
            system.modules.load(self._evil([isa.Xpac(5)], name="strip"))

    def test_unpaired_spill_module_rejected(self):
        system = System(profile="full")
        evil = self._evil(
            [
                isa.StpPre(FP, LR, SP, -16),
                isa.LdpPost(FP, LR, SP, 16),
            ],
            name="spill",
        )
        with pytest.raises(ModuleRejected) as info:
            system.modules.load(evil)
        assert any(
            f.rule == "pac-pairing" for f in info.value.report.findings
        )

    def test_rejection_reaches_dmesg(self):
        system = System(profile="full")
        with pytest.raises(ModuleRejected):
            system.modules.load(self._evil([isa.Blr(3)]))
        assert "module-rejected(evil)" in system.faults.dmesg()

    def test_example_driver_module_still_loads(self):
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "driver_module.py"
        )
        spec = importlib.util.spec_from_file_location("driver_module", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        system = System(profile="full")
        loaded = system.modules.load(module.build_driver_module(system))
        assert loaded.name == "mydrv"

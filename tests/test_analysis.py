"""Tests for the static-analysis package (repro.analysis)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    PAPER_MEMBER_COUNT,
    PAPER_MULTI_COUNT,
    PAPER_TYPE_COUNT,
    AccessSite,
    CCompoundType,
    CMember,
    MemberKind,
    SemanticPatch,
    SourceCorpus,
    generate_linux_like_corpus,
    survey_function_pointers,
)
from repro.errors import ReproError


class TestSourceModel:
    def test_runtime_function_pointer_filter(self):
        ctype = CCompoundType(
            "ops",
            [
                CMember("read", MemberKind.FUNCTION_POINTER, True),
                CMember("init", MemberKind.FUNCTION_POINTER, False),
                CMember("next", MemberKind.DATA_POINTER, True),
                CMember("count", MemberKind.SCALAR),
            ],
        )
        assert [m.name for m in ctype.runtime_function_pointers()] == ["read"]

    def test_corpus_rejects_duplicates(self):
        corpus = SourceCorpus()
        corpus.add_type(CCompoundType("t", []))
        with pytest.raises(ReproError):
            corpus.add_type(CCompoundType("t", []))

    def test_site_validation(self):
        corpus = SourceCorpus()
        corpus.add_type(
            CCompoundType("t", [CMember("m", MemberKind.SCALAR)])
        )
        corpus.add_site(AccessSite("f.c", 1, "t", "m", False))
        with pytest.raises(ReproError):
            corpus.add_site(AccessSite("f.c", 2, "ghost", "m", False))
        with pytest.raises(ReproError):
            corpus.add_site(AccessSite("f.c", 3, "t", "ghost", False))


class TestCalibratedCorpus:
    def test_reproduces_paper_numbers(self):
        report = survey_function_pointers(generate_linux_like_corpus())
        assert report.member_count == PAPER_MEMBER_COUNT == 1285
        assert report.type_count == PAPER_TYPE_COUNT == 504
        assert report.multi_member_types == PAPER_MULTI_COUNT == 229
        assert report.single_member_types == 275

    def test_noise_not_counted(self):
        corpus = generate_linux_like_corpus()
        report = survey_function_pointers(corpus)
        # The corpus contains far more types than the survey counts.
        assert corpus.type_count() > report.type_count

    def test_const_ops_excluded(self):
        corpus = generate_linux_like_corpus()
        report = survey_function_pointers(corpus)
        assert not any(
            name.startswith("const_") for name in report.per_type
        )

    def test_by_subsystem_totals(self):
        report = survey_function_pointers(generate_linux_like_corpus())
        assert sum(report.by_subsystem.values()) == report.member_count

    @settings(max_examples=15, deadline=None)
    @given(
        multi=st.integers(min_value=0, max_value=40),
        singles=st.integers(min_value=1, max_value=40),
        extra=st.integers(min_value=0, max_value=60),
    )
    def test_arbitrary_populations(self, multi, singles, extra):
        assume(multi > 0 or extra == 0)  # extras need multi types
        members = singles + 2 * multi + extra
        types = singles + multi
        corpus = generate_linux_like_corpus(
            member_count=members, type_count=types, multi_count=multi
        )
        report = survey_function_pointers(corpus)
        assert report.member_count == members
        assert report.type_count == types
        assert report.multi_member_types == multi

    def test_unrealisable_population_rejected(self):
        with pytest.raises(ValueError):
            generate_linux_like_corpus(
                member_count=10, type_count=8, multi_count=5
            )

    def test_summary_text(self):
        report = survey_function_pointers(generate_linux_like_corpus())
        assert "1285" in report.summary()
        assert "504" in report.summary()


class TestSemanticPatch:
    def test_rewrites_all_protected_sites(self):
        corpus = generate_linux_like_corpus()
        patch = SemanticPatch()
        result = patch.apply(corpus)
        assert result.rewrite_count == 2 * PAPER_MEMBER_COUNT
        assert patch.verify_complete(corpus, result)

    def test_accessor_naming(self):
        assert SemanticPatch.setter_name("file", "f_ops") == "set_file_f_ops"
        assert SemanticPatch.getter_name("file", "f_ops") == "file_f_ops"

    def test_writes_become_setters_reads_getters(self):
        corpus = generate_linux_like_corpus()
        result = SemanticPatch().apply(corpus)
        for rewritten in result.rewritten[:50]:
            if rewritten.site.is_write:
                assert rewritten.replacement.startswith("set_")
            else:
                assert not rewritten.replacement.startswith("set_")

    def test_unprotected_sites_skipped(self):
        corpus = SourceCorpus()
        corpus.add_type(
            CCompoundType(
                "t",
                [
                    CMember("cb", MemberKind.FUNCTION_POINTER, True),
                    CMember("n", MemberKind.SCALAR),
                ],
            )
        )
        corpus.add_site(AccessSite("f.c", 1, "t", "cb", True))
        corpus.add_site(AccessSite("f.c", 2, "t", "n", False))
        result = SemanticPatch().apply(corpus)
        assert result.rewrite_count == 1
        assert result.skipped_sites == 1

    def test_verify_detects_missed_site(self):
        corpus = SourceCorpus()
        corpus.add_type(
            CCompoundType(
                "t", [CMember("cb", MemberKind.FUNCTION_POINTER, True)]
            )
        )
        corpus.add_site(AccessSite("f.c", 1, "t", "cb", True))
        result = SemanticPatch().apply(corpus)
        corpus.add_site(AccessSite("f.c", 9, "t", "cb", False))  # new site
        with pytest.raises(ReproError):
            SemanticPatch().verify_complete(corpus, result)

    def test_custom_protect_predicate(self):
        corpus = generate_linux_like_corpus()
        protect_nothing = SemanticPatch(protect=lambda t, m: False)
        result = protect_nothing.apply(corpus)
        assert result.rewrite_count == 0

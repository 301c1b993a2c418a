"""The Coccinelle-like semantic search (paper Section 5.3).

Searches a :class:`~repro.analysis.csource.SourceCorpus` for function
pointer members assigned at run time, and reproduces the paper's
headline numbers: how many members, in how many compound types, and how
many of those types hold more than one such member (the candidates for
conversion to read-only operations structures — existing kernel best
practice — versus the lone pointers that need direct PAuth
protection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SurveyReport", "survey_function_pointers"]


@dataclass
class SurveyReport:
    """Results of the function-pointer survey."""

    member_count: int = 0
    type_count: int = 0
    multi_member_types: int = 0
    single_member_types: int = 0
    per_type: dict = field(default_factory=dict)
    by_subsystem: dict = field(default_factory=dict)

    def summary(self):
        return (
            f"{self.member_count} function pointer members assigned at "
            f"run-time, residing in {self.type_count} different compound "
            f"types; {self.multi_member_types} types with more than one "
            f"function pointer (convert to read-only ops structures), "
            f"{self.single_member_types} lone pointers (PAuth-protect)"
        )


def survey_function_pointers(corpus):
    """Run the semantic search over a corpus.

    Counts only *run-time assigned* function-pointer members, skipping
    const operations structures (their pointers live in .rodata and are
    already immutable) — the same filter the paper's Coccinelle patch
    applies.
    """
    report = SurveyReport()
    for ctype in corpus.types.values():
        if ctype.is_const_ops:
            continue
        pointers = ctype.runtime_function_pointers()
        if not pointers:
            continue
        report.member_count += len(pointers)
        report.type_count += 1
        report.per_type[ctype.name] = len(pointers)
        report.by_subsystem[ctype.subsystem] = (
            report.by_subsystem.get(ctype.subsystem, 0) + len(pointers)
        )
        if len(pointers) > 1:
            report.multi_member_types += 1
        else:
            report.single_member_types += 1
    return report

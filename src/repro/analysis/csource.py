"""A structural model of C source, sufficient for the paper's survey.

The paper's deployability analysis (Section 5.3) runs a Coccinelle
semantic search over the kernel source for *function pointer members of
compound types that are assigned at run time* — the population that
needs either conversion to const operations structures or PAuth
protection.  We model exactly the facts that search consumes: compound
types, their members (kind, constness, whether any run-time assignment
exists), and the concrete access sites a semantic patch would rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = ["MemberKind", "CMember", "CCompoundType", "AccessSite", "SourceCorpus"]


class MemberKind:
    """Kinds of structure members the survey distinguishes."""

    FUNCTION_POINTER = "fn_ptr"
    DATA_POINTER = "data_ptr"
    SCALAR = "scalar"


@dataclass(frozen=True)
class CMember:
    """One member of a compound type."""

    name: str
    kind: str
    assigned_at_runtime: bool = False

    def is_runtime_function_pointer(self):
        return (
            self.kind == MemberKind.FUNCTION_POINTER
            and self.assigned_at_runtime
        )


@dataclass
class CCompoundType:
    """One struct/union declaration."""

    name: str
    members: list
    is_const_ops: bool = False  # a const operations structure in .rodata
    subsystem: str = "drivers"

    def runtime_function_pointers(self):
        return [m for m in self.members if m.is_runtime_function_pointer()]

    def member(self, name):
        for m in self.members:
            if m.name == name:
                return m
        raise ReproError(f"{self.name}: no member {name!r}")


@dataclass(frozen=True)
class AccessSite:
    """One textual access to a member (what a semantic patch rewrites)."""

    file: str
    line: int
    type_name: str
    member_name: str
    is_write: bool

    def expression(self):
        op = " = <fn>" if self.is_write else ""
        return f"obj->{self.member_name}{op}"


@dataclass
class SourceCorpus:
    """A set of types plus the access sites referring to them."""

    types: dict = field(default_factory=dict)
    sites: list = field(default_factory=list)

    def add_type(self, ctype):
        if ctype.name in self.types:
            raise ReproError(f"duplicate type {ctype.name!r}")
        self.types[ctype.name] = ctype
        return ctype

    def add_site(self, site):
        if site.type_name not in self.types:
            raise ReproError(f"site references unknown type {site.type_name!r}")
        self.types[site.type_name].member(site.member_name)
        self.sites.append(site)
        return site

    def type_count(self):
        return len(self.types)

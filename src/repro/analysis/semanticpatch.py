"""The semantic patch: rewriting member accesses to get/set accessors.

Section 5.3: "we have written a Coccinelle semantic patch that can
semi-automatically adjust the kernel source code whenever a structure
member is used ... we substitute the direct reading and writing of
protected pointers with explicit get and set inline functions".

This engine performs the same transformation over the corpus model:
every access site of a protected member is rewritten —

* writes:  ``obj->member = value``  ->  ``set_<type>_<member>(obj, value)``
* reads:   ``obj->member``          ->  ``<type>_<member>(obj)``

and the result records the generated accessor names so the kernel build
can emit them (via :class:`~repro.cfi.accessors.AccessorGenerator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = ["RewrittenSite", "PatchResult", "SemanticPatch"]


@dataclass(frozen=True)
class RewrittenSite:
    """One rewritten access."""

    site: object
    original: str
    replacement: str
    accessor: str


@dataclass
class PatchResult:
    """Outcome of applying the patch to a corpus."""

    rewritten: list = field(default_factory=list)
    accessors: dict = field(default_factory=dict)  # name -> (type, member, kind)
    skipped_sites: int = 0

    @property
    def rewrite_count(self):
        return len(self.rewritten)

    def summary(self):
        return (
            f"rewrote {self.rewrite_count} access sites, generated "
            f"{len(self.accessors)} accessors, skipped "
            f"{self.skipped_sites} unprotected sites"
        )


class SemanticPatch:
    """Rewrites access sites of protected members.

    Parameters
    ----------
    protect:
        Predicate ``(ctype, member) -> bool`` selecting which members
        are protected.  The default protects exactly the survey's
        population: run-time-assigned function pointer members.
    """

    def __init__(self, protect=None):
        self.protect = protect or (
            lambda ctype, member: member.is_runtime_function_pointer()
        )

    @staticmethod
    def setter_name(type_name, member_name):
        return f"set_{type_name}_{member_name}"

    @staticmethod
    def getter_name(type_name, member_name):
        return f"{type_name}_{member_name}"

    def apply(self, corpus):
        """Rewrite every protected access site in the corpus."""
        result = PatchResult()
        for site in corpus.sites:
            ctype = corpus.types[site.type_name]
            member = ctype.member(site.member_name)
            if not self.protect(ctype, member):
                result.skipped_sites += 1
                continue
            if site.is_write:
                accessor = self.setter_name(ctype.name, member.name)
                replacement = f"{accessor}(obj, <fn>)"
                kind = "setter"
            else:
                accessor = self.getter_name(ctype.name, member.name)
                replacement = f"{accessor}(obj)"
                kind = "getter"
            result.accessors[accessor] = (ctype.name, member.name, kind)
            result.rewritten.append(
                RewrittenSite(
                    site=site,
                    original=site.expression(),
                    replacement=replacement,
                    accessor=accessor,
                )
            )
        return result

    def verify_complete(self, corpus, result):
        """Check every protected member retains no direct access site.

        Raises when a protected member still has an unrewritten site —
        the safety condition before enabling authentication, since any
        direct read of a signed pointer would see the PAC bits.
        """
        rewritten_ids = {id(r.site) for r in result.rewritten}
        for site in corpus.sites:
            ctype = corpus.types[site.type_name]
            member = ctype.member(site.member_name)
            if self.protect(ctype, member) and id(site) not in rewritten_ids:
                raise ReproError(
                    f"unrewritten access to protected member "
                    f"{site.type_name}.{site.member_name} at "
                    f"{site.file}:{site.line}"
                )
        return True

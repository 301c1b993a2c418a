#!/usr/bin/env python3
"""The §5.3 deployability pipeline, end to end.

Replays the paper's engineering story on the simulated stack:

1. **survey** — the Coccinelle-like semantic search over a Linux-5.2-
   calibrated corpus finds 1285 run-time-assigned function-pointer
   members in 504 compound types (229 of which should become const ops
   structures; 275 lone pointers get PAuth protection);
2. **semantic patch** — every access site of a protected member is
   rewritten to get/set form;
3. **codegen** — the get/set accessors are generated for a batch of
   lone-pointer types and linked into a kernel module;
4. **load** — the module passes load-time static verification and its
   read-only sections are sealed;
5. **exercise** — for each generated type, a pointer round-trips
   through the accessors, and an injected raw pointer is caught.
"""

from repro.analysis.codegen import generate_protected_module
from repro.analysis.corpus import generate_linux_like_corpus
from repro.analysis.semanticpatch import SemanticPatch
from repro.analysis.survey import survey_function_pointers
from repro.kernel import System


def main():
    print(__doc__)
    corpus = generate_linux_like_corpus()
    report = survey_function_pointers(corpus)
    print(f"1. survey: {report.summary()}\n")

    patch = SemanticPatch()
    result = patch.apply(corpus)
    patch.verify_complete(corpus, result)
    print(f"2. semantic patch: {result.summary()}\n")

    system = System(profile="full")
    generated = generate_protected_module(system, corpus, max_types=16)
    print(
        f"3. codegen: {generated.accessor_count} accessors for "
        f"{len(generated.ktypes)} lone-pointer types\n"
    )

    module = system.modules.load(generated.image)
    print(f"4. load: module {module.name!r} verified and sealed\n")

    target = system.kernel_symbol("ext4_read")
    checked = caught = 0
    for (type_name, member), (getter, setter) in sorted(
        generated.accessor_map.items()
    ):
        obj = system.heap.allocate(generated.ktypes[type_name])
        system.kernel_call(module.symbol(setter), args=(obj.address, target))
        value, _ = system.kernel_call(module.symbol(getter), args=(obj.address,))
        assert value == target, (type_name, member)
        checked += 1
        # Injection: a raw pointer written behind the accessor's back.
        # The getter's AUTIA poisons it, so the value that reaches any
        # consumer is non-canonical and faults on use.
        obj.raw_write(member, system.kernel_symbol("ext4_write"))
        poisoned, _ = system.kernel_call(
            module.symbol(getter), args=(obj.address,)
        )
        if not system.config.is_canonical(poisoned):
            caught += 1
    print(
        f"5. exercise: {checked} accessor round-trips OK; "
        f"{caught}/{checked} raw-pointer injections poisoned on load"
    )


if __name__ == "__main__":
    main()

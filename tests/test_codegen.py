"""Tests for the survey-to-codegen pipeline (repro.analysis.codegen)."""

import pytest

from repro.analysis.corpus import generate_linux_like_corpus
from repro.analysis.codegen import generate_protected_module
from repro.errors import ReproError
from repro.kernel import System


@pytest.fixture(scope="module")
def pipeline():
    system = System(profile="full")
    corpus = generate_linux_like_corpus()
    generated = generate_protected_module(system, corpus, max_types=12)
    module = system.modules.load(generated.image)
    return system, generated, module


class TestCodegen:
    def test_accessor_count(self, pipeline):
        _, generated, _ = pipeline
        assert len(generated.ktypes) == 12
        assert generated.accessor_count == 24

    def test_accessor_symbols_in_module(self, pipeline):
        _, generated, module = pipeline
        for getter, setter in generated.accessor_map.values():
            assert module.symbol(getter)
            assert module.symbol(setter)

    def test_semantic_patch_naming(self, pipeline):
        _, generated, _ = pipeline
        for (type_name, member), (getter, setter) in (
            generated.accessor_map.items()
        ):
            assert getter == f"{type_name}_{member}"
            assert setter == f"set_{type_name}_{member}"

    def test_roundtrip_through_generated_accessors(self, pipeline):
        system, generated, module = pipeline
        target = system.kernel_symbol("ext4_read")
        (type_name, member), (getter, setter) = next(
            iter(sorted(generated.accessor_map.items()))
        )
        obj = system.heap.allocate(generated.ktypes[type_name])
        system.kernel_call(module.symbol(setter), args=(obj.address, target))
        assert obj.raw_read(member) != target  # signed in memory
        value, _ = system.kernel_call(
            module.symbol(getter), args=(obj.address,)
        )
        assert value == target

    def test_injection_poisoned(self, pipeline):
        system, generated, module = pipeline
        (type_name, member), (getter, _) = next(
            iter(sorted(generated.accessor_map.items()))
        )
        obj = system.heap.allocate(generated.ktypes[type_name])
        obj.raw_write(member, system.kernel_symbol("ext4_write"))
        poisoned, _ = system.kernel_call(
            module.symbol(getter), args=(obj.address,)
        )
        assert not system.config.is_canonical(poisoned)

    def test_distinct_types_distinct_constants(self, pipeline):
        _, generated, _ = pipeline
        constants = set()
        for type_name, ktype in generated.ktypes.items():
            field = ktype.protected_fields()[0]
            assert field.constant not in constants
            constants.add(field.constant)

    def test_cross_type_replay_rejected(self, pipeline):
        # A pointer signed for type A's member fails when moved into an
        # object of type B at a different address (and the constants
        # differ, so even same-address replay would fail).
        system, generated, module = pipeline
        items = sorted(generated.accessor_map.items())
        (type_a, member_a), (_, setter_a) = items[0]
        (type_b, member_b), (getter_b, _) = items[1]
        target = system.kernel_symbol("ext4_read")
        obj_a = system.heap.allocate(generated.ktypes[type_a])
        obj_b = system.heap.allocate(generated.ktypes[type_b])
        system.kernel_call(
            module.symbol(setter_a), args=(obj_a.address, target)
        )
        obj_b.raw_write(member_b, obj_a.raw_read(member_a))
        moved, _ = system.kernel_call(
            module.symbol(getter_b), args=(obj_b.address,)
        )
        assert not system.config.is_canonical(moved)

    def test_empty_corpus_rejected(self):
        from repro.analysis.csource import SourceCorpus

        system = System(profile="full")
        with pytest.raises(ReproError):
            generate_protected_module(system, SourceCorpus())

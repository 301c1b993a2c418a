"""Tests for the PAC engine (repro.arch.pac)."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.pac import PACEngine
from repro.arch.registers import PAuthKey
from repro.arch.vmsa import VMSAConfig

KEY = PAuthKey(lo=0x0123456789ABCDEF, hi=0xFEDCBA9876543210)
OTHER_KEY = PAuthKey(lo=0x1111111111111111, hi=0x2222222222222222)

kernel_pointers = st.integers(
    min_value=0, max_value=(1 << 48) - 1
).map(lambda low: ((1 << 64) - (1 << 48)) | low)
user_pointers = st.integers(min_value=0, max_value=(1 << 48) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@pytest.fixture(scope="module")
def engine():
    return PACEngine(VMSAConfig())


class TestAddAuth:
    @settings(max_examples=50, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_roundtrip_kernel(self, engine, pointer, modifier):
        signed = engine.add_pac(pointer, modifier, KEY)
        result = engine.auth_pac(signed, modifier, KEY)
        assert result.ok
        assert result.pointer == pointer

    @settings(max_examples=50, deadline=None)
    @given(pointer=user_pointers, modifier=u64)
    def test_roundtrip_user(self, engine, pointer, modifier):
        signed = engine.add_pac(pointer, modifier, KEY)
        result = engine.auth_pac(signed, modifier, KEY)
        assert result.ok
        assert result.pointer == pointer

    @settings(max_examples=30, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_signed_pointer_preserves_address(self, engine, pointer, modifier):
        signed = engine.add_pac(pointer, modifier, KEY)
        mask = (1 << 48) - 1
        assert signed & mask == pointer & mask
        assert (signed >> 55) & 1 == 1  # bit 55 preserved

    def test_wrong_modifier_fails(self, engine):
        pointer = 0xFFFF_0000_0001_2340
        signed = engine.add_pac(pointer, 0xAA, KEY)
        result = engine.auth_pac(signed, 0xAB, KEY)
        assert not result.ok

    def test_wrong_key_fails(self, engine):
        pointer = 0xFFFF_0000_0001_2340
        signed = engine.add_pac(pointer, 0xAA, KEY)
        result = engine.auth_pac(signed, 0xAA, OTHER_KEY)
        assert not result.ok

    def test_raw_pointer_fails_auth(self, engine):
        # An attacker-injected unsigned pointer never authenticates
        # (unless its PAC field happens to collide — not for this one).
        pointer = 0xFFFF_0000_0001_2340
        result = engine.auth_pac(pointer, 0xAA, KEY)
        signed = engine.add_pac(pointer, 0xAA, KEY)
        if signed != pointer:
            assert not result.ok

    def test_failed_auth_poisons_pointer(self, engine):
        config = engine.config
        pointer = 0xFFFF_0000_0001_2340
        signed = engine.add_pac(pointer, 0xAA, KEY)
        result = engine.auth_pac(signed, 0xBB, KEY, key_name="ia")
        assert not config.is_canonical(result.pointer)

    def test_poison_error_codes_differ_by_key_class(self, engine):
        pointer = 0xFFFF_0000_0001_2340
        signed = engine.add_pac(pointer, 0xAA, KEY)
        poisoned_i = engine.auth_pac(signed, 0xBB, KEY, key_name="ia").pointer
        poisoned_d = engine.auth_pac(signed, 0xBB, KEY, key_name="db").pointer
        assert poisoned_i != poisoned_d

    @settings(max_examples=30, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_add_pac_deterministic(self, engine, pointer, modifier):
        assert engine.add_pac(pointer, modifier, KEY) == engine.add_pac(
            pointer, modifier, KEY
        )

    def test_signing_already_signed_pointer_poisons(self, engine):
        # AddPAC on a non-canonical input must yield a value that never
        # authenticates (architectural behaviour).
        pointer = 0xFFFF_0000_0001_2340
        signed_once = engine.add_pac(pointer, 0xAA, KEY)
        if signed_once != pointer:  # carries a real PAC
            signed_twice = engine.add_pac(signed_once, 0xAA, KEY)
            result = engine.auth_pac(signed_twice, 0xAA, KEY)
            assert not result.ok


class TestStrip:
    @settings(max_examples=50, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_strip_restores_address(self, engine, pointer, modifier):
        signed = engine.add_pac(pointer, modifier, KEY)
        assert engine.strip(signed) == pointer

    @settings(max_examples=50, deadline=None)
    @given(pointer=user_pointers, modifier=u64)
    def test_strip_user(self, engine, pointer, modifier):
        signed = engine.add_pac(pointer, modifier, KEY)
        assert engine.strip(signed) == pointer


class TestGenericMAC:
    def test_mac_in_top_half(self, engine):
        mac = engine.generic_mac(0x1234, 0x5678, KEY)
        assert mac & 0xFFFFFFFF == 0
        assert mac != 0

    def test_mac_depends_on_value_and_modifier(self, engine):
        a = engine.generic_mac(0x1234, 0x5678, KEY)
        b = engine.generic_mac(0x1235, 0x5678, KEY)
        c = engine.generic_mac(0x1234, 0x5679, KEY)
        assert len({a, b, c}) == 3


class TestPACDistribution:
    def test_pac_values_spread(self, engine):
        # Different modifiers should yield many distinct PAC values.
        pointer = 0xFFFF_0000_0001_2340
        signed = {engine.add_pac(pointer, m, KEY) for m in range(64)}
        assert len(signed) >= 48  # 15-bit PACs: collisions rare at n=64

    def test_cipher_cache_reused(self, engine):
        engine.add_pac(0xFFFF_0000_0000_1000, 1, KEY)
        first = engine._cipher(KEY)
        engine.add_pac(0xFFFF_0000_0000_2000, 2, KEY)
        assert engine._cipher(KEY) is first


MASK64 = (1 << 64) - 1
KEY_NAMES = ("ia", "ib", "da", "db", "ga")
#: Per-key-class poison codes (ia/ib instruction, da/db/ga data).
_ERROR_CODES = {"ia": 0b01, "ib": 0b01, "da": 0b10, "db": 0b10, "ga": 0b11}
ALL_CONFIGS = [
    VMSAConfig(va_bits=va_bits, tbi_user=tbi_user, tbi_kernel=tbi_kernel)
    for va_bits, tbi_user, tbi_kernel in itertools.product(
        range(36, 53), (False, True), (False, True)
    )
]


@functools.lru_cache(maxsize=None)
def _engine_for(config):
    return PACEngine(config)


def oracle_add_pac(engine, pointer, modifier, key):
    """Test-only AddPAC oracle: the PAC field set one bit at a time."""
    config = engine.config
    pointer &= MASK64
    bits = config.pac_field_bits(bool((pointer >> 55) & 1))
    mac = engine.compute_pac(pointer, modifier, key)
    result = config.canonicalize(pointer)
    for index, bit in enumerate(bits):
        result = (result & ~(1 << bit)) | (((mac >> index) & 1) << bit)
    if not config.is_canonical(pointer):
        result ^= 1 << bits[-1]
    return result & MASK64


def oracle_auth_pac(engine, pointer, modifier, key, key_name):
    """Test-only AuthPAC oracle: ``(pointer, ok)``."""
    config = engine.config
    pointer &= MASK64
    canonical = config.canonicalize(pointer)
    if oracle_add_pac(engine, canonical, modifier, key) == pointer:
        return canonical, True
    bits = config.pac_field_bits(bool((pointer >> 55) & 1))
    poisoned = canonical ^ (1 << bits[-1])
    if _ERROR_CODES[key_name] & 0b10:
        poisoned ^= 1 << bits[-2]
    return poisoned, False


def make_pointer(config, raw, kernel, canonical):
    """``raw`` forced into the user or kernel range, canonical or not."""
    pointer = (raw & ~(1 << 55)) | (kernel << 55)
    fixed = config.canonicalize(pointer)
    if canonical:
        return fixed
    # Bit va_bits is always an extension bit below bit 55.
    return fixed ^ (1 << config.va_bits)


def assert_matches_oracle(engine, pointer, modifier, key, key_name):
    signed = engine.add_pac(pointer, modifier, key)
    assert signed == oracle_add_pac(engine, pointer, modifier, key)
    tampered = signed ^ (1 << engine.config.va_bits)
    for candidate in (signed, pointer, tampered):
        result = engine.auth_pac(candidate, modifier, key, key_name=key_name)
        assert (result.pointer, result.ok) == oracle_auth_pac(
            engine, candidate, modifier, key, key_name
        )


class TestInsertOracle:
    """The mask-and-shift PAC insert equals the per-bit oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        va_bits=st.integers(min_value=36, max_value=52),
        tbi_user=st.booleans(),
        tbi_kernel=st.booleans(),
        raw=u64,
        kernel=st.booleans(),
        canonical=st.booleans(),
        modifier=u64,
        key_name=st.sampled_from(KEY_NAMES),
    )
    def test_add_and_auth_match_oracle(
        self, va_bits, tbi_user, tbi_kernel, raw, kernel, canonical,
        modifier, key_name,
    ):
        config = VMSAConfig(
            va_bits=va_bits, tbi_user=tbi_user, tbi_kernel=tbi_kernel
        )
        engine = _engine_for(config)
        pointer = make_pointer(config, raw, kernel, canonical)
        assert config.is_canonical(pointer) == canonical
        assert_matches_oracle(engine, pointer, modifier, KEY, key_name)

    def test_every_config_matches_oracle(self):
        rng = random.Random(20400)
        for config in ALL_CONFIGS:
            engine = _engine_for(config)
            for kernel, canonical in itertools.product((0, 1), repeat=2):
                for _ in range(4):
                    pointer = make_pointer(
                        config, rng.getrandbits(64), kernel, canonical
                    )
                    assert_matches_oracle(
                        engine, pointer, rng.getrandbits(64), OTHER_KEY,
                        rng.choice(KEY_NAMES),
                    )

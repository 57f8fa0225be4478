"""The modulated hash chain: Eq. 1/2, Lemma 1, and the releaf identity."""

import hashlib

import pytest

from repro.core.modulated_chain import (ChainEngine, releaf_modulator,
                                        rewrite_delta, rewrite_modulator,
                                        xor_bytes)


@pytest.fixture
def engine():
    return ChainEngine()


def mods(rng, count, width=20):
    return [rng.bytes(width) for _ in range(count)]


def test_empty_list_returns_padded_key(engine):
    key = b"\x01" * 16
    assert engine.evaluate(key, []) == key + b"\x00" * 4


def test_recursive_definition_eq2(engine, rng):
    """F(K, M^(i)) = H(F(K, M^(i-1)) xor x_i)."""
    key = rng.bytes(16)
    modulators = mods(rng, 6)
    value = engine.pad_key(key)
    for i, modulator in enumerate(modulators, start=1):
        value = engine.h(xor_bytes(value, modulator))
        assert value == engine.evaluate(key, modulators[:i])


def test_prefix_values_match_evaluate(engine, rng):
    key = rng.bytes(16)
    modulators = mods(rng, 8)
    prefixes = engine.prefix_values(key, modulators)
    assert len(prefixes) == 9
    for i, value in enumerate(prefixes):
        assert value == engine.evaluate(key, modulators[:i])


@pytest.mark.parametrize("length", [1, 2, 5, 20])
@pytest.mark.parametrize("index_from_end", [0, 1])
def test_lemma1_single_modulator_rewrite(engine, length, index_from_end, rng):
    """Changing K -> K' plus rewriting one x_i keeps F unchanged (Eq. 4)."""
    if index_from_end >= length:
        pytest.skip("index beyond list")
    old_key, new_key = rng.bytes(16), rng.bytes(16)
    modulators = mods(rng, length)
    index = length - index_from_end  # 1-based

    rewritten = list(modulators)
    rewritten[index - 1] = rewrite_modulator(engine, old_key, new_key,
                                             modulators, index)
    assert engine.evaluate(new_key, rewritten) == \
        engine.evaluate(old_key, modulators)


def test_lemma1_without_rewrite_changes_output(engine, rng):
    old_key, new_key = rng.bytes(16), rng.bytes(16)
    modulators = mods(rng, 4)
    assert engine.evaluate(new_key, modulators) != \
        engine.evaluate(old_key, modulators)


def test_rewrite_delta_is_the_rewrite_mask(engine, rng):
    old_key, new_key = rng.bytes(16), rng.bytes(16)
    modulators = mods(rng, 5)
    index = 3
    delta = rewrite_delta(engine, old_key, new_key, modulators[:index - 1])
    manual = xor_bytes(modulators[index - 1], delta)
    assert manual == rewrite_modulator(engine, old_key, new_key, modulators,
                                       index)


def test_releaf_modulator_identity(engine, rng):
    """H(new_prefix xor x') == H(old_prefix xor x)."""
    old_prefix, new_prefix = rng.bytes(20), rng.bytes(20)
    old_leaf = rng.bytes(20)
    new_leaf = releaf_modulator(new_prefix, old_prefix, old_leaf)
    assert engine.h(xor_bytes(new_prefix, new_leaf)) == \
        engine.h(xor_bytes(old_prefix, old_leaf))


def test_hash_call_counting(engine, rng):
    before = engine.hash_calls
    engine.evaluate(rng.bytes(16), mods(rng, 7))
    assert engine.hash_calls - before == 7


def test_rewrite_modulator_index_bounds(engine, rng):
    modulators = mods(rng, 3)
    for index in (0, 4):
        with pytest.raises(IndexError):
            rewrite_modulator(engine, b"\x00" * 16, b"\x01" * 16, modulators,
                              index)


def test_xor_bytes_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"\x00" * 3, b"\x00" * 4)


def test_pad_key_rejects_oversized(engine):
    with pytest.raises(ValueError):
        engine.pad_key(b"\x00" * 21)


def test_step_many_matches_scalar_steps(engine, rng):
    values = [rng.bytes(20) for _ in range(40)]
    modulators = mods(rng, 40)
    expected = [engine.step(v, x) for v, x in zip(values, modulators)]
    assert engine.step_many(values, modulators) == expected


def test_sha256_engine(rng):
    engine = ChainEngine(hashlib.sha256)
    assert engine.digest_size == 32
    modulators = mods(rng, 3, width=32)
    old_key, new_key = rng.bytes(16), rng.bytes(16)
    rewritten = list(modulators)
    rewritten[1] = rewrite_modulator(engine, old_key, new_key, modulators, 2)
    assert engine.evaluate(new_key, rewritten) == \
        engine.evaluate(old_key, modulators)

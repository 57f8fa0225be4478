"""HMAC-DRBG behaviour: determinism, reseeding, and output structure."""

import hashlib

import pytest

from repro.crypto.drbg import HmacDrbg


def test_deterministic_for_same_seed():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.generate(100) == b.generate(100)
    assert a.generate(33) == b.generate(33)


def test_different_seeds_diverge():
    assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)


def test_personalization_separates_streams():
    a = HmacDrbg(b"seed", personalization=b"x")
    b = HmacDrbg(b"seed", personalization=b"y")
    assert a.generate(32) != b.generate(32)


def test_sequential_generation_differs():
    drbg = HmacDrbg(b"seed")
    assert drbg.generate(32) != drbg.generate(32)


def test_request_sizes():
    drbg = HmacDrbg(b"seed")
    assert drbg.generate(0) == b""
    assert len(drbg.generate(1)) == 1
    assert len(drbg.generate(100)) == 100


def test_generate_rejects_negative():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").generate(-1)


def test_empty_seed_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"")


def test_reseed_changes_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    a.generate(16)
    b.generate(16)
    a.reseed(b"fresh entropy")
    assert a.generate(32) != b.generate(32)


def test_reseed_rejects_empty():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").reseed(b"")


def test_alternative_hash():
    drbg = HmacDrbg(b"seed", hash_factory=hashlib.sha1)
    assert len(drbg.generate(25)) == 25

"""The item codec {m || r, H(m || r)}_k."""

import pytest

from repro.core.ciphertext import ItemCodec
from repro.core.errors import IntegrityError
from repro.core.params import SHA256_PARAMS


@pytest.fixture
def codec(params):
    return ItemCodec(params)


def test_roundtrip(codec, rng):
    key = rng.bytes(20)
    ciphertext = codec.encrypt(key, b"hello world", 42, rng.bytes(8))
    message, item_id = codec.decrypt(key, ciphertext)
    assert message == b"hello world"
    assert item_id == 42


@pytest.mark.parametrize("size", [0, 1, 100, 4096])
def test_sizes(codec, rng, size):
    key = rng.bytes(20)
    data = rng.bytes(size)
    ciphertext = codec.encrypt(key, data, 7, rng.bytes(8))
    assert len(ciphertext) == size + codec.overhead()
    assert codec.decrypt(key, ciphertext) == (data, 7)


def test_wrong_key_rejected(codec, rng):
    ciphertext = codec.encrypt(rng.bytes(20), b"secret", 1, rng.bytes(8))
    with pytest.raises(IntegrityError):
        codec.decrypt(rng.bytes(20), ciphertext)


def test_tampering_rejected(codec, rng):
    key = rng.bytes(20)
    ciphertext = bytearray(codec.encrypt(key, b"secret data", 1, rng.bytes(8)))
    for position in (0, 8, len(ciphertext) // 2, len(ciphertext) - 1):
        tampered = bytearray(ciphertext)
        tampered[position] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.decrypt(key, bytes(tampered))


def test_item_id_is_bound_into_plaintext(codec, rng):
    """Swapping ciphertexts between items is detectable via r."""
    key = rng.bytes(20)
    ct1 = codec.encrypt(key, b"data", 1, rng.bytes(8))
    _msg, recovered = codec.decrypt(key, ct1)
    assert recovered == 1


def test_identical_messages_have_unique_ciphertexts(codec, rng):
    """The global counter r makes equal plaintexts distinct (Section IV-B)."""
    key = rng.bytes(20)
    nonce = rng.bytes(8)
    ct1 = codec.encrypt(key, b"same", 1, nonce)
    ct2 = codec.encrypt(key, b"same", 2, nonce)
    assert ct1 != ct2


def test_fresh_nonce_changes_ciphertext(codec, rng):
    key = rng.bytes(20)
    ct1 = codec.encrypt(key, b"same", 1, rng.bytes(8))
    ct2 = codec.encrypt(key, b"same", 1, rng.bytes(8))
    assert ct1 != ct2
    assert codec.decrypt(key, ct1) == codec.decrypt(key, ct2)


def test_truncated_ciphertext_rejected(codec, rng):
    key = rng.bytes(20)
    ciphertext = codec.encrypt(key, b"x", 1, rng.bytes(8))
    with pytest.raises(IntegrityError):
        codec.decrypt(key, ciphertext[:codec.overhead() - 1])


def test_bad_arguments(codec, rng):
    key = rng.bytes(20)
    with pytest.raises(ValueError):
        codec.encrypt(key, b"x", 1, b"short")
    with pytest.raises(ValueError):
        codec.encrypt(key, b"x", -1, rng.bytes(8))


def test_data_key_extraction(codec):
    assert codec.data_key(b"\x01" * 20) == b"\x01" * 16


def test_sha256_codec(rng):
    codec = ItemCodec(SHA256_PARAMS)
    key = rng.bytes(32)
    ciphertext = codec.encrypt(key, b"payload", 3, rng.bytes(8))
    assert codec.overhead() == 8 + 8 + 32
    assert codec.decrypt(key, ciphertext) == (b"payload", 3)


def test_tags_are_compared_in_constant_time(codec, rng, monkeypatch):
    """Every tag check, scalar and batch, goes through
    ``hmac.compare_digest``: one call per decrypted item."""
    import hmac

    calls = []
    compare = hmac.compare_digest

    def counting(a, b):
        calls.append((a, b))
        return compare(a, b)

    monkeypatch.setattr(hmac, "compare_digest", counting)
    keys = [rng.bytes(20) for _ in range(5)]
    ciphertexts = [codec.encrypt(key, b"item-%d" % i, i, rng.bytes(8))
                   for i, key in enumerate(keys)]
    assert codec.decrypt(keys[0], ciphertexts[0]) == (b"item-0", 0)
    assert len(calls) == 1
    del calls[:]
    assert codec.decrypt_many(keys, ciphertexts) == [
        (b"item-%d" % i, i) for i in range(5)]
    assert len(calls) == 5
    del calls[:]
    with pytest.raises(IntegrityError):
        codec.decrypt(rng.bytes(20), ciphertexts[0])
    assert len(calls) == 1


def _sealed_batch(codec, rng, n=7):
    keys = [rng.bytes(20) for _ in range(n)]
    messages = [rng.bytes(size) for size in (0, 1, 64, 100, 4096, 17, 33)[:n]]
    ciphertexts = codec.encrypt_many(keys, messages, list(range(10, 10 + n)),
                                     [rng.bytes(8) for _ in range(n)])
    return keys, messages, ciphertexts


def test_clean_batch_matches_per_item_decrypt(codec, rng):
    keys, messages, ciphertexts = _sealed_batch(codec, rng)
    batch = codec.decrypt_many(keys, ciphertexts)
    assert batch == [codec.decrypt(key, ct)
                     for key, ct in zip(keys, ciphertexts)]
    assert batch == [(m, 10 + i) for i, m in enumerate(messages)]


@pytest.mark.parametrize("victim", [0, 3, 6])
@pytest.mark.parametrize("fault", ["tamper", "wrong-key"])
def test_one_bad_item_fails_the_whole_batch(codec, rng, victim, fault):
    """A tampered ciphertext (first, middle or last position) or one item
    under a wrong key raises and returns nothing for any item."""
    keys, _messages, ciphertexts = _sealed_batch(codec, rng)
    if fault == "tamper":
        tampered = bytearray(ciphertexts[victim])
        tampered[len(tampered) // 2] ^= 0x01
        ciphertexts[victim] = bytes(tampered)
    else:
        keys[victim] = rng.bytes(20)
    results = []
    with pytest.raises(IntegrityError):
        results.append(codec.decrypt_many(keys, ciphertexts))
    assert results == []


def test_empty_batches(codec):
    """A file with no items seals and opens to empty lists."""
    assert codec.encrypt_many([], [], [], []) == []
    assert codec.decrypt_many([], []) == []

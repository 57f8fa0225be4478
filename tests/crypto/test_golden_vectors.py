"""Golden vectors: exact outputs of the scheme's hash-driven derivations.

Every value below was produced by the earlier pure-Python SHA-1 /
SHA-256 / HMAC implementation and is pinned here, so a change of hash
backend must keep the same seed giving the same keys, modulators,
ciphertexts and wire bytes.  Batches hold more than 16 entries so both
the scalar and the batch entry points are pinned.
"""

import hashlib

import pytest

from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.hkdf import hkdf
from repro.crypto.prf import prf, prf_many
from repro.crypto.rng import DeterministicRandom

RNG_256 = (
    "b4954940450a331d3e2359d050df846aaafc3f5123770334c19e2cac0bd3ec90"
    "76b8462421baeb6498264422c3b42254f0ef727e7dc9402e18a3b7bb0f263c6a"
    "176ac378148473e079de31892e13b21ca595401f22f53c58aee98430247960dc"
    "1d5efa4f236a9e47ebde007f1f0c110b860847ae6a86f4c254e1a9fee6cfdda5"
    "e333e8530b17269fc002704ab3313b910c8b8e5e0c569d0791c95760f9bd63f2"
    "cd103b0d4dd4f30901971c5a4abbac4b005a74c5d18aac1cf3b085ce549e3326"
    "7eca766caa82c95aba26052658641d6b8a9497ae1bb44c293ff9ab0ddd76df72"
    "5d1c3c0104d347d020232197838cbe61bd1818e66b32f9512ce7da9bfa79f077"
)

PARAMS = {"paper": PAPER_PARAMS, "sha256": SHA256_PARAMS}

CHAIN_F = {
    "paper": "7da7fce3d06ed2588a86e6e54900685cee7f926a",
    "sha256": "17d576f3001581f247c6bdda8c87ef4d"
              "1478c40bcffa04dafd6057e686f32ce6",
}
STEP_MANY_SHA256 = {
    "paper": "69d9e00f8284f479600f91d3455350e0"
             "9b1e4bdfcad6a48ee357c44b222267fd",
    "sha256": "0c754f4bfe4804209de725e039995c4e"
              "8f5f32981c1d571019f63c5e9ed6aaad",
}
ENCRYPT = {
    "paper": "01020304050607083daba5f189842602dccfbec64411fcf3d430cb7e"
             "3fcb3f718583d5f51b737f5cb59951043b7af87c34d83b74098b89",
    "sha256": "01020304050607083daba5f189842602dccfbec64411fcf3d430cb7e"
              "3fcb3f718583d5e0f86c0bbcdda50f50f8eb674895df237d22ec0a17"
              "b1947c3c9a7024b32d1e85",
}
ENCRYPT_MANY_SHA256 = {
    "paper": "1ba8a49bd9b7613a4fc1954506e8e63d"
             "7ed74b74d1a82f67447b1001664acd8e",
    "sha256": "aaf11cc67b4eb5ad9f376818f1f56959"
              "c53b479cd35d5b5b895ee4adb03b5c1c",
}

MASTER_KEY = bytes(range(16))
NONCE = b"\x01\x02\x03\x04\x05\x06\x07\x08"
PRF_KEY = b"golden-prf-key"


def _pattern(count, width, a, b):
    return [bytes((a * i + b * j) % 256 for j in range(width))
            for i in range(count)]


def test_deterministic_random_stream():
    stream = DeterministicRandom("perfbench:delete-heavy:1").bytes(256)
    assert stream.hex() == RNG_256


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_chain_output_depth_12(name):
    params = PARAMS[name]
    modulators = [bytes((i * 37 + j) % 256 for j in range(params.modulator_size))
                  for i in range(12)]
    engine = ChainEngine(params.chain_hash)
    assert engine.evaluate(MASTER_KEY, modulators).hex() == CHAIN_F[name]
    assert engine.hash_calls == 12


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_step_many_batch(name):
    width = PARAMS[name].modulator_size
    engine = ChainEngine(PARAMS[name].chain_hash)
    values = _pattern(40, width, 1, 1)
    modulators = _pattern(40, width, 3, 5)
    out = engine.step_many(values, modulators)
    assert hashlib.sha256(b"".join(out)).hexdigest() == STEP_MANY_SHA256[name]
    assert out == [engine.step(v, m) for v, m in zip(values, modulators)]
    assert engine.hash_calls == 80


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_item_codec_ciphertexts(name):
    params = PARAMS[name]
    width = params.modulator_size
    codec = ItemCodec(params)
    chain_output = bytes((7 * j) % 256 for j in range(width))
    ciphertext = codec.encrypt(chain_output, b"golden item payload", 42, NONCE)
    assert ciphertext.hex() == ENCRYPT[name]
    assert codec.decrypt(chain_output, ciphertext) == (b"golden item payload", 42)

    outputs = _pattern(24, width, 11, 1)
    messages = [bytes([i]) * (i * 9) for i in range(24)]
    nonces = [i.to_bytes(8, "big") for i in range(24)]
    batch = codec.encrypt_many(outputs, messages, list(range(100, 124)), nonces)
    assert hashlib.sha256(b"".join(batch)).hexdigest() == \
        ENCRYPT_MANY_SHA256[name]
    assert codec.decrypt_many(outputs, batch) == \
        list(zip(messages, range(100, 124)))


def test_prf_and_prf_many():
    assert prf(PRF_KEY, 7).hex() == "f801cacacdcacbda0f2e094eb8583147"
    assert prf(PRF_KEY, 7, length=32).hex() == (
        "f801cacacdcacbda0f2e094eb858314706e5196a6e0ae8766ceff923cf83069c")
    batch = prf_many(PRF_KEY, list(range(40)), length=20)
    assert hashlib.sha256(b"".join(batch)).hexdigest() == (
        "b4ed5e48815cfb8edbf473365bbbb343be70b6b7d5338461c85cdeea4157ea7f")
    assert b"".join(prf_many(PRF_KEY, [0, 1, 2])).hex() == (
        "921122fbbaa6baf64408da1049933b66"
        "9c83b97ce573d7a21e2257f52d7a3e26"
        "adf5d3a5669459a03804c4c5b9999fb5")


def test_hkdf():
    assert hkdf(b"golden-ikm", salt=b"salt", info=b"info",
                length=42).hex() == (
        "226488598427c1882ccc3928191639edec5c35211bb21b6473fd"
        "9c447e478317874f67f17865c8fad1f5")
    assert hkdf(b"golden-ikm", salt=b"salt", info=b"info", length=42,
                hash_factory=hashlib.sha1).hex() == (
        "c8dd8e6ae264e7469934fe76958ce536a0ac7e7dbbe231f5f53e"
        "9f5691c5eefa7e87b32bca1941768db3")

"""Microbenchmarks of the crypto substrate and the key-modulation core.

These are the constants behind every figure: the chain-hash step, the AES
block, bulk CTR throughput, chain evaluation at the paper's depths, and
the item codec at the paper's 4 KB item size.
"""

import hashlib
import time

import pytest

from benchmarks.conftest import save_json
from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine, xor_bytes
from repro.core.params import Params
from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform
from repro.crypto.modes import aes_ctr
from repro.crypto.rng import DeterministicRandom

rng = DeterministicRandom("micro")


@pytest.mark.benchmark(group="micro-hash")
def test_sha1_short_input(benchmark):
    """One chain step hashes a digest-wide value (20 bytes)."""
    data = rng.bytes(20)
    benchmark(lambda: hashlib.sha1(data).digest())


@pytest.mark.benchmark(group="micro-hash")
def test_sha1_item_sized_input(benchmark):
    """The per-item integrity hash covers a 4 KB item."""
    data = rng.bytes(4096)
    benchmark(lambda: hashlib.sha1(data).digest())


@pytest.mark.benchmark(group="micro-aes")
def test_aes_block(benchmark):
    cipher = AES(rng.bytes(16))
    block = rng.bytes(16)
    benchmark(lambda: cipher.encrypt_block(block))


@pytest.mark.benchmark(group="micro-aes")
def test_bulk_ctr_4kb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(4096)
    benchmark(lambda: ctr_transform(key, nonce, data))


@pytest.mark.benchmark(group="micro-aes")
def test_bulk_ctr_1mb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(1 << 20)
    benchmark(lambda: ctr_transform(key, nonce, data))


@pytest.mark.parametrize("depth", [7, 17, 24],
                         ids=["n=10^2", "n=10^5", "n=10^7"])
@pytest.mark.benchmark(group="micro-chain")
def test_chain_evaluation_at_depth(benchmark, depth):
    """F(K, M) over path lengths matching the paper's n grid."""
    engine = ChainEngine()
    key = rng.bytes(16)
    modulators = [rng.bytes(20) for _ in range(depth + 1)]
    benchmark(lambda: engine.evaluate(key, modulators))


@pytest.mark.benchmark(group="micro-codec")
def test_item_encrypt_4kb(benchmark):
    codec = ItemCodec(Params())
    chain_output = rng.bytes(20)
    message = rng.bytes(4096)
    nonce = rng.bytes(8)
    benchmark(lambda: codec.encrypt(chain_output, message, 1, nonce))


@pytest.mark.benchmark(group="micro-codec")
def test_item_decrypt_verify_4kb(benchmark):
    codec = ItemCodec(Params())
    chain_output = rng.bytes(20)
    ciphertext = codec.encrypt(chain_output, rng.bytes(4096), 1, rng.bytes(8))
    benchmark(lambda: codec.decrypt(chain_output, ciphertext))


@pytest.mark.benchmark(group="micro-xor")
def test_xor_digest_pair(benchmark):
    """One chain step XORs two 20-byte digests (the fast path)."""
    a, b = rng.bytes(20), rng.bytes(20)
    benchmark(lambda: xor_bytes(a, b))


@pytest.mark.benchmark(group="micro-xor")
def test_xor_key_with_digest_prefix(benchmark):
    """The chain's first step XORs a 16-byte key (general path)."""
    a, b = rng.bytes(16), rng.bytes(16)
    benchmark(lambda: xor_bytes(a, b))


def _per_call_us(fn, reps=2000):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6


def test_xor_fast_path_is_correct_and_not_slower():
    """The 20-byte fast path must equal the general path bit-for-bit
    and must not regress it (the chain calls this 3n-2 times per
    outsource)."""
    for _ in range(200):
        a, b = rng.bytes(20), rng.bytes(20)
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
    digest = _per_call_us(lambda: xor_bytes(b"\x5a" * 20, b"\xa5" * 20))
    general = _per_call_us(lambda: xor_bytes(b"\x5a" * 16, b"\xa5" * 16))
    # Loose noise ceiling: the fast path must stay in the same league.
    assert digest < 5 * max(general, 0.01)


def test_micro_timing_record():
    """Persist the substrate constants as a machine-readable record."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    digest_a, digest_b = rng.bytes(20), rng.bytes(20)
    short, item = rng.bytes(20), rng.bytes(4096)
    small_payload = rng.bytes(92)
    cipher = AES(key)
    block = rng.bytes(16)
    save_json("micro_primitives", {
        "op": "micro",
        "microseconds": {
            "xor_digest_20b": _per_call_us(
                lambda: xor_bytes(digest_a, digest_b)),
            "sha1_20b": _per_call_us(lambda: hashlib.sha1(short).digest()),
            "sha1_4kb": _per_call_us(lambda: hashlib.sha1(item).digest(),
                                     reps=200),
            "aes_block": _per_call_us(lambda: cipher.encrypt_block(block)),
            "ctr_small_92b": _per_call_us(
                lambda: aes_ctr(key, nonce, small_payload)),
            "ctr_bulk_4kb": _per_call_us(
                lambda: ctr_transform(key, nonce, item), reps=200),
        },
    })

"""Microbenchmarks of the crypto substrate and the key-modulation core.

These are the constants behind every figure: the chain-hash step, the AES
block, OpenSSL CTR per item and per batch, chain evaluation at the paper's depths, the
item codec at the paper's 4 KB item size, and the list-at-a-time steps
of a whole-file fetch (``step_many``, ``Reader.modulator_list``, the
``Writer`` list encoders and a whole ``FetchFileReply`` encode).
"""

import hashlib
import os
import platform
import time

import pytest

from benchmarks.conftest import save_json
from repro.core.ciphertext import ItemCodec
from repro.core.modulated_chain import ChainEngine, xor_bytes
from repro.core.params import Params
from repro.crypto.aes import AES
from repro.crypto.modes import aes_ctr, aes_ctr_many
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.wire import Reader, WireContext, Writer

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
def test_ctr_4kb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(4096)
    benchmark(lambda: aes_ctr(key, nonce, data))


@pytest.mark.benchmark(group="micro-aes")
def test_ctr_1mb(benchmark):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(1 << 20)
    benchmark(lambda: aes_ctr(key, nonce, data))


@pytest.mark.benchmark(group="micro-aes")
def test_ctr_many_1024_x_92b(benchmark):
    """A whole-file batch: 1024 items, each under its own key."""
    keys = [rng.bytes(16) for _ in range(1024)]
    nonces = [rng.bytes(8) for _ in range(1024)]
    datas = [rng.bytes(92) for _ in range(1024)]
    benchmark(lambda: aes_ctr_many(keys, nonces, datas))


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


#: Timed runs per recorded figure: a record keeps the fastest run's mean,
#: since one run's mean moves by tens of percent between processes.
BEST_OF = 5


def _per_call_us(fn, reps=2000):
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e6


def _best_us(fn, reps=2000):
    """Microseconds per call: the lowest mean of :data:`BEST_OF` runs."""
    return min(_per_call_us(fn, reps) for _ in range(BEST_OF))


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


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def test_micro_timing_record():
    """Persist the substrate constants as a machine-readable record.

    Each figure is the best of :data:`BEST_OF` timed runs.
    ``ctr_many_92b_per_item`` is one item's share of a 1024-item
    ``aes_ctr_many`` batch: the per-item key setup every whole-file
    fetch and outsourcing pays."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    digest_a, digest_b = rng.bytes(20), rng.bytes(20)
    short, item = rng.bytes(20), rng.bytes(4096)
    small_payload = rng.bytes(92)
    batch = 1024
    keys = [rng.bytes(16) for _ in range(batch)]
    nonces = [rng.bytes(8) for _ in range(batch)]
    payloads = [rng.bytes(92) for _ in range(batch)]
    cipher = AES(key)
    block = rng.bytes(16)
    save_json("micro_primitives", {
        "op": "micro",
        "best_of": BEST_OF,
        "microseconds": {
            "xor_digest_20b": _best_us(lambda: xor_bytes(digest_a, digest_b)),
            "sha1_20b": _best_us(lambda: hashlib.sha1(short).digest()),
            "sha1_4kb": _best_us(lambda: hashlib.sha1(item).digest(),
                                 reps=200),
            "aes_block": _best_us(lambda: cipher.encrypt_block(block)),
            "ctr_small_92b": _best_us(
                lambda: aes_ctr(key, nonce, small_payload)),
            "ctr_4kb": _best_us(lambda: aes_ctr(key, nonce, item)),
            "ctr_many_92b_per_item": _best_us(
                lambda: aes_ctr_many(keys, nonces, payloads),
                reps=20) / batch,
        },
        "environment": _environment(),
    })


def test_bulk_fetch_timing_record():
    """Record the list-at-a-time steps of a whole-file fetch at n = 8192:
    one level of chain steps and one decoded modulator list, then the
    encode side -- ``Writer.modulator_list``, ``Writer.blob_list`` over
    64-byte ciphertexts and a whole ``FetchFileReply`` -- each checked
    to round-trip before it is timed, and each the best of
    :data:`BEST_OF` timed runs."""
    n = 8192
    engine = ChainEngine()
    values = [rng.bytes(20) for _ in range(n)]
    modulators = [rng.bytes(20) for _ in range(n)]
    ciphertexts = [rng.bytes(64) for _ in range(n)]
    ctx = WireContext(modulator_width=20)
    encoded = Writer(ctx).modulator_list(modulators).getvalue()
    encoded_blobs = Writer(ctx).blob_list(ciphertexts).getvalue()
    reply = msg.FetchFileReply(
        n_leaves=n, item_ids=tuple(range(1, n + 1)),
        links=tuple(rng.bytes(20) for _ in range(2 * n - 2)),
        leaves=tuple(modulators), ciphertexts=tuple(ciphertexts),
        tree_version=1)
    assert engine.step_many(values, modulators) == \
        [engine.step(v, m) for v, m in zip(values, modulators)]
    assert Reader(ctx, encoded).modulator_list() == modulators
    assert Reader(ctx, encoded_blobs).blob_list() == ciphertexts
    assert msg.decode_message(ctx, msg.encode_message(ctx, reply)) == reply
    save_json("micro_bulk_fetch", {
        "op": "micro",
        "n": n,
        "best_of": BEST_OF,
        "microseconds": {
            "step_many": _best_us(
                lambda: engine.step_many(values, modulators), reps=50),
            "modulator_list": _best_us(
                lambda: Reader(ctx, encoded).modulator_list(), reps=50),
            "encode_modulator_list": _best_us(
                lambda: Writer(ctx).modulator_list(modulators).getvalue(),
                reps=50),
            "encode_blob_list": _best_us(
                lambda: Writer(ctx).blob_list(ciphertexts).getvalue(),
                reps=50),
            "encode_fetch_file_reply": _best_us(
                lambda: msg.encode_message(ctx, reply), reps=20),
        },
        "environment": _environment(),
    })

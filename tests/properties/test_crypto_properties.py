"""Property-based tests for the crypto substrate (hypothesis)."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.hmac import hmac_digest
from repro.crypto.modes import aes_ctr, aes_ctr_many, aes_ctr_scalar
from tests.conftest import scaled_examples

keys128 = st.binary(min_size=16, max_size=16)
keys_any = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
nonces = st.binary(min_size=8, max_size=8)
payloads = st.binary(max_size=2048)


@given(st.binary(max_size=4096))
def test_sha1_matches_hashlib(message):
    engine = ChainEngine(PAPER_PARAMS.chain_hash)
    assert engine.h(message) == hashlib.sha1(message).digest()


@given(st.binary(max_size=4096))
def test_sha256_matches_hashlib(message):
    engine = ChainEngine(SHA256_PARAMS.chain_hash)
    assert engine.h(message) == hashlib.sha256(message).digest()


@given(st.binary(min_size=1, max_size=200), st.binary(max_size=1000))
def test_hmac_matches_stdlib(key, message):
    assert hmac_digest(key, message, hashlib.sha1) == \
        stdlib_hmac.new(key, message, hashlib.sha1).digest()


@given(keys128, nonces, payloads)
def test_ctr_is_an_involution(key, nonce, data):
    assert aes_ctr(key, nonce, aes_ctr(key, nonce, data)) == data


@settings(max_examples=scaled_examples(30))
@given(keys_any, nonces, payloads)
def test_bulk_ctr_matches_scalar(key, nonce, data):
    assert aes_ctr_many([key], [nonce], [data]) == \
        [aes_ctr_scalar(key, nonce, data)]


@st.composite
def ctr_batches(draw):
    """Batches that mix 16/24/32-byte keys from item to item, with empty,
    sub-block and multi-block payloads."""
    count = draw(st.integers(1, 40))
    keys = [draw(keys_any) for _ in range(count)]
    sizes = draw(st.lists(st.sampled_from([0, 1, 15, 16, 17, 64, 100, 257]),
                          min_size=count, max_size=count))
    seed = draw(st.binary(min_size=8, max_size=8))
    data = hashlib.shake_256(seed).digest(sum(sizes) + 8 * count)
    nonces = [data[8 * i:8 * i + 8] for i in range(count)]
    offset, datas = 8 * count, []
    for size in sizes:
        datas.append(data[offset:offset + size])
        offset += size
    return keys, nonces, datas


@settings(max_examples=scaled_examples(12), deadline=None)
@given(ctr_batches(), st.integers(0, 2 ** 32))
def test_ctr_many_matches_scalar_reference(batch, initial):
    keys, nonces, datas = batch
    assert aes_ctr_many(keys, nonces, datas, initial_counter=initial) == [
        aes_ctr_scalar(key, nonce, data, initial_counter=initial)
        for key, nonce, data in zip(keys, nonces, datas)]

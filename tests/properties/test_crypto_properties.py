"""Property-based tests for the crypto substrate (hypothesis)."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform_many
from repro.crypto.hmac import hmac_digest
from repro.crypto.modes import (aes_cbc_decrypt, aes_cbc_encrypt, aes_ctr,
                                aes_ctr_many)
from repro.crypto.padding import pad, unpad
from tests.conftest import scaled_examples

keys128 = st.binary(min_size=16, max_size=16)
keys_any = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
nonces = st.binary(min_size=8, max_size=8)
ivs = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
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


@given(keys_any, blocks)
def test_aes_block_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(keys128, nonces, payloads)
def test_ctr_is_an_involution(key, nonce, data):
    assert aes_ctr(key, nonce, aes_ctr(key, nonce, data)) == data


@settings(max_examples=scaled_examples(30))
@given(keys128, nonces, payloads)
def test_bulk_ctr_matches_scalar(key, nonce, data):
    from repro.crypto.modes import aes_ctr_scalar
    assert ctr_transform_many([key], [nonce], [data]) == \
        [aes_ctr_scalar(key, nonce, data)]


@st.composite
def ctr_batches(draw):
    """Batches straddling the bulk cutoff of ``aes_ctr_many``: 127 or 128
    items whose payloads total a mean of 16 or 17 blocks, some empty."""
    count = draw(st.sampled_from([127, 128]))
    mean_blocks = draw(st.sampled_from([16, 17]))
    empty = draw(st.sets(st.integers(0, count - 1), max_size=count // 2))
    live = [i for i in range(count) if i not in empty]
    # Spread count * mean_blocks blocks over the live items, so the mean
    # over all items, empty ones included, is exactly mean_blocks; each
    # payload may end in a partial block.
    sizes = [0] * count
    for j, i in enumerate(live):
        blocks = count * mean_blocks // len(live) + (
            j < count * mean_blocks % len(live))
        sizes[i] = 16 * blocks - draw(st.integers(0, 15))
    seed = draw(st.binary(min_size=8, max_size=8))
    data = hashlib.shake_256(seed).digest(sum(sizes) + 24 * count)
    keys = [data[24 * i:24 * i + 16] for i in range(count)]
    nonces = [data[24 * i + 16:24 * i + 24] for i in range(count)]
    offset, datas = 24 * count, []
    for size in sizes:
        datas.append(data[offset:offset + size])
        offset += size
    return keys, nonces, datas


@settings(max_examples=scaled_examples(12), deadline=None)
@given(ctr_batches(), st.integers(0, 2 ** 32))
def test_ctr_many_matches_per_item_across_bulk_cutoff(batch, initial):
    keys, nonces, datas = batch
    assert aes_ctr_many(keys, nonces, datas, initial_counter=initial) == [
        aes_ctr(key, nonce, data, initial_counter=initial)
        for key, nonce, data in zip(keys, nonces, datas)]


@given(keys128, ivs, payloads)
def test_cbc_roundtrip(key, iv, data):
    assert aes_cbc_decrypt(key, iv, aes_cbc_encrypt(key, iv, data)) == data


@given(st.binary(max_size=500), st.integers(min_value=1, max_value=255))
def test_padding_roundtrip(data, block_size):
    assert unpad(pad(data, block_size), block_size) == data

"""Property-based tests for the crypto substrate (hypothesis)."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform
from repro.crypto.hmac import hmac_digest
from repro.crypto.modes import aes_cbc_decrypt, aes_cbc_encrypt, aes_ctr
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
    assert ctr_transform(key, nonce, data) == aes_ctr_scalar(key, nonce, data)


@given(keys128, ivs, payloads)
def test_cbc_roundtrip(key, iv, data):
    assert aes_cbc_decrypt(key, iv, aes_cbc_encrypt(key, iv, data)) == data


@given(st.binary(max_size=500), st.integers(min_value=1, max_value=255))
def test_padding_roundtrip(data, block_size):
    assert unpad(pad(data, block_size), block_size) == data

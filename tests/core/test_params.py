"""Scheme parameter validation."""

import hashlib

import pytest

from repro.core.params import PAPER_PARAMS, SHA256_PARAMS, Params


def test_paper_defaults():
    assert PAPER_PARAMS.chain_hash is hashlib.sha1
    assert PAPER_PARAMS.modulator_size == 20
    assert PAPER_PARAMS.master_key_size == 16
    assert PAPER_PARAMS.data_key_size == 16
    assert PAPER_PARAMS.enforce_unique_modulators is True


def test_sha256_variant():
    assert SHA256_PARAMS.chain_hash is hashlib.sha256
    assert SHA256_PARAMS.modulator_size == 32


def test_master_key_cannot_exceed_digest():
    with pytest.raises(ValueError):
        Params(master_key_size=21)
    Params(master_key_size=20)  # exactly digest-wide is fine
    with pytest.raises(ValueError):
        Params(master_key_size=0)


def test_data_key_must_be_aes_size():
    with pytest.raises(ValueError):
        Params(data_key_size=17)
    with pytest.raises(ValueError):
        Params(data_key_size=24)  # 24 > SHA-1 digest? no: 24 > 20 -> invalid
    assert Params(chain_hash=hashlib.sha256, data_key_size=32).data_key_size == 32


def test_frozen():
    with pytest.raises(AttributeError):
        PAPER_PARAMS.master_key_size = 32

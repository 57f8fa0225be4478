"""The per-item ciphertext codec: ``{m || r, H(m || r)}_k`` (Section IV-B).

Each data item ``m`` is stored encrypted under its modulated data key
``k = F(K, M_k)``:

* ``r`` is a globally unique value (the client's insertion counter) that
  both makes every plaintext unique and *names* the item -- the client
  checks the recovered ``r`` against the item id it asked for, which is
  what defeats the wrong-leaf substitution attack in Theorem 2, case ii;
* ``H(m || r)`` binds the plaintext for decrypt-verification ("only if the
  decryption is successful ... the client accepts MT(k)"); the tag is
  compared in constant time (:func:`hmac.compare_digest`).

Wire layout (AES-CTR keeps the ciphertext length minimal):

    nonce (8 bytes) || CTR_k( r (8 bytes, big endian) || m || H(m || r) )

A fresh random nonce is drawn for every (re-)encryption, so modification
("re-encrypts it using the same data key", Section IV-E) never reuses a
keystream.  Every item has its own key, so every item pays one AES key
setup; :func:`repro.crypto.modes.aes_ctr_many` keeps that near a
microsecond by re-keying one OpenSSL (>= 3.0) cipher context per item.
"""

from __future__ import annotations

import hmac
import struct

from repro.core.errors import IntegrityError
from repro.core.params import Params
from repro.crypto.modes import aes_ctr, aes_ctr_many

_NONCE_SIZE = 8
_COUNTER_SIZE = 8


class ItemCodec:
    """Encrypts and decrypt-verifies data items under modulated keys."""

    def __init__(self, params: Params) -> None:
        self._params = params
        self._digest_size = params.chain_hash().digest_size

    @property
    def params(self) -> Params:
        return self._params

    def overhead(self) -> int:
        """Ciphertext bytes beyond the plaintext length."""
        return _NONCE_SIZE + _COUNTER_SIZE + self._digest_size

    def data_key(self, chain_output: bytes) -> bytes:
        """Extract the AES key from a chain output (paper: first 128 bits)."""
        return chain_output[:self._params.data_key_size]

    def _item_hash(self, message: bytes, r_bytes: bytes) -> bytes:
        return self._params.chain_hash(message + r_bytes).digest()

    def encrypt(self, chain_output: bytes, message: bytes, item_id: int,
                nonce: bytes) -> bytes:
        """Encrypt ``message`` as item ``item_id`` under a chain output."""
        if len(nonce) != _NONCE_SIZE:
            raise ValueError(f"nonce must be {_NONCE_SIZE} bytes")
        if item_id < 0:
            raise ValueError("item id must be non-negative")
        r_bytes = struct.pack(">Q", item_id)
        payload = r_bytes + message + self._item_hash(message, r_bytes)
        return nonce + aes_ctr(self.data_key(chain_output), nonce, payload)

    def encrypt_many(self, chain_outputs: list[bytes], messages: list[bytes],
                     item_ids: list[int], nonces: list[bytes]) -> list[bytes]:
        """Batch encryption, identical output to per-item :meth:`encrypt`.

        Used by outsourcing and by the master-key baseline's O(n)
        re-encryption; the AES-CTR transforms run through ``aes_ctr_many``,
        one OpenSSL cipher context re-keyed per item.
        """
        if not (len(chain_outputs) == len(messages) == len(item_ids)
                == len(nonces)):
            raise ValueError("batch arguments must have equal lengths")
        r_bytes = [struct.pack(">Q", item_id) for item_id in item_ids]
        tags = self._hash_many([message + r
                                for message, r in zip(messages, r_bytes)])
        for nonce in nonces:
            if len(nonce) != _NONCE_SIZE:
                raise ValueError(f"nonce must be {_NONCE_SIZE} bytes")
        payloads = [r + message + tag
                    for r, message, tag in zip(r_bytes, messages, tags)]
        bodies = aes_ctr_many([self.data_key(co) for co in chain_outputs],
                              nonces, payloads)
        return [nonce + body for nonce, body in zip(nonces, bodies)]

    def decrypt_many(self, chain_outputs: list[bytes],
                     ciphertexts: list[bytes]) -> list[tuple[bytes, int]]:
        """Batch decrypt-verify; raises IntegrityError on the first bad item."""
        if len(chain_outputs) != len(ciphertexts):
            raise ValueError("batch arguments must have equal lengths")
        minimum = _NONCE_SIZE + _COUNTER_SIZE + self._digest_size
        for ciphertext in ciphertexts:
            if len(ciphertext) < minimum:
                raise IntegrityError("ciphertext too short to be well-formed")
        payloads = aes_ctr_many(
            [self.data_key(co) for co in chain_outputs],
            [ct[:_NONCE_SIZE] for ct in ciphertexts],
            [ct[_NONCE_SIZE:] for ct in ciphertexts])
        parts = [(payload[:_COUNTER_SIZE],
                  payload[_COUNTER_SIZE:-self._digest_size],
                  payload[-self._digest_size:])
                 for payload in payloads]
        expected = self._hash_many([message + r for r, message, _tag in parts])
        results = []
        for (r, message, tag), computed in zip(parts, expected):
            if not hmac.compare_digest(computed, tag):
                raise IntegrityError("decrypt-verification failed: wrong key "
                                     "or tampered ciphertext")
            results.append((message, struct.unpack(">Q", r)[0]))
        return results

    def _hash_many(self, inputs: list[bytes]) -> list[bytes]:
        """Item tags ``H(m || r)`` for a batch of ``m || r`` inputs."""
        h = self._params.chain_hash
        return [h(data).digest() for data in inputs]

    def decrypt(self, chain_output: bytes, ciphertext: bytes) -> tuple[bytes, int]:
        """Decrypt and verify; return ``(message, item_id)``.

        Raises :class:`IntegrityError` when the key does not match the
        ciphertext -- the client's accept/reject decision for ``MT(k)``.
        """
        minimum = _NONCE_SIZE + _COUNTER_SIZE + self._digest_size
        if len(ciphertext) < minimum:
            raise IntegrityError("ciphertext too short to be well-formed")
        nonce, body = ciphertext[:_NONCE_SIZE], ciphertext[_NONCE_SIZE:]
        payload = aes_ctr(self.data_key(chain_output), nonce, body)
        r_bytes = payload[:_COUNTER_SIZE]
        message = payload[_COUNTER_SIZE:-self._digest_size]
        tag = payload[-self._digest_size:]
        if not hmac.compare_digest(self._item_hash(message, r_bytes), tag):
            raise IntegrityError("decrypt-verification failed: wrong key or "
                                 "tampered ciphertext")
        return message, struct.unpack(">Q", r_bytes)[0]

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
setup and one tag hash.  Each direction has one code path, a batch (the
one-item calls are one-item batches): one
:func:`repro.crypto.modes.aes_ctr_joined` call re-keys one OpenSSL
(>= 3.0) cipher context per item, and each item's fields are cut
straight out of its one joined output.
"""

from __future__ import annotations

import hmac
import struct

from repro.core.errors import IntegrityError
from repro.core.params import Params
from repro.crypto.modes import aes_ctr_joined

_NONCE_SIZE = 8
_COUNTER_SIZE = 8
_COUNTER = struct.Struct(">Q")


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

    def encrypt(self, chain_output: bytes, message: bytes, item_id: int,
                nonce: bytes) -> bytes:
        """Encrypt ``message`` as item ``item_id`` under a chain output."""
        return self._seal([chain_output], [message], [item_id], [nonce])[0]

    def encrypt_many(self, chain_outputs: list[bytes], messages: list[bytes],
                     item_ids: list[int], nonces: list[bytes]) -> list[bytes]:
        """Encrypt each ``messages[i]`` as item ``item_ids[i]``.

        Every argument is checked before any item is encrypted.  The
        AES-CTR transforms run in one ``aes_ctr_joined`` call (one
        OpenSSL cipher context re-keyed per item) and each ciphertext is
        its nonce followed by its body, cut from the joined output.
        """
        return self._seal(chain_outputs, messages, item_ids, nonces)

    def _seal(self, chain_outputs, messages, item_ids, nonces) -> list[bytes]:
        """The one encryption path.  Both entry points call it, not each
        other, so every codec call enters the public API once, as a
        tracer or profiler counts it."""
        if not (len(chain_outputs) == len(messages) == len(item_ids)
                == len(nonces)):
            raise ValueError("batch arguments must have equal lengths")
        key_size = self._params.data_key_size
        # The plaintexts are an argument temporary, freed as the call
        # returns, so the ciphertexts cut below can reuse their memory:
        # held any longer, a 4 MB batch can grow the heap anew and fault
        # its pages in again.
        joined = memoryview(aes_ctr_joined(
            [output[:key_size] for output in chain_outputs], nonces,
            self._plaintexts(messages, item_ids, nonces)))
        extra = _COUNTER_SIZE + self._digest_size
        ciphertexts, end = [], 0
        for nonce, message in zip(nonces, messages):
            start, end = end, end + len(message) + extra
            ciphertexts.append(nonce + joined[start:end])
        return ciphertexts

    def _plaintexts(self, messages, item_ids, nonces) -> list[bytes]:
        """``r || m || H(m || r)`` for each message and its item id, once
        its nonce and id are checked (before anything is encrypted)."""
        h, pack, plaintexts = self._params.chain_hash, _COUNTER.pack, []
        for message, item_id, nonce in zip(messages, item_ids, nonces):
            if len(nonce) != _NONCE_SIZE:
                raise ValueError(f"nonce must be {_NONCE_SIZE} bytes")
            if item_id < 0:
                raise ValueError("item id must be non-negative")
            r = pack(item_id)
            tag = h(message)
            tag.update(r)
            plaintexts.append(b"".join((r, message, tag.digest())))
        return plaintexts

    def decrypt(self, chain_output: bytes, ciphertext: bytes) -> tuple[bytes, int]:
        """Decrypt and verify; return ``(message, item_id)``.

        Raises :class:`IntegrityError` when the key does not match the
        ciphertext -- the client's accept/reject decision for ``MT(k)``.
        """
        return self._open([chain_output], [ciphertext])[0]

    def decrypt_many(self, chain_outputs: list[bytes],
                     ciphertexts: list[bytes]) -> list[tuple[bytes, int]]:
        """Decrypt-verify a batch; return ``(message, item_id)`` per item.

        One ``aes_ctr_joined`` call decrypts every body; each item's
        ``r``, ``m`` and tag are cut straight out of its joined output,
        and each tag is compared in constant time.  The first item that
        fails raises :class:`IntegrityError` and nothing is returned.
        """
        return self._open(chain_outputs, ciphertexts)

    def _open(self, chain_outputs, ciphertexts) -> list[tuple[bytes, int]]:
        """The one decrypt-verify path, called by both entry points."""
        if len(chain_outputs) != len(ciphertexts):
            raise ValueError("batch arguments must have equal lengths")
        tag_size = self._digest_size
        sizes = [len(ciphertext) - _NONCE_SIZE for ciphertext in ciphertexts]
        shortest = _COUNTER_SIZE + tag_size
        if min(sizes, default=shortest) < shortest:
            raise IntegrityError("ciphertext too short to be well-formed")
        key_size = self._params.data_key_size
        joined = aes_ctr_joined(
            [output[:key_size] for output in chain_outputs],
            [ciphertext[:_NONCE_SIZE] for ciphertext in ciphertexts],
            [ciphertext[_NONCE_SIZE:] for ciphertext in ciphertexts])
        h, compare = self._params.chain_hash, hmac.compare_digest
        messages, counters, end = [], [], 0
        for size in sizes:
            start, end = end, end + size
            tag_at = end - tag_size
            r = joined[start:start + _COUNTER_SIZE]
            message = joined[start + _COUNTER_SIZE:tag_at]
            tag = h(message)
            tag.update(r)
            if not compare(tag.digest(), joined[tag_at:end]):
                raise IntegrityError("decrypt-verification failed: wrong key "
                                     "or tampered ciphertext")
            messages.append(message)
            counters.append(r)
        item_ids = struct.unpack(f">{len(counters)}Q", b"".join(counters))
        return list(zip(messages, item_ids))

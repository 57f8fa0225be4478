"""The pseudo-random function of the master-key baseline.

Section III-A of the paper derives per-item keys as ``k_i = PRF(K, i)``.
We realise PRF as HMAC-SHA1 of the big-endian index under the master key,
truncated to the requested key length -- a standard PRF construction whose
security reduces to HMAC.
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.hmac import HashFactory, hmac_digest


def prf(key: bytes, index: int, *, length: int = 16,
        hash_factory: HashFactory = hashlib.sha1) -> bytes:
    """Return ``length`` bytes of PRF(key, index).

    ``index`` identifies a data item (0-based).  For lengths beyond one
    digest the output is extended counter-mode style, HMAC(key, index || j).
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    if length <= 0:
        raise ValueError("length must be positive")

    digest_size = hash_factory().digest_size
    blocks = [hmac_digest(key, struct.pack(">QI", index, block_index),
                          hash_factory)
              for block_index in range(-(-length // digest_size))]
    return b"".join(blocks)[:length]


def prf_many(key: bytes, indices: list[int], *, length: int = 16,
             hash_factory: HashFactory = hashlib.sha1) -> list[bytes]:
    """Batch PRF evaluation, identical to per-index :func:`prf`.

    Used by the master-key baseline, which derives every item key twice
    per deletion.
    """
    return [prf(key, index, length=length, hash_factory=hash_factory)
            for index in indices]

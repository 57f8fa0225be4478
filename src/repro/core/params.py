"""Scheme parameters shared by client and server.

The paper's concrete instantiation (Section VI-A) is SHA-1 inside the
modulated hash chain, 160-bit modulators (one digest wide), and AES with
128-bit keys taken from the key-modulation output.  All of that is captured
here so the ablation benchmarks can swap the chain hash (and with it the
modulator width) without touching any algorithm code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.hmac import HashFactory


@dataclass(frozen=True)
class Params:
    """Cryptographic parameters of one deployment.

    Attributes:
        chain_hash: :mod:`hashlib` constructor of the hash ``H`` used in
            modulated hash chains.  The modulator width equals this hash's
            digest size, because chain intermediates and modulators are
            XORed together.
        master_key_size: bytes of master key the client stores per file
            (16 in the paper; the key is zero-padded to the digest width
            before entering the chain).
        data_key_size: bytes of AES key taken from the chain output
            (16 = AES-128 in the paper).
        enforce_unique_modulators: whether the server maintains a global
            registry rejecting duplicate modulators (the paper requires
            "all modulators in the tree should have different values"; the
            lazily-seeded benchmark store may turn the registry off since a
            collision of 160-bit random values is a 2^-80 event).
    """

    chain_hash: HashFactory = hashlib.sha1
    master_key_size: int = 16
    data_key_size: int = 16
    enforce_unique_modulators: bool = True

    def __post_init__(self) -> None:
        digest_size = self.chain_hash().digest_size
        if self.master_key_size <= 0 or self.master_key_size > digest_size:
            raise ValueError(
                f"master key size must be in [1, {digest_size}] bytes")
        if self.data_key_size not in (16, 24, 32):
            raise ValueError("data key size must be a valid AES key size")
        if self.data_key_size > digest_size:
            raise ValueError("data key cannot exceed the chain digest size")

    @property
    def modulator_size(self) -> int:
        """Width of every modulator, equal to the chain digest size."""
        return self.chain_hash().digest_size


#: The paper's instantiation: SHA-1 chains, 160-bit modulators, AES-128.
PAPER_PARAMS = Params(chain_hash=hashlib.sha1)

#: Modern instantiation used by the hash-choice ablation.
SHA256_PARAMS = Params(chain_hash=hashlib.sha256)

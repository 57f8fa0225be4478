"""HMAC-DRBG (NIST SP 800-90A) deterministic random bit generator.

The paper's client "randomly picks" master keys and modulators.  For a
faithful deployment those draws come from the operating system; for the
reproduction's experiments they must additionally be *reproducible*, so the
library routes all randomness through :class:`repro.crypto.rng.RandomSource`
whose deterministic implementation is this DRBG.
"""

from __future__ import annotations

import hashlib

from repro.crypto.hmac import HashFactory, hmac_digest

_RESEED_INTERVAL = 1 << 48


class HmacDrbg:
    """HMAC-DRBG instantiated over a configurable hash (default SHA-256)."""

    def __init__(self, seed: bytes, *, personalization: bytes = b"",
                 hash_factory: HashFactory = hashlib.sha256) -> None:
        if not seed:
            raise ValueError("HMAC-DRBG requires non-empty seed material")
        self._hash_factory = hash_factory
        digest_size = hash_factory().digest_size
        self._key = b"\x00" * digest_size
        self._value = b"\x01" * digest_size
        self._reseed_counter = 1
        self._update(seed + personalization)

    def _update(self, provided_data: bytes) -> None:
        """SP 800-90A HMAC_DRBG_Update."""
        self._key = hmac_digest(self._key, self._value + b"\x00" + provided_data,
                                self._hash_factory)
        self._value = hmac_digest(self._key, self._value, self._hash_factory)
        if provided_data:
            self._key = hmac_digest(self._key, self._value + b"\x01" + provided_data,
                                    self._hash_factory)
            self._value = hmac_digest(self._key, self._value, self._hash_factory)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        if not entropy:
            raise ValueError("reseed requires non-empty entropy")
        self._update(entropy)
        self._reseed_counter = 1

    def generate(self, length: int) -> bytes:
        """Return ``length`` pseudo-random bytes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        if self._reseed_counter > _RESEED_INTERVAL:
            raise RuntimeError("HMAC-DRBG reseed required")
        output = bytearray()
        while len(output) < length:
            self._value = hmac_digest(self._key, self._value, self._hash_factory)
            output.extend(self._value)
        self._update(b"")
        self._reseed_counter += 1
        return bytes(output[:length])

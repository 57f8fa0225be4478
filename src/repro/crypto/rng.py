"""Random source abstraction used throughout the library.

Every place the paper says the client "randomly selects" something (master
keys, modulators, the 160-bit replacement link modulator chosen during
balancing) draws from a :class:`RandomSource`.  Two implementations exist:

* :class:`SystemRandom` -- ``os.urandom``, for real deployments.
* :class:`DeterministicRandom` -- HMAC-DRBG seeded explicitly, so that unit
  tests, property tests, and benchmark runs are exactly reproducible.
"""

from __future__ import annotations

import abc
import os

from repro.crypto.drbg import HmacDrbg
from repro.crypto.modes import aes_ctr


class RandomSource(abc.ABC):
    """Source of cryptographic-quality random bytes."""

    @abc.abstractmethod
    def bytes(self, length: int) -> bytes:
        """Return ``length`` random bytes."""

    def uint(self, bits: int) -> int:
        """Return a uniformly random unsigned integer with ``bits`` bits."""
        if bits <= 0 or bits % 8:
            raise ValueError("bits must be a positive multiple of 8")
        return int.from_bytes(self.bytes(bits // 8), "big")

    def below(self, bound: int) -> int:
        """Return a uniformly random integer in ``[0, bound)``.

        Uses rejection sampling so the result is exactly uniform.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        byte_length = (bound.bit_length() + 7) // 8
        limit = (256 ** byte_length // bound) * bound
        while True:
            candidate = int.from_bytes(self.bytes(byte_length), "big")
            if candidate < limit:
                return candidate % bound

    def choice(self, sequence):
        """Return a uniformly random element of a non-empty sequence."""
        if not sequence:
            raise ValueError("cannot choose from an empty sequence")
        return sequence[self.below(len(sequence))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class SystemRandom(RandomSource):
    """Operating-system randomness via ``os.urandom``."""

    def bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError("length must be non-negative")
        return os.urandom(length)


class DeterministicRandom(RandomSource):
    """Reproducible randomness backed by an AES-CTR keystream.

    ``seed`` may be bytes, a string, or an int; identical seeds yield
    identical byte streams across runs and platforms.  The generator is a
    standard CTR_DRBG-style construction: the key and nonce are derived
    from the seed through HMAC-DRBG (SP 800-90A), and output is the
    AES-CTR keystream under that key (:func:`repro.crypto.modes.aes_ctr`
    over zeros, in OpenSSL) -- cryptographically strong and fast enough
    to generate the multi-megabyte workloads the experiments need.
    """

    _CHUNK_BLOCKS = 4096  # 64 KiB of keystream per refill

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        drbg = HmacDrbg(seed, personalization=b"repro.rng")
        self._key = drbg.generate(16)
        self._nonce = drbg.generate(8)
        self._counter = 0
        self._buffer = b""
        self._offset = 0  # bytes of ``_buffer`` already handed out

    def _refill(self, minimum: int) -> None:
        blocks = max(self._CHUNK_BLOCKS, (minimum + 15) // 16)
        self._buffer = self._buffer[self._offset:] + aes_ctr(
            self._key, self._nonce, bytes(16 * blocks),
            initial_counter=self._counter)
        self._offset = 0
        self._counter += blocks

    def bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError("length must be non-negative")
        end = self._offset + length
        if end > len(self._buffer):
            self._refill(end - len(self._buffer))
            end = length
        chunk = self._buffer[self._offset:end]
        self._offset = end
        return chunk

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent child stream labelled ``label``.

        Useful to give client and server distinct but reproducible streams
        from a single experiment seed.
        """
        return DeterministicRandom(self.bytes(32) + label.encode("utf-8"))

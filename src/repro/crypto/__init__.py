"""Cryptographic substrate: stdlib hashing and OpenSSL AES-CTR.

Every hash runs through the standard library's :mod:`hashlib` and
:mod:`hmac`; a *hash factory* is a ``hashlib`` constructor.  The paper's
hash for modulated hash chains is SHA-1 (``hashlib.sha1``: 160-bit digests
and modulators, see :data:`repro.core.params.PAPER_PARAMS`), with SHA-256
as the drop-in alternative of the hash-choice ablation.  On top of that:

* :mod:`repro.crypto.hmac` -- one-shot HMAC (RFC 2104), a stdlib wrapper.
* :mod:`repro.crypto.prf` -- the PRF used by the master-key baseline.
* :mod:`repro.crypto.drbg` -- HMAC-DRBG (NIST SP 800-90A) providing
  deterministic randomness for reproducible experiments.
* :mod:`repro.crypto.modes` -- AES-CTR, the item codec's cipher.  It has
  one kernel: libcrypto's EVP interface (OpenSSL >= 3.0, loaded by its
  soname through :mod:`ctypes`), one cipher context re-keyed per item.
  The library is bound on the first call, so processes which never
  encrypt (the server) do not load it.
* :mod:`repro.crypto.aes` -- the AES block cipher's encryption (FIPS 197),
  built from the specification; it drives the scalar CTR reference the
  OpenSSL kernel is tested against.
* :mod:`repro.crypto.rng` -- random source abstraction (system / seeded).

The AES code is validated against official test vectors in
``tests/crypto``; the hash wrappers keep their FIPS/RFC vectors there as
smoke checks, and ``tests/crypto/test_golden_vectors.py`` pins the exact
outputs of every hash-driven derivation.
"""

from repro.crypto.aes import AES
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hmac import hmac_digest
from repro.crypto.modes import aes_ctr
from repro.crypto.prf import prf, prf_many
from repro.crypto.rng import DeterministicRandom, RandomSource, SystemRandom

__all__ = [
    "AES",
    "DeterministicRandom",
    "HmacDrbg",
    "RandomSource",
    "SystemRandom",
    "aes_ctr",
    "hmac_digest",
    "prf",
    "prf_many",
]

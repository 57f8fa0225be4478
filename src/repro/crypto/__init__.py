"""Cryptographic substrate: stdlib hashing plus an in-repo AES.

Every hash runs through the standard library's :mod:`hashlib` and
:mod:`hmac`; a *hash factory* is a ``hashlib`` constructor.  The paper's
hash for modulated hash chains is SHA-1 (``hashlib.sha1``: 160-bit digests
and modulators, see :data:`repro.core.params.PAPER_PARAMS`), with SHA-256
as the drop-in alternative of the hash-choice ablation.  On top of that:

* :mod:`repro.crypto.hmac` -- one-shot HMAC (RFC 2104), a stdlib wrapper.
* :mod:`repro.crypto.hkdf` -- HKDF (RFC 5869) for key derivation.
* :mod:`repro.crypto.prf` -- the PRF used by the master-key baseline.
* :mod:`repro.crypto.drbg` -- HMAC-DRBG (NIST SP 800-90A) providing
  deterministic randomness for reproducible experiments.
* :mod:`repro.crypto.aes` -- the AES block cipher (FIPS 197), built from
  the specification.
* :mod:`repro.crypto.modes` -- ECB/CBC/CTR modes of operation.
* :mod:`repro.crypto.bulk` -- numpy-vectorised AES-CTR for bulk payloads.
* :mod:`repro.crypto.gcm`, :mod:`repro.crypto.cmac` -- AES-GCM and
  AES-CMAC (unused by the scheme; kept with their test vectors).
* :mod:`repro.crypto.rng` -- random source abstraction (system / seeded).
* :mod:`repro.crypto.ct` -- constant-time comparison helpers.

The AES code is validated against official test vectors in
``tests/crypto``; the hash wrappers keep their FIPS/RFC vectors there as
smoke checks, and ``tests/crypto/test_golden_vectors.py`` pins the exact
outputs of every hash-driven derivation.
"""

from repro.crypto.aes import AES
from repro.crypto.drbg import HmacDrbg
from repro.crypto.gcm import aes_gcm_decrypt, aes_gcm_encrypt
from repro.crypto.hkdf import hkdf
from repro.crypto.hmac import hmac_digest
from repro.crypto.modes import aes_cbc_decrypt, aes_cbc_encrypt, aes_ctr
from repro.crypto.prf import prf, prf_many
from repro.crypto.rng import DeterministicRandom, RandomSource, SystemRandom

__all__ = [
    "AES",
    "DeterministicRandom",
    "HmacDrbg",
    "RandomSource",
    "SystemRandom",
    "aes_cbc_decrypt",
    "aes_cbc_encrypt",
    "aes_ctr",
    "aes_gcm_decrypt",
    "aes_gcm_encrypt",
    "hkdf",
    "hmac_digest",
    "prf",
    "prf_many",
]

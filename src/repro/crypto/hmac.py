"""HMAC (RFC 2104 / FIPS 198-1) through the standard library.

Used by the PRF of the master-key baseline and by the HMAC-DRBG
deterministic random generator that makes experiments reproducible.  A
*hash factory* throughout the library is a :mod:`hashlib` constructor
such as ``hashlib.sha1`` or ``hashlib.sha256``.
"""

from __future__ import annotations

import hmac
from typing import Any, Callable

#: A :mod:`hashlib` constructor: ``factory(data=b"")`` returns a hash object.
HashFactory = Callable[..., Any]


def hmac_digest(key: bytes, message: bytes, hash_factory: HashFactory) -> bytes:
    """One-shot HMAC of ``message`` under ``key``."""
    return hmac.digest(key, message, hash_factory)

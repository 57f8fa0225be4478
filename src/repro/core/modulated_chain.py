"""The modulated hash chain -- Section IV-A of the paper.

A modulated hash chain evaluates

    F(K, M) = H( ... H( H(K xor x1) xor x2 ) ... xor xl )

over an ordered modulator list ``M = <x1, ..., xl>`` (Eq. 1), with the
recursive form ``F(K, empty) = K`` and
``F(K, M^(i)) = H(F(K, M^(i-1)) xor x_i)`` (Eq. 2).

Lemma 1 is the engine of the whole scheme: after the master key changes
from ``K`` to ``K'``, rewriting the single modulator

    x_i' = x_i xor F(K, M^(i-1)) xor F(K', M^(i-1))          (Eq. 3)

leaves the chain output unchanged.  :func:`rewrite_delta` computes the XOR
mask ``F(K, prefix) xor F(K', prefix)`` that the deletion algorithm sends
to the server as ``delta(c)`` (Eq. 5).

The chain hash is pluggable; the master key is zero-padded to the digest
width before the first XOR so a 16-byte AES-width master key (the paper's
Table II stores exactly 16 bytes per file) can drive a 20-byte SHA-1 chain.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.crypto.hmac import HashFactory

_from_bytes = int.from_bytes


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Hot in every chain step (one XOR per hash application), so the
    common case -- two 20-byte SHA-1-width operands -- skips the length
    comparison and the dynamic width lookup; the bound ``int.from_bytes``
    avoids a method-descriptor fetch per call.
    """
    if len(a) == 20 and len(b) == 20:
        return (_from_bytes(a, "big") ^ _from_bytes(b, "big")).to_bytes(20, "big")
    if len(a) != len(b):
        raise ValueError(f"xor operands differ in length: {len(a)} vs {len(b)}")
    return (_from_bytes(a, "big") ^ _from_bytes(b, "big")).to_bytes(len(a), "big")


class ChainEngine:
    """Evaluates modulated hash chains and counts hash invocations.

    The hash-invocation counter backs the computation-overhead metrics of
    Figure 6: wall-clock time carries the interpreter's constant, so the
    experiment harness reports exact hash counts alongside measured time
    (both scale as ``O(log n)``).  ``hash_factory`` is a :mod:`hashlib`
    constructor; every chain step is one call to it.
    """

    __slots__ = ("hash_factory", "digest_size", "hash_calls")

    def __init__(self, hash_factory: HashFactory = hashlib.sha1) -> None:
        self.hash_factory = hash_factory
        self.digest_size = hash_factory().digest_size
        self.hash_calls = 0

    def h(self, data: bytes) -> bytes:
        """One application of the chain hash ``H``."""
        self.hash_calls += 1
        return self.hash_factory(data).digest()

    def pad_key(self, master_key: bytes) -> bytes:
        """Zero-pad a master key to the digest width (``F(K, empty) = K``)."""
        if len(master_key) > self.digest_size:
            raise ValueError("master key longer than chain digest")
        return master_key.ljust(self.digest_size, b"\x00")

    def step(self, value: bytes, modulator: bytes) -> bytes:
        """One chain step: ``H(value xor modulator)`` (Eq. 2)."""
        return self.h(xor_bytes(value, modulator))

    def step_many(self, values: list[bytes],
                  modulators: list[bytes]) -> list[bytes]:
        """Many independent chain steps, identical to per-pair :meth:`step`
        (one hash call counted per pair)."""
        if len(values) != len(modulators):
            raise ValueError("one modulator per value required")
        self.hash_calls += len(values)
        h = self.hash_factory
        return [h(xor_bytes(value, modulator)).digest()
                for value, modulator in zip(values, modulators)]

    def evaluate(self, master_key: bytes, modulators: Iterable[bytes]) -> bytes:
        """Evaluate ``F(K, M)`` over the full modulator list."""
        value = self.pad_key(master_key)
        for modulator in modulators:
            value = self.step(value, modulator)
        return value

    def prefix_values(self, master_key: bytes,
                      modulators: Sequence[bytes]) -> list[bytes]:
        """Return ``[F(K, M^(0)), F(K, M^(1)), ..., F(K, M^(l))]``.

        ``M^(i)`` is the length-``i`` prefix of ``M``; the list has
        ``len(modulators) + 1`` entries and is computed in one pass, which
        is what keeps the deletion algorithm at ``O(log n)`` hashes.
        """
        values = [self.pad_key(master_key)]
        for modulator in modulators:
            values.append(self.step(values[-1], modulator))
        return values


def rewrite_modulator(engine: ChainEngine, old_key: bytes, new_key: bytes,
                      modulators: Sequence[bytes], index: int) -> bytes:
    """Lemma 1: the value ``x_i'`` keeping ``F`` constant across a key change.

    ``index`` is 1-based as in the paper (``x_i`` with ``1 <= i <= l``).
    """
    if not 1 <= index <= len(modulators):
        raise IndexError("modulator index out of range")
    prefix = modulators[:index - 1]
    mask = rewrite_delta(engine, old_key, new_key, prefix)
    return xor_bytes(modulators[index - 1], mask)


def rewrite_delta(engine: ChainEngine, old_key: bytes, new_key: bytes,
                  prefix: Sequence[bytes]) -> bytes:
    """The XOR mask ``F(K, prefix) xor F(K', prefix)`` of Eq. 3 / Eq. 5."""
    return xor_bytes(engine.evaluate(old_key, prefix),
                     engine.evaluate(new_key, prefix))


def releaf_modulator(new_prefix_value: bytes, old_prefix_value: bytes,
                     old_leaf_modulator: bytes) -> bytes:
    """Leaf-modulator reassignment used by balancing and insertion.

    When a leaf moves so that the chain value *before* its leaf modulator
    changes from ``old_prefix_value`` to ``new_prefix_value``, the new leaf
    modulator

        x' = new_prefix xor old_prefix xor x

    preserves the leaf's data key, because
    ``H(new_prefix xor x') = H(old_prefix xor x)``.  Equations (8) and (9)
    of the paper and the leaf reassignment of Section IV-E are all
    instances of this identity.
    """
    return xor_bytes(xor_bytes(new_prefix_value, old_prefix_value),
                     old_leaf_modulator)

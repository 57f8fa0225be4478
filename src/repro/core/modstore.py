"""Modulator storage backends for the modulation tree.

The tree stores two kinds of modulators, both addressed by *heap slot*
(see :mod:`repro.core.tree` for the slot layout):

* the **link modulator** on the link from ``parent(slot)`` down to ``slot``
  (defined for every slot except the root), and
* the **leaf modulator** of a leaf slot.

Two backends implement the same interface:

* :class:`DenseModulatorStore` keeps flat bytearrays -- exact, compact, and
  the default for every functional use.
* :class:`LazySeededStore` derives untouched modulators on demand from a
  seed and keeps only written values in an overlay.  It exists purely so
  the Figure-5/6 benchmarks can stand up 10^7-leaf trees without
  materialising ~600 MB of random bytes; per-operation byte counts and
  client hash counts are identical under both stores (verified by tests),
  because they depend only on tree depth.  DESIGN.md records this as a
  benchmark-scale substitution.
"""

from __future__ import annotations

import abc
import hashlib
import struct

from repro.crypto.rng import RandomSource


class ModulatorStore(abc.ABC):
    """Slot-addressed storage for link and leaf modulators."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("modulator width must be positive")
        self.width = width

    @abc.abstractmethod
    def get_link(self, slot: int) -> bytes:
        """Return the link modulator on the link into ``slot``."""

    @abc.abstractmethod
    def set_link(self, slot: int, value: bytes) -> None:
        """Set the link modulator on the link into ``slot``."""

    @abc.abstractmethod
    def get_leaf(self, slot: int) -> bytes:
        """Return the leaf modulator of leaf ``slot``."""

    @abc.abstractmethod
    def set_leaf(self, slot: int, value: bytes) -> None:
        """Set the leaf modulator of leaf ``slot``."""

    def truncate(self, slot_count: int) -> None:
        """Forget every modulator of slots ``>= slot_count``.

        The tree calls this after a deletion frees its two highest slots.
        A no-op by default: engine-backed and seed-derived stores never
        read a freed slot again and need not reclaim it eagerly.
        """

    def _check(self, value: bytes) -> bytes:
        if len(value) != self.width:
            raise ValueError(
                f"modulator must be {self.width} bytes, got {len(value)}")
        return bytes(value)


class DenseModulatorStore(ModulatorStore):
    """Flat-bytearray store; authoritative for every functional workload."""

    def __init__(self, width: int) -> None:
        super().__init__(width)
        self._links = bytearray()
        self._leaves = bytearray()

    def _ensure(self, buffer: bytearray, slot: int) -> None:
        needed = (slot + 1) * self.width
        if len(buffer) < needed:
            buffer.extend(b"\x00" * (needed - len(buffer)))

    def get_link(self, slot: int) -> bytes:
        start = slot * self.width
        if start + self.width > len(self._links):
            raise KeyError(f"no link modulator stored for slot {slot}")
        return bytes(self._links[start:start + self.width])

    def set_link(self, slot: int, value: bytes) -> None:
        value = self._check(value)
        self._ensure(self._links, slot)
        self._links[slot * self.width:(slot + 1) * self.width] = value

    def get_leaf(self, slot: int) -> bytes:
        start = slot * self.width
        if start + self.width > len(self._leaves):
            raise KeyError(f"no leaf modulator stored for slot {slot}")
        return bytes(self._leaves[start:start + self.width])

    def set_leaf(self, slot: int, value: bytes) -> None:
        value = self._check(value)
        self._ensure(self._leaves, slot)
        self._leaves[slot * self.width:(slot + 1) * self.width] = value

    def truncate(self, slot_count: int) -> None:
        end = slot_count * self.width
        del self._links[end:]
        del self._leaves[end:]

    def bulk_fill(self, rng: RandomSource, link_slots: range,
                  leaf_slots: range) -> None:
        """Fill contiguous slot ranges with fresh random modulators at once.

        Drawing one large random block is dramatically faster than one
        :meth:`RandomSource.bytes` call per modulator when outsourcing a
        large file.
        """
        if len(link_slots):
            block = rng.bytes(len(link_slots) * self.width)
            self._ensure(self._links, link_slots[-1])
            start = link_slots[0] * self.width
            self._links[start:start + len(block)] = block
        if len(leaf_slots):
            block = rng.bytes(len(leaf_slots) * self.width)
            self._ensure(self._leaves, leaf_slots[-1])
            start = leaf_slots[0] * self.width
            self._leaves[start:start + len(block)] = block


class LazySeededStore(ModulatorStore):
    """Seed-derived store with a write overlay, for benchmark-scale trees.

    Unwritten modulators are ``H(seed || kind || slot)`` truncated to the
    modulator width; any value written (by deletion deltas, balancing, or
    insertion) lands in an overlay dict that shadows the derivation.  The
    initial tree is therefore pseudo-random rather than client-random --
    fine for performance measurement, never used for security claims.
    """

    _LINK = b"L"
    _LEAF = b"F"

    def __init__(self, width: int, seed: bytes) -> None:
        super().__init__(width)
        if width <= 20:
            self._hash_factory = hashlib.sha1
        elif width <= 32:
            self._hash_factory = hashlib.sha256
        else:
            raise ValueError("lazy store supports widths up to 32 bytes")
        self._seed = bytes(seed)
        self._overlay: dict[tuple[bytes, int], bytes] = {}

    def _derive(self, kind: bytes, slot: int) -> bytes:
        hasher = self._hash_factory()
        hasher.update(self._seed)
        hasher.update(kind)
        hasher.update(struct.pack(">Q", slot))
        return hasher.digest()[:self.width]

    def get_link(self, slot: int) -> bytes:
        return self._overlay.get((self._LINK, slot)) or self._derive(self._LINK, slot)

    def set_link(self, slot: int, value: bytes) -> None:
        self._overlay[(self._LINK, slot)] = self._check(value)

    def get_leaf(self, slot: int) -> bytes:
        return self._overlay.get((self._LEAF, slot)) or self._derive(self._LEAF, slot)

    def set_leaf(self, slot: int, value: bytes) -> None:
        self._overlay[(self._LEAF, slot)] = self._check(value)

    @property
    def overlay_size(self) -> int:
        """Number of modulators that have diverged from the seed derivation."""
        return len(self._overlay)

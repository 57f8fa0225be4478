"""Lazy tree paging over a storage engine.

When a :class:`~repro.server.engine.TreeStore` engine is attached, the
server does not load whole files: :class:`PagedModulatorStore`,
:class:`PagedItemMap`, and :class:`PagedCiphertextStore` satisfy the
existing in-memory interfaces by fetching records from the engine on
demand -- a request touches only its root-to-leaf paths, so a
million-leaf tree costs O(log n) engine reads per operation.  A view
asks for all of its nodes of one kind at once, so the nodes it misses
in the cache arrive in one engine statement.

Each paged object keeps a **dirty overlay**: writes land in memory and
are staged in the engine only by ``flush_to_engine`` (called from the
server's ``compact_storage`` under the exclusive registry lock) and
dropped by ``mark_clean`` once the engine has committed them, so a
checkpoint that rolls back loses nothing the server still serves.  Reads
check dirty state first, then the shared :class:`NodeCache`, then the
engine -- so between compactions the server state is exactly
(engine state) + (dirty overlays), and a crash loses only the overlay,
which the WAL replays.

Whole-file reads (the fetch reply, persistence, snapshots) are range
scans of the engine merged with the overlay.  They neither read nor
fill the node cache: a walk over every node would otherwise evict the
hot paths that per-request reads depend on.

The node cache is shared across files and bounded (LRU).  Coherence
follows the lock discipline the view cache already uses: mutations hold
the file's exclusive lock while they touch the dirty overlay, and the
overlay always shadows the cache, so a stale cache entry can only be an
*older committed* value that no reader can observe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable, Optional, Sequence

from repro.core.errors import UnknownItemError
from repro.core.modstore import ModulatorStore
from repro.core.tree import ItemMap
from repro.obs import runtime as obs
from repro.server.engine import KIND_LEAF, KIND_LINK, TreeStore
from repro.server.storage import CiphertextStore


class NodeCache:
    """Bounded LRU cache of tree nodes, shared by every paged file.

    Keys are ``(file_id, kind, slot)``; values are modulator bytes.  A
    capacity of 0 disables caching entirely (every read hits the
    engine), which the benchmarks use to measure the cold path.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int, int], bytes] = OrderedDict()
        self._mutex = threading.Lock()

    def get(self, key: tuple[int, int, int]) -> Optional[bytes]:
        with self._mutex:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.NODE_CACHE.inc(outcome="hit" if value is not None else "miss")
        return value

    def put(self, key: tuple[int, int, int], value: bytes) -> None:
        self.put_many(((key, value),))

    def put_many(self, entries: Iterable[tuple[tuple[int, int, int],
                                               bytes]]) -> None:
        """Insert nodes under one lock, setting the residency gauge once
        (a multi-slot read caches every node it fetched)."""
        if self.capacity <= 0:
            return
        with self._mutex:
            for key, value in entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            size = len(self._entries)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.RESIDENT_NODES.set(size)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def evict(self, key: tuple[int, int, int]) -> None:
        with self._mutex:
            self._entries.pop(key, None)

    def purge_file(self, file_id: int) -> None:
        """Drop every cached node of one file (whole-file deletion)."""
        with self._mutex:
            stale = [key for key in self._entries if key[0] == file_id]
            for key in stale:
                del self._entries[key]
            size = len(self._entries)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.RESIDENT_NODES.set(size)


class PagedModulatorStore(ModulatorStore):
    """Engine-backed modulator store with a dirty write overlay.

    Matches :class:`~repro.core.modstore.DenseModulatorStore` semantics
    exactly: reads of never-written slots raise ``KeyError``, and the
    last written value wins.  Values never read stay out-of-core.
    """

    def __init__(self, engine: TreeStore, file_id: int, width: int,
                 cache: NodeCache) -> None:
        super().__init__(width)
        self._engine = engine
        self._file_id = file_id
        self._cache = cache
        #: (kind, slot) -> value written since the last flush.
        self._dirty: dict[tuple[int, int], bytes] = {}

    def _get(self, kind: int, slot: int) -> bytes:
        value = self._dirty.get((kind, slot))
        if value is not None:
            return value
        key = (self._file_id, kind, slot)
        value = self._cache.get(key)
        if value is not None:
            return value
        value = self._engine.get_node(self._file_id, kind, slot)
        self._cache.put(key, value)
        return value

    def _get_many(self, kind: int, slots: Sequence[int]) -> list[bytes]:
        values: list[Optional[bytes]] = []
        missing: list[int] = []
        for slot in slots:
            value = self._dirty.get((kind, slot))
            if value is None:
                value = self._cache.get((self._file_id, kind, slot))
                if value is None:
                    missing.append(len(values))
            values.append(value)
        if missing:
            fetched = self._engine.get_nodes(
                self._file_id, kind, [slots[i] for i in missing])
            for i, value in zip(missing, fetched):
                values[i] = value
            self._cache.put_many(((self._file_id, kind, slots[i]), values[i])
                                 for i in missing)
        return values

    def _scan(self, kind: int, lo: int, hi: int) -> list[bytes]:
        if hi <= lo:
            return []
        rows = self._engine.scan_nodes(self._file_id, kind, lo, hi)
        overlay = [(slot, value) for (k, slot), value in self._dirty.items()
                   if k == kind and lo <= slot < hi]
        if not overlay and len(rows) == hi - lo:
            return [value for _slot, value in rows]
        merged = dict(rows)
        merged.update(overlay)
        try:
            return [merged[slot] for slot in range(lo, hi)]
        except KeyError as exc:
            raise KeyError((self._file_id, kind, exc.args[0])) from None

    def get_link(self, slot: int) -> bytes:
        return self._get(KIND_LINK, slot)

    def get_leaf(self, slot: int) -> bytes:
        return self._get(KIND_LEAF, slot)

    def get_links(self, slots: Sequence[int]) -> list[bytes]:
        return self._get_many(KIND_LINK, slots)

    def get_leaves(self, slots: Sequence[int]) -> list[bytes]:
        return self._get_many(KIND_LEAF, slots)

    def scan_links(self, lo: int, hi: int) -> list[bytes]:
        return self._scan(KIND_LINK, lo, hi)

    def scan_leaves(self, lo: int, hi: int) -> list[bytes]:
        return self._scan(KIND_LEAF, lo, hi)

    def set_link(self, slot: int, value: bytes) -> None:
        self._dirty[(KIND_LINK, slot)] = self._check(value)

    def set_leaf(self, slot: int, value: bytes) -> None:
        self._dirty[(KIND_LEAF, slot)] = self._check(value)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def flush_to_engine(self) -> int:
        """Stage dirty nodes in the engine; returns the staged count.
        The overlay stays until :meth:`mark_clean` (after the commit)."""
        if not self._dirty:
            return 0
        self._engine.write_nodes(
            self._file_id,
            ((kind, slot, value)
             for (kind, slot), value in self._dirty.items()))
        self._cache.put_many(((self._file_id, kind, slot), value)
                             for (kind, slot), value in self._dirty.items())
        return len(self._dirty)

    def mark_clean(self) -> None:
        """Drop the overlay: the engine has committed what it staged."""
        self._dirty = {}


class PagedItemMap(ItemMap):
    """Engine-backed item-id <-> leaf-slot map with a dirty overlay.

    The overlay records both directions (``None`` marks a removed
    mapping) so a lookup never has to consult the engine for state a
    pending mutation already changed.
    """

    def __init__(self, engine: TreeStore, file_id: int) -> None:
        super().__init__()
        self._engine = engine
        self._file_id = file_id
        self._dirty_slot_of: dict[int, Optional[int]] = {}
        self._dirty_item_at: dict[int, Optional[int]] = {}

    def slot_of(self, item_id: int) -> Optional[int]:
        if item_id in self._dirty_slot_of:
            return self._dirty_slot_of[item_id]
        return self._engine.get_slot(self._file_id, item_id)

    def item_at(self, slot: int) -> Optional[int]:
        if slot in self._dirty_item_at:
            return self._dirty_item_at[slot]
        return self._engine.get_item(self._file_id, slot)

    def slots_of(self, item_ids: Sequence[int]) -> list[Optional[int]]:
        dirty = self._dirty_slot_of
        clean = [item_id for item_id in item_ids if item_id not in dirty]
        found = dict(zip(clean, self._engine.get_slots(self._file_id, clean)))
        return [dirty[item_id] if item_id in dirty else found[item_id]
                for item_id in item_ids]

    def items_in(self, lo: int, hi: int) -> list[tuple[int, int]]:
        if hi <= lo:
            return []
        rows = self._engine.scan_items(self._file_id, lo, hi)
        overlay = [(slot, item_id)
                   for slot, item_id in self._dirty_item_at.items()
                   if lo <= slot < hi]
        if not overlay:
            return rows
        merged = dict(rows)
        merged.update(overlay)
        return [(slot, merged[slot]) for slot in sorted(merged)
                if merged[slot] is not None]

    def set(self, item_id: int, slot: int) -> None:
        self._dirty_slot_of[item_id] = slot
        self._dirty_item_at[slot] = item_id

    def move(self, item_id: int, old_slot: int, new_slot: int) -> None:
        if old_slot != new_slot:
            self._dirty_item_at[old_slot] = None
        self.set(item_id, new_slot)

    def remove(self, item_id: int, slot: int) -> None:
        self._dirty_slot_of[item_id] = None
        self._dirty_item_at[slot] = None

    def contains(self, item_id: int) -> bool:
        return self.slot_of(item_id) is not None

    @property
    def dirty_count(self) -> int:
        return len(self._dirty_slot_of)

    def flush_to_engine(self) -> int:
        """Stage dirty mappings in the engine; returns the staged count.
        The overlay stays until :meth:`mark_clean` (after the commit)."""
        if not self._dirty_slot_of:
            return 0
        self._engine.write_items(self._file_id,
                                 list(self._dirty_slot_of.items()))
        return len(self._dirty_slot_of)

    def mark_clean(self) -> None:
        """Drop the overlay: the engine has committed what it staged."""
        self._dirty_slot_of = {}
        self._dirty_item_at = {}


class PagedCiphertextStore(CiphertextStore):
    """Engine-backed ciphertext store with a dirty overlay."""

    def __init__(self, engine: TreeStore, file_id: int) -> None:
        self._engine = engine
        self._file_id = file_id
        #: item_id -> ciphertext, or ``None`` for a pending deletion.
        self._dirty: dict[int, Optional[bytes]] = {}

    def get(self, item_id: int) -> bytes:
        if item_id in self._dirty:
            value = self._dirty[item_id]
            if value is None:
                raise UnknownItemError(f"no ciphertext for item {item_id}")
            return value
        try:
            return self._engine.get_ciphertext(self._file_id, item_id)
        except KeyError:
            raise UnknownItemError(f"no ciphertext for item {item_id}") \
                from None

    def get_many(self, item_ids: Sequence[int]) -> list[bytes]:
        dirty = self._dirty
        clean = [item_id for item_id in item_ids if item_id not in dirty]
        try:
            found = dict(zip(clean, self._engine.get_ciphertexts(
                self._file_id, clean)))
        except KeyError as exc:
            raise UnknownItemError(
                f"no ciphertext for item {exc.args[0][1]}") from None
        values = []
        for item_id in item_ids:
            value = dirty[item_id] if item_id in dirty else found[item_id]
            if value is None:
                raise UnknownItemError(f"no ciphertext for item {item_id}")
            values.append(value)
        return values

    def put(self, item_id: int, ciphertext: bytes) -> None:
        self._dirty[item_id] = bytes(ciphertext)

    def delete(self, item_id: int) -> None:
        self._dirty[item_id] = None

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def flush_to_engine(self) -> int:
        """Stage dirty ciphertexts in the engine; returns the count.
        The overlay stays until :meth:`mark_clean` (after the commit)."""
        if not self._dirty:
            return 0
        self._engine.write_ciphertexts(self._file_id,
                                       list(self._dirty.items()))
        return len(self._dirty)

    def mark_clean(self) -> None:
        """Drop the overlay: the engine has committed what it staged."""
        self._dirty = {}


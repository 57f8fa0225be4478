"""The modulation tree -- Section IV-B of the paper.

Structure
---------

The paper's modulation tree is a *complete* binary tree: every internal
node has exactly two children and all leaves sit on the last two levels.
Exactly this family of shapes is captured by heap numbering: a tree with
``n`` leaves occupies slots ``1 .. 2n-1``, slot ``s`` has children ``2s``
and ``2s+1``, internal nodes are the slots ``< n`` and leaves the slots
``>= n``.  The paper's balancing rules map onto the numbering perfectly:

* the "last leaf at the last level" (deletion, Section IV-D) is slot
  ``2n-1``, its sibling is ``2n-2`` and their parent is ``n-1``;
* the leaf split by insertion (Section IV-E; first leaf of the last level
  in a full tree, otherwise first leaf of the second-to-last level) is
  slot ``n``.

Each non-root slot carries the **link modulator** of the link from its
parent; each leaf slot carries a **leaf modulator**.  A leaf's modulator
list ``M_k`` is the link modulators along the root-to-leaf path followed
by its leaf modulator, and its data key is ``F(K, M_k)``.

This module is pure mechanism: it stores modulators, extracts the views
the protocol ships to the client (the ``MT(k)`` subtree with its
``(n-1)``-cut, the balancing view, the insertion view), applies deletion
deltas, and performs the structural moves.  All *decisions* -- what the
delta values are, what the reassigned leaf modulators must be -- are
client-side computations in :mod:`repro.core.ops`.

Every mutating method returns a write log of ``(kind, slot, old, new)``
tuples so the server can maintain its duplicate-modulator registry and
roll back a transaction that would introduce a duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.core.errors import StructureError, UnknownItemError
from repro.core.modstore import DenseModulatorStore, ModulatorStore
from repro.core.modulated_chain import xor_bytes
from repro.crypto.rng import RandomSource

LINK = "link"
LEAF = "leaf"

WriteLog = list[tuple[str, int, Optional[bytes], Optional[bytes]]]


@dataclass(frozen=True)
class CutEntry:
    """One node of the (n-1)-cut ``C``: a sibling of a path node."""

    slot: int
    link_mod: bytes
    is_leaf: bool
    leaf_mod: Optional[bytes] = None


@dataclass(frozen=True)
class MTView:
    """The subtree ``MT(k)`` the server sends for a deletion (Fig. 2).

    ``path_slots`` runs root-first and ends at the leaf being deleted;
    ``path_links`` has one entry per non-root path slot (the link
    modulator from its parent); ``cut`` lists the siblings of the path
    nodes top-down.
    """

    path_slots: tuple[int, ...]
    path_links: tuple[bytes, ...]
    leaf_mod: bytes
    cut: tuple[CutEntry, ...]

    def all_modulators(self) -> list[bytes]:
        """Every modulator in the view, for the distinctness check."""
        modulators = list(self.path_links)
        modulators.append(self.leaf_mod)
        for entry in self.cut:
            modulators.append(entry.link_mod)
            if entry.leaf_mod is not None:
                modulators.append(entry.leaf_mod)
        return modulators


@dataclass(frozen=True)
class PathView:
    """A root-to-leaf path with its modulators (access / insertion)."""

    path_slots: tuple[int, ...]
    path_links: tuple[bytes, ...]
    leaf_mod: bytes

    @property
    def leaf_slot(self) -> int:
        return self.path_slots[-1]

    def modulator_list(self) -> list[bytes]:
        """The ordered list ``M_k`` = path links + leaf modulator."""
        return list(self.path_links) + [self.leaf_mod]


@dataclass(frozen=True)
class BatchView:
    """The union subtree ``MT(S)`` plus balance band for a batched deletion.

    Slot lists are deliberately *not* part of the view: both parties derive
    the node set deterministically from ``(n_leaves, target_slots)`` via
    :meth:`ModulationTree.batch_link_slots` and
    :meth:`ModulationTree.batch_leaf_mod_slots`.  The server therefore
    cannot misrepresent the tree shape, and no slot list travels on the
    wire -- only modulator values do.  ``links[i]`` belongs to the i-th
    derived link slot (slot-ascending), ``leaf_mods[i]`` to the i-th
    derived leaf-modulator slot.

    ``target_slots`` is aligned with the requested item-id order; the
    rebalancing moves are applied in exactly that order.
    """

    n_leaves: int
    target_slots: tuple[int, ...]
    links: tuple[bytes, ...]
    leaf_mods: tuple[bytes, ...]

    def all_modulators(self) -> list[bytes]:
        """Every modulator in the view, for the distinctness check.

        Every entry sits at a distinct ``(kind, slot)`` location by
        construction (the derived slot lists are duplicate-free), so plain
        value distinctness over this list is the full Theorem-2 check.
        """
        return list(self.links) + list(self.leaf_mods)


@dataclass(frozen=True)
class BalanceView:
    """What the client needs for the balancing step of a deletion (Fig. 3).

    ``t`` is the last leaf (slot ``2n-1``), ``s`` its sibling: the path to
    ``t`` with its modulators, plus the link and leaf modulators of ``s``.
    """

    t_path: PathView
    s_slot: int
    s_link_mod: bytes
    s_leaf_mod: bytes


class ItemMap:
    """Bidirectional item-id <-> leaf-slot mapping (dict-backed)."""

    def __init__(self) -> None:
        self._slot_of: dict[int, int] = {}
        self._item_at: dict[int, int] = {}

    def slot_of(self, item_id: int) -> Optional[int]:
        return self._slot_of.get(item_id)

    def item_at(self, slot: int) -> Optional[int]:
        return self._item_at.get(slot)

    def set(self, item_id: int, slot: int) -> None:
        self._slot_of[item_id] = slot
        self._item_at[slot] = item_id

    def move(self, item_id: int, new_slot: int) -> None:
        old_slot = self._slot_of[item_id]
        self._item_at.pop(old_slot, None)
        self.set(item_id, new_slot)

    def remove(self, item_id: int) -> None:
        slot = self._slot_of.pop(item_id, None)
        if slot is not None:
            self._item_at.pop(slot, None)

    def contains(self, item_id: int) -> bool:
        return item_id in self._slot_of


class ArithmeticItemMap(ItemMap):
    """Item map with an implicit initial layout plus an exception overlay.

    At adoption time item ``base + i`` sits at slot ``n0 + i``; only items
    that move (balancing) or die (deletion) are recorded.  This keeps a
    10^7-leaf benchmark tree at O(operations) memory instead of O(n) --
    the mapping analogue of :class:`repro.core.modstore.LazySeededStore`.
    """

    def __init__(self, base_item_id: int, n0: int) -> None:
        super().__init__()
        self._base = base_item_id
        self._n0 = n0
        self._overridden_items: set[int] = set()
        self._vacated_slots: set[int] = set()

    def _natural_slot(self, item_id: int) -> Optional[int]:
        index = item_id - self._base
        if 0 <= index < self._n0:
            return self._n0 + index
        return None

    def slot_of(self, item_id: int) -> Optional[int]:
        if item_id in self._overridden_items:
            return self._slot_of.get(item_id)
        return self._natural_slot(item_id)

    def item_at(self, slot: int) -> Optional[int]:
        if slot in self._vacated_slots:
            return self._item_at.get(slot)
        index = slot - self._n0
        if 0 <= index < self._n0:
            return self._base + index
        return self._item_at.get(slot)

    def set(self, item_id: int, slot: int) -> None:
        self._overridden_items.add(item_id)
        self._slot_of[item_id] = slot
        self._vacated_slots.add(slot)
        self._item_at[slot] = item_id

    def move(self, item_id: int, new_slot: int) -> None:
        old_slot = self.slot_of(item_id)
        if old_slot is not None:
            self._vacated_slots.add(old_slot)
            self._item_at.pop(old_slot, None)
        self.set(item_id, new_slot)

    def remove(self, item_id: int) -> None:
        slot = self.slot_of(item_id)
        self._overridden_items.add(item_id)
        self._slot_of.pop(item_id, None)
        if slot is not None:
            self._vacated_slots.add(slot)
            self._item_at.pop(slot, None)

    def contains(self, item_id: int) -> bool:
        return self.slot_of(item_id) is not None


class ModulationTree:
    """Server-side modulation tree state over a :class:`ModulatorStore`."""

    def __init__(self, store: ModulatorStore,
                 item_map: ItemMap | None = None) -> None:
        self._store = store
        self._n = 0
        self._map = item_map if item_map is not None else ItemMap()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_random(cls, item_ids: list[int], width: int, rng: RandomSource,
                     store: ModulatorStore | None = None) -> "ModulationTree":
        """Build a fresh tree with random modulators for ``item_ids``.

        Used by the client when outsourcing a file: leaf slot ``n + i``
        holds item ``item_ids[i]``.
        """
        n = len(item_ids)
        store = store if store is not None else DenseModulatorStore(width)
        tree = cls(store)
        tree._n = n
        if n == 0:
            return tree
        if isinstance(store, DenseModulatorStore):
            store.bulk_fill(rng, link_slots=range(2, 2 * n),
                            leaf_slots=range(n, 2 * n))
        else:
            for slot in range(2, 2 * n):
                store.set_link(slot, rng.bytes(width))
            for slot in range(n, 2 * n):
                store.set_leaf(slot, rng.bytes(width))
        for i, item_id in enumerate(item_ids):
            tree._map.set(item_id, n + i)
        return tree

    @classmethod
    def adopt(cls, store: ModulatorStore, n_leaves: int,
              item_ids: list[int]) -> "ModulationTree":
        """Wrap an existing store (e.g. one received from the client).

        ``item_ids[i]`` is the item at leaf slot ``n_leaves + i``.
        """
        if len(item_ids) != n_leaves:
            raise ValueError("one item id per leaf required")
        tree = cls(store)
        tree._n = n_leaves
        for i, item_id in enumerate(item_ids):
            tree._map.set(item_id, n_leaves + i)
        return tree

    @classmethod
    def wrap(cls, store: ModulatorStore, n_leaves: int,
             item_map: ItemMap) -> "ModulationTree":
        """Wrap a store and item map that already hold a tree's state.

        The storage-engine door: paged stores materialise nodes on
        demand, so -- unlike :meth:`adopt` -- nothing is enumerated or
        copied here; the tree is usable after O(1) work regardless of
        ``n_leaves``.
        """
        tree = cls(store, item_map=item_map)
        tree._n = n_leaves
        return tree

    @classmethod
    def adopt_arithmetic(cls, store: ModulatorStore, n_leaves: int,
                         base_item_id: int) -> "ModulationTree":
        """Wrap a store with the implicit item layout ``base+i -> n+i``.

        Benchmark-scale companion of :meth:`adopt`: no per-item state is
        created, so a lazily-seeded 10^7-leaf tree costs O(1) memory.
        """
        tree = cls(store, item_map=ArithmeticItemMap(base_item_id, n_leaves))
        tree._n = n_leaves
        return tree

    # ------------------------------------------------------------------
    # Shape and lookup
    # ------------------------------------------------------------------

    @property
    def leaf_count(self) -> int:
        return self._n

    @property
    def store(self) -> ModulatorStore:
        return self._store

    @property
    def width(self) -> int:
        return self._store.width

    def is_leaf(self, slot: int) -> bool:
        if not 1 <= slot <= 2 * self._n - 1:
            raise StructureError(f"slot {slot} outside tree of {self._n} leaves")
        return slot >= self._n

    def depth(self) -> int:
        """Height of the tree (number of links on the longest path)."""
        return (2 * self._n - 1).bit_length() - 1 if self._n else 0

    def slot_of_item(self, item_id: int) -> int:
        slot = self._map.slot_of(item_id)
        if slot is None:
            raise UnknownItemError(f"unknown item id {item_id}")
        return slot

    def item_of_slot(self, slot: int) -> Optional[int]:
        return self._map.item_at(slot)

    def item_ids(self) -> list[int]:
        """All live item ids, in leaf-slot order."""
        ids = []
        for slot in range(self._n, 2 * self._n):
            item_id = self._map.item_at(slot)
            if item_id is not None:
                ids.append(item_id)
        return ids

    @staticmethod
    def path_slots(slot: int) -> list[int]:
        """Heap slots on the path from the root (slot 1) down to ``slot``."""
        path = []
        while slot >= 1:
            path.append(slot)
            slot //= 2
        path.reverse()
        return path

    @staticmethod
    def slot_path(slot: int) -> str:
        """Branch directions from the root to ``slot``, as a bit string.

        Heap numbering makes the slot number *itself* the path encoding:
        after the leading 1 bit, each bit of ``slot`` is one branch
        decision (0 = left child ``2s``, 1 = right child ``2s+1``).  So
        ``slot_path(11) == "011"`` -- left, right, right -- and storage
        engines indexing nodes by ``(file_id, slot)`` are indexing by
        ``(file_id, node_path)`` for free.
        """
        if slot < 1:
            raise StructureError(f"slot {slot} has no root path")
        return bin(slot)[3:]

    @staticmethod
    def union_path_slots(target_slots: Sequence[int]) -> list[int]:
        """Sorted union of the root-to-leaf paths of ``target_slots``."""
        seen: set[int] = set()
        for slot in target_slots:
            while slot >= 1 and slot not in seen:
                seen.add(slot)
                slot //= 2
        return sorted(seen)

    @staticmethod
    def union_cut_slots(target_slots: Sequence[int]) -> list[int]:
        """Sorted ``(n-k)``-cut of the union path: its off-path children.

        Generalises the single-deletion ``(n-1)``-cut: a slot is in the
        cut iff it is not on any target's path but its parent is.  One
        delta per cut node compensates the key change for *every* leaf
        outside the batch at once (Eq. 5 applied to the union).
        """
        path: set[int] = set()
        for slot in target_slots:
            while slot >= 1 and slot not in path:
                path.add(slot)
                slot //= 2
        return sorted(s ^ 1 for s in path if s >= 2 and (s ^ 1) not in path)

    @staticmethod
    def batch_band_slots(n_leaves: int, batch_size: int) -> range:
        """Balance band: every slot the batch's rebalancing moves touch.

        Move ``i`` (tree size ``m = n - i``) reads or writes ``t = 2m-1``,
        ``s = 2m-2`` and their parent ``p = m-1``; over ``batch_size``
        moves the leaves involved are exactly the last ``2k`` slots (the
        ``p`` slots are reached through the ancestor closure).
        """
        if n_leaves <= 0:
            return range(0)
        return range(max(2, 2 * (n_leaves - batch_size)), 2 * n_leaves)

    @classmethod
    def batch_link_slots(cls, n_leaves: int,
                         target_slots: Sequence[int]) -> list[int]:
        """Sorted link slots of the batch view (derived, never shipped).

        The node set is the ancestor closure of ``targets + band`` plus
        the union cut; every member except the root carries one link
        modulator.  Closure of the cut is free: cut parents are path
        nodes by definition.
        """
        seen: set[int] = set()
        band = cls.batch_band_slots(n_leaves, len(target_slots))
        for start in (*target_slots, *band):
            slot = start
            while slot >= 1 and slot not in seen:
                seen.add(slot)
                slot //= 2
        seen.update(cls.union_cut_slots(target_slots))
        return sorted(s for s in seen if s >= 2)

    @classmethod
    def batch_leaf_mod_slots(cls, n_leaves: int,
                             target_slots: Sequence[int]) -> list[int]:
        """Sorted slots whose leaf modulator the batch view must carry.

        Targets (decrypt-verification) plus the band's leaf slots (the
        rebalancing mirror); cut leaf modulators are *not* needed -- the
        deltas only use cut link modulators.
        """
        slots = set(target_slots)
        for slot in cls.batch_band_slots(n_leaves, len(target_slots)):
            if slot >= n_leaves:
                slots.add(slot)
        return sorted(slots)

    # ------------------------------------------------------------------
    # Views shipped to the client
    # ------------------------------------------------------------------

    def path_view(self, slot: int) -> PathView:
        """Path + modulators for access, modification, or key derivation."""
        if not self.is_leaf(slot):
            raise StructureError(f"slot {slot} is not a leaf")
        slots = self.path_slots(slot)
        links = tuple(self._store.get_link(s) for s in slots[1:])
        return PathView(path_slots=tuple(slots), path_links=links,
                        leaf_mod=self._store.get_leaf(slot))

    def mt_view(self, slot: int) -> MTView:
        """The deletion subtree ``MT(k)``: path to ``slot`` plus its cut."""
        path = self.path_view(slot)
        cut = []
        for path_slot in path.path_slots[1:]:
            sibling = path_slot ^ 1
            sibling_is_leaf = self.is_leaf(sibling)
            cut.append(CutEntry(
                slot=sibling,
                link_mod=self._store.get_link(sibling),
                is_leaf=sibling_is_leaf,
                leaf_mod=self._store.get_leaf(sibling) if sibling_is_leaf else None,
            ))
        return MTView(path_slots=path.path_slots, path_links=path.path_links,
                      leaf_mod=path.leaf_mod, cut=tuple(cut))

    def balance_view(self) -> Optional[BalanceView]:
        """Balancing data for the current shape (``None`` for n < 2)."""
        n = self._n
        if n < 2:
            return None
        t_slot = 2 * n - 1
        s_slot = 2 * n - 2
        return BalanceView(
            t_path=self.path_view(t_slot),
            s_slot=s_slot,
            s_link_mod=self._store.get_link(s_slot),
            s_leaf_mod=self._store.get_leaf(s_slot),
        )

    def batch_view(self, target_slots: Sequence[int]) -> BatchView:
        """The batched-deletion view ``MT(S)`` plus balance band.

        One round trip replaces ``k`` sequential challenge exchanges: the
        view carries every modulator the client needs to compute the
        union-cut deltas *and* simulate all ``k`` rebalancing moves
        locally.
        """
        targets = tuple(target_slots)
        if len(set(targets)) != len(targets):
            raise StructureError("batch targets must be distinct")
        for slot in targets:
            if not self.is_leaf(slot):
                raise StructureError(f"slot {slot} is not a leaf")
        n = self._n
        links = tuple(self._store.get_link(s)
                      for s in self.batch_link_slots(n, targets))
        leaf_mods = tuple(self._store.get_leaf(s)
                          for s in self.batch_leaf_mod_slots(n, targets))
        return BatchView(n_leaves=n, target_slots=targets, links=links,
                         leaf_mods=leaf_mods)

    def insert_view(self) -> Optional[PathView]:
        """Path to the leaf that an insertion will split (``None`` if empty)."""
        if self._n == 0:
            return None
        return self.path_view(self._n)

    # ------------------------------------------------------------------
    # Mutations (server side)
    # ------------------------------------------------------------------

    def apply_deltas(self, cut_slots: list[int], deltas: list[bytes]) -> WriteLog:
        """Apply ``delta(c)`` to each cut node ``c`` (Eqs. 6 and 7).

        Internal cut nodes have both child-link modulators XORed with the
        delta; leaf cut nodes have their leaf modulator XORed.
        """
        if len(cut_slots) != len(deltas):
            raise StructureError("one delta per cut node required")
        log: WriteLog = []
        for slot, delta in zip(cut_slots, deltas):
            if self.is_leaf(slot):
                old = self._store.get_leaf(slot)
                new = xor_bytes(old, delta)
                self._store.set_leaf(slot, new)
                log.append((LEAF, slot, old, new))
            else:
                for child in (2 * slot, 2 * slot + 1):
                    old = self._store.get_link(child)
                    new = xor_bytes(old, delta)
                    self._store.set_link(child, new)
                    log.append((LINK, child, old, new))
        return log

    def delete_leaf(self, slot_k: int, x_s_prime: Optional[bytes],
                    dest_link: Optional[bytes],
                    dest_leaf: Optional[bytes]) -> WriteLog:
        """Remove leaf ``slot_k`` and rebalance (Section IV-D).

        ``x_s_prime`` is the recomputed leaf modulator for ``s`` (Eq. 8),
        required whenever the tree has at least two leaves.  ``dest_leaf``
        is the recomputed leaf modulator for ``t`` at its new location
        (Eq. 9) and ``dest_link`` the fresh link modulator chosen by the
        client; both are ``None`` when ``k`` *is* the last leaf ``t`` (the
        paper's "step 2 is performed only if node t is not node k"), and
        ``dest_link`` is additionally ``None`` when ``t`` lands on the
        root or takes over the collapsed parent slot, which keeps its
        existing incoming link.
        """
        if not self.is_leaf(slot_k):
            raise StructureError(f"slot {slot_k} is not a leaf")
        n = self._n
        log: WriteLog = []

        t_slot = 2 * n - 1
        s_slot = 2 * n - 2
        p_slot = n - 1

        # Validate the full argument shape before mutating anything.
        if n > 1:
            if x_s_prime is None:
                raise StructureError("balancing value x_s' required for n >= 2")
            if slot_k != t_slot:
                if dest_leaf is None:
                    raise StructureError(
                        "balancing value x_t' required when k != t")
                dest = p_slot if slot_k == s_slot else slot_k
                if dest == p_slot or dest == 1:
                    if dest_link is not None:
                        raise StructureError("dest link must be omitted when "
                                             "t inherits a slot's link")
                elif dest_link is None:
                    raise StructureError("fresh link modulator required")

        item_k = self._map.item_at(slot_k)
        if item_k is not None:
            self._map.remove(item_k)

        if n == 1:
            log.append((LEAF, 1, self._store.get_leaf(1), None))
            self._n = 0
            self._store.truncate(0)
            return log

        t_item = self._map.item_at(t_slot)
        s_item = self._map.item_at(s_slot)

        # Step 1 (Fig. 3): remove t; s takes over the parent slot, keeping
        # the parent's incoming link modulator and adopting x_s'.
        log.append((LINK, s_slot, self._store.get_link(s_slot), None))
        log.append((LEAF, s_slot, self._store.get_leaf(s_slot), None))
        log.append((LINK, t_slot, self._store.get_link(t_slot), None))
        log.append((LEAF, t_slot, self._store.get_leaf(t_slot), None))
        old_p_leaf = None  # p was internal; it had no leaf modulator.
        self._store.set_leaf(p_slot, x_s_prime)
        log.append((LEAF, p_slot, old_p_leaf, x_s_prime))
        if s_item is not None:
            self._map.move(s_item, p_slot)
        self._n = n - 1

        # Step 2: move t into k's place, unless k was t itself.
        if slot_k != t_slot:
            dest = p_slot if slot_k == s_slot else slot_k
            if dest_leaf is None:
                raise StructureError("balancing value x_t' required when k != t")
            if dest == p_slot or dest == 1:
                # t takes over a slot whose incoming link (if any) is kept.
                if dest_link is not None:
                    raise StructureError(
                        "dest link must be omitted when t inherits a slot's link")
            else:
                if dest_link is None:
                    raise StructureError("fresh link modulator required")
                old_link = self._store.get_link(dest)
                self._store.set_link(dest, dest_link)
                log.append((LINK, dest, old_link, dest_link))
            old_leaf = self._store.get_leaf(dest) if dest == p_slot else (
                self._store.get_leaf(dest))
            self._store.set_leaf(dest, dest_leaf)
            log.append((LEAF, dest, old_leaf, dest_leaf))
            if t_item is not None:
                self._map.move(t_item, dest)
        # Slots s and t (the two highest) are free now; drop their bytes.
        self._store.truncate(s_slot)
        return log

    def insert_leaf(self, item_id: int, t_new_link: Optional[bytes],
                    t_new_leaf: Optional[bytes], e_link: Optional[bytes],
                    e_leaf: bytes) -> WriteLog:
        """Insert a new leaf ``e`` for ``item_id`` (Section IV-E).

        For a non-empty tree the first shallowest leaf ``t'`` (slot ``n``)
        is split: ``t'`` moves to slot ``2n`` with fresh link modulator
        ``t_new_link`` and reassigned leaf modulator ``t_new_leaf``; the
        new leaf ``e`` lands on slot ``2n+1`` with fresh ``e_link`` and
        ``e_leaf``.  For an empty tree the new leaf is the root and only
        ``e_leaf`` applies.
        """
        if self._map.contains(item_id):
            raise StructureError(f"item id {item_id} already present")
        log: WriteLog = []
        n = self._n
        if n == 0:
            self._store.set_leaf(1, e_leaf)
            log.append((LEAF, 1, None, e_leaf))
            self._map.set(item_id, 1)
            self._n = 1
            return log

        if t_new_link is None or t_new_leaf is None or e_link is None:
            raise StructureError("split insertion requires all three modulators")
        t_slot = n
        t_item = self._map.item_at(t_slot)
        old_t_leaf = self._store.get_leaf(t_slot)

        self._store.set_link(2 * n, t_new_link)
        log.append((LINK, 2 * n, None, t_new_link))
        self._store.set_leaf(2 * n, t_new_leaf)
        log.append((LEAF, 2 * n, None, t_new_leaf))
        self._store.set_link(2 * n + 1, e_link)
        log.append((LINK, 2 * n + 1, None, e_link))
        self._store.set_leaf(2 * n + 1, e_leaf)
        log.append((LEAF, 2 * n + 1, None, e_leaf))
        # Slot n becomes internal: its leaf modulator ceases to exist.
        log.append((LEAF, t_slot, old_t_leaf, None))

        if t_item is not None:
            self._map.move(t_item, 2 * n)
        self._map.set(item_id, 2 * n + 1)
        self._n = n + 1
        return log

    def rollback(self, log: WriteLog) -> None:
        """Undo the store writes of a failed transaction (reverse order).

        Only modulator values are restored; callers roll back shape and
        item-map changes by re-running the forward transaction after the
        client retries, so this is used before any shape change is made
        (delta application), which is where duplicate detection happens.
        """
        for kind, slot, old, _new in reversed(log):
            if old is None:
                continue
            if kind == LINK:
                self._store.set_link(slot, old)
            else:
                self._store.set_leaf(slot, old)

    # ------------------------------------------------------------------
    # Whole-tree enumeration (outsourcing / whole-file fetch)
    # ------------------------------------------------------------------

    def iter_modulators(self) -> Iterator[tuple[str, int, bytes]]:
        """Yield every modulator in the tree as ``(kind, slot, value)``."""
        n = self._n
        for slot in range(2, 2 * n):
            yield LINK, slot, self._store.get_link(slot)
        for slot in range(n, 2 * n):
            yield LEAF, slot, self._store.get_leaf(slot)

    def modulator_count(self) -> int:
        """Number of modulators in the tree: ``2n-2`` links + ``n`` leaves."""
        return 3 * self._n - 2 if self._n else 0

    def transfer_size_bytes(self) -> int:
        """Bytes needed to ship every modulator (whole-file fetch overhead)."""
        return self.modulator_count() * self._store.width

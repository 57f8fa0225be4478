"""Modulation tree structure: slots, views, and structural transactions."""

import pytest

from repro.core.errors import StructureError, UnknownItemError
from repro.core.modstore import LazySeededStore
from repro.core.ops import BalanceMove
from repro.core.tree import (ArithmeticItemMap, ItemMap, ModulationTree)
from repro.crypto.rng import DeterministicRandom

WIDTH = 20


def build(n, seed="tree"):
    return ModulationTree.build_random(list(range(100, 100 + n)), WIDTH,
                                       DeterministicRandom(seed))


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13])
def test_heap_shape(n):
    tree = build(n)
    assert tree.leaf_count == n
    for slot in range(1, 2 * n):
        assert tree.is_leaf(slot) == (slot >= n)
    with pytest.raises(StructureError):
        tree.is_leaf(2 * n)
    with pytest.raises(StructureError):
        tree.is_leaf(0)


def test_depth():
    assert build(1).depth() == 0
    assert build(2).depth() == 1
    assert build(4).depth() == 2
    assert build(5).depth() == 3
    assert build(8).depth() == 3


def test_path_slots():
    assert ModulationTree.path_slots(1) == [1]
    assert ModulationTree.path_slots(13) == [1, 3, 6, 13]


def test_item_mapping():
    tree = build(4)
    assert tree.item_ids() == [100, 101, 102, 103]
    assert tree.slot_of_item(100) == 4
    assert tree.item_of_slot(7) == 103
    with pytest.raises(UnknownItemError):
        tree.slot_of_item(999)


def test_modulator_count_and_transfer_size():
    tree = build(6)
    assert tree.modulator_count() == 16  # 2n-2 links + n leaves
    assert tree.transfer_size_bytes() == 16 * WIDTH
    assert sum(1 for _ in tree.iter_modulators()) == 16
    assert build(0).modulator_count() == 0


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

def test_path_view():
    tree = build(5)
    view = tree.path_view(9)
    assert view.path_slots == (1, 2, 4, 9)
    assert len(view.path_links) == 3
    assert view.leaf_slot == 9
    assert len(view.modulator_list()) == 4
    with pytest.raises(StructureError):
        tree.path_view(2)  # internal slot


def test_mt_view_cut_is_sibling_set():
    tree = build(5)
    mt = tree.mt_view(9)
    assert [entry.slot for entry in mt.cut] == [3, 5, 8]
    assert mt.cut[0].is_leaf is False  # slot 3 internal when n=5
    assert mt.cut[1].is_leaf is True   # slot 5 is a leaf when n=5
    assert mt.cut[2].is_leaf is True
    assert mt.cut[2].leaf_mod is not None
    # 3 path links + leaf of k + 3 cut links + 2 cut leaf modulators.
    assert len(mt.all_modulators()) == 9


def test_balance_view():
    tree = build(5)
    balance = tree.balance_view()
    assert balance.t_path.leaf_slot == 9
    assert balance.s_slot == 8
    assert build(1).balance_view() is None
    assert build(0).balance_view() is None


def test_insert_view():
    assert build(0).insert_view() is None
    tree = build(5)
    view = tree.insert_view()
    assert view.leaf_slot == 5


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

def test_apply_deltas_internal_and_leaf(rng):
    tree = build(5)
    mt = tree.mt_view(9)
    deltas = [rng.bytes(WIDTH) for _ in mt.cut]
    before = {(kind, slot): value for kind, slot, value in tree.iter_modulators()}
    tree.apply_deltas([entry.slot for entry in mt.cut], deltas)
    after = {(kind, slot): value for kind, slot, value in tree.iter_modulators()}
    # Internal cut nodes: both child links XORed; leaf cut node: leaf mod.
    changed = {location for location in before
               if after[location] != before[location]}
    assert changed == {("link", 6), ("link", 7),  # children of cut node 3
                       ("leaf", 5), ("leaf", 8)}  # leaf cut nodes
    delta_of = {entry.slot: delta for entry, delta in zip(mt.cut, deltas)}
    delta_of.update({6: delta_of[3], 7: delta_of[3]})
    for kind, slot in changed:
        assert bytes(a ^ b for a, b in zip(before[(kind, slot)],
                                           after[(kind, slot)])) == \
            delta_of[slot]


def test_apply_deltas_length_mismatch(rng):
    tree = build(3)
    with pytest.raises(StructureError):
        tree.apply_deltas([2], [])


def test_delete_only_leaf():
    tree = build(1)
    assert [(kind, slot) for kind, slot, _value
            in tree.iter_modulators()] == [("leaf", 1)]
    tree.delete_leaf(1, None, None, None)
    assert tree.leaf_count == 0
    assert tree.item_ids() == []
    assert list(tree.iter_modulators()) == []


def test_delete_last_leaf_k_equals_t(rng):
    tree = build(3)  # leaves 3,4,5; t=5, s=4, p=2
    x_s = rng.bytes(WIDTH)
    tree.delete_leaf(5, x_s, None, None)
    assert tree.leaf_count == 2
    assert tree.store.get_leaf(2) == x_s
    assert tree.item_ids() == [101, 100]  # slot order: 101 at 2, 100 at 3
    assert tree.slot_of_item(101) == 2  # s moved to parent slot


def test_delete_sibling_of_last_leaf_k_equals_s(rng):
    tree = build(3)  # delete slot 4 (item 101); t=5 (item 102) -> slot 2
    x_s, dest_leaf = rng.bytes(WIDTH), rng.bytes(WIDTH)
    tree.delete_leaf(4, x_s, None, dest_leaf)
    assert tree.leaf_count == 2
    assert tree.item_ids() == [102, 100]  # slot order: 102 at 2, 100 at 3
    assert tree.slot_of_item(102) == 2
    assert tree.store.get_leaf(2) == dest_leaf


def test_delete_general_leaf(rng):
    tree = build(5)  # delete slot 5 (item 100); t=9 (item 104) -> slot 5
    x_s, dest_link, dest_leaf = (rng.bytes(WIDTH) for _ in range(3))
    tree.delete_leaf(5, x_s, dest_link, dest_leaf)
    assert tree.leaf_count == 4
    assert tree.slot_of_item(104) == 5
    assert tree.store.get_link(5) == dest_link
    assert tree.store.get_leaf(5) == dest_leaf
    assert sorted(tree.item_ids()) == [101, 102, 103, 104]


def test_delete_to_root_leaf(rng):
    tree = build(2)  # delete slot 2 (k==s); t=3 moves to root
    dest_leaf = rng.bytes(WIDTH)
    tree.delete_leaf(2, rng.bytes(WIDTH), None, dest_leaf)
    assert tree.leaf_count == 1
    assert tree.slot_of_item(101) == 1
    assert tree.store.get_leaf(1) == dest_leaf


def test_delete_requires_balance_values(rng):
    tree = build(3)
    with pytest.raises(StructureError):
        tree.delete_leaf(4, None, None, None)  # x_s' missing
    with pytest.raises(StructureError):
        tree.delete_leaf(4, rng.bytes(WIDTH), None, None)  # dest_leaf missing


def test_delete_general_leaf_with_fresh_link_is_legal(rng):
    tree = build(3)
    tree.delete_leaf(3, rng.bytes(WIDTH), rng.bytes(WIDTH), rng.bytes(WIDTH))
    assert tree.leaf_count == 2


def test_insert_into_empty(rng):
    tree = ModulationTree.build_random([], WIDTH, rng)
    e_leaf = rng.bytes(WIDTH)
    tree.insert_leaf(7, None, None, None, e_leaf)
    assert tree.leaf_count == 1
    assert tree.slot_of_item(7) == 1
    assert tree.store.get_leaf(1) == e_leaf


def test_insert_splits_first_leaf(rng):
    tree = build(3)
    values = [rng.bytes(WIDTH) for _ in range(4)]
    tree.insert_leaf(200, *values)
    assert tree.leaf_count == 4
    assert tree.slot_of_item(100) == 6  # old slot-3 item moved to 2n
    assert tree.slot_of_item(200) == 7
    assert tree.store.get_link(6) == values[0]
    assert tree.store.get_leaf(6) == values[1]
    assert tree.store.get_link(7) == values[2]
    assert tree.store.get_leaf(7) == values[3]


def test_insert_requires_split_values(rng):
    tree = build(2)
    with pytest.raises(StructureError):
        tree.insert_leaf(200, None, None, None, rng.bytes(WIDTH))


def test_insert_duplicate_item_id(rng):
    tree = build(2)
    with pytest.raises(StructureError):
        tree.insert_leaf(100, rng.bytes(WIDTH), rng.bytes(WIDTH),
                         rng.bytes(WIDTH), rng.bytes(WIDTH))


def test_delete_non_leaf_rejected(rng):
    tree = build(4)
    with pytest.raises(StructureError):
        tree.delete_leaf(2, rng.bytes(WIDTH), None, None)


def test_check_deletions_dry_runs_a_sequence(rng):
    """The dry run finds each target where the earlier moves leave it,
    and a bad later move is refused with the tree untouched."""
    tree = build(5)  # leaves 5..9 hold items 100..104
    x, link, leaf = (rng.bytes(WIDTH) for _ in range(3))
    # Deleting t (slot 9) first moves s (slot 8, item 103) up to slot 4,
    # where the second deletion finds it with a fresh link for t.
    moves = [BalanceMove(x, None, None), BalanceMove(x, link, leaf)]
    before = list(tree.iter_modulators())
    with pytest.raises(StructureError):
        tree.check_deletions([9, 8], [moves[0],
                                      BalanceMove(x, None, leaf)])
    assert tree.check_deletions([9, 8], moves) == [9, 4]
    assert list(tree.iter_modulators()) == before
    assert tree.leaf_count == 5
    for slot, move in zip([9, 4], moves):
        tree.delete_leaf(slot, move.x_s_prime, move.dest_link,
                         move.dest_leaf)
    assert sorted(tree.item_ids()) == [100, 101, 102]


# ---------------------------------------------------------------------------
# Item maps
# ---------------------------------------------------------------------------

def test_item_map_basics():
    mapping = ItemMap()
    mapping.set(10, 4)
    assert mapping.slot_of(10) == 4
    assert mapping.item_at(4) == 10
    mapping.move(10, 4, 7)
    assert mapping.slot_of(10) == 7
    assert mapping.item_at(4) is None
    mapping.remove(10, 7)
    assert mapping.slot_of(10) is None
    assert not mapping.contains(10)


def test_arithmetic_map_natural_layout():
    mapping = ArithmeticItemMap(base_item_id=100, n0=8)
    assert mapping.slot_of(100) == 8
    assert mapping.slot_of(107) == 15
    assert mapping.slot_of(108) is None
    assert mapping.item_at(8) == 100
    assert mapping.item_at(15) == 107
    assert mapping.item_at(16) is None
    assert mapping.contains(103)


def test_arithmetic_map_overrides():
    mapping = ArithmeticItemMap(base_item_id=100, n0=8)
    mapping.move(107, 15, 7)  # balancing move into the collapsed parent slot
    assert mapping.slot_of(107) == 7
    assert mapping.item_at(15) is None
    assert mapping.item_at(7) == 107
    mapping.remove(103, 11)
    assert mapping.slot_of(103) is None
    assert mapping.item_at(11) is None
    mapping.set(500, 11)
    assert mapping.item_at(11) == 500
    assert mapping.slot_of(500) == 11


def test_adopt_arithmetic_equivalent_to_adopt():
    rng_a = DeterministicRandom("adopt")
    store = LazySeededStore(WIDTH, b"adopt")
    tree = ModulationTree.adopt_arithmetic(store, 6, base_item_id=100)
    assert tree.leaf_count == 6
    assert tree.slot_of_item(102) == 8
    assert tree.item_ids() == [100, 101, 102, 103, 104, 105]


def _tree_over(kind, request, tmp_path, n=6):
    """An n-leaf tree holding items 100.. under each item-map family (the
    paged one over an engine in ``tmp_path``, closed after the test)."""
    store = LazySeededStore(WIDTH, b"replace")
    if kind == "dict":
        return ModulationTree.adopt(store, n, list(range(100, 100 + n)))
    if kind == "arithmetic":
        return ModulationTree.adopt_arithmetic(store, n, base_item_id=100)
    from repro.server.engine import SQLiteTreeStore
    from repro.server.paging import PagedItemMap
    engine = SQLiteTreeStore(str(tmp_path / "engine"))
    request.addfinalizer(engine.close)
    engine.write_items(7, [(100 + i, n + i) for i in range(n)])
    return ModulationTree.wrap(store, n, PagedItemMap(engine, 7))


@pytest.mark.parametrize("kind", ["dict", "arithmetic", "paged"])
def test_replace_item_repoints_the_leaf_in_place(kind, request, tmp_path):
    tree = _tree_over(kind, request, tmp_path)
    before = list(tree.iter_modulators())
    slot = tree.replace_item(102, 900)
    assert slot == 8
    assert tree.slot_of_item(900) == 8
    assert tree.item_of_slot(8) == 900
    assert not tree.has_item(102)
    assert tree.item_ids() == [100, 101, 900, 103, 104, 105]
    assert list(tree.iter_modulators()) == before  # no balancing, no split
    with pytest.raises(StructureError):
        tree.replace_item(103, 104)
    with pytest.raises(UnknownItemError):
        tree.replace_item(102, 901)
    assert tree.item_ids() == [100, 101, 900, 103, 104, 105]


@pytest.mark.parametrize("kind", ["dict", "arithmetic", "paged"])
def test_items_in_lists_occupied_slots_in_slot_order(kind, request,
                                                     tmp_path):
    mapping = _tree_over(kind, request, tmp_path)._map
    mapping.move(105, 11, 5)
    mapping.remove(101, 7)
    assert mapping.items_in(0, 12) == [(5, 105), (6, 100), (8, 102),
                                       (9, 103), (10, 104)]
    assert mapping.items_in(8, 10) == [(8, 102), (9, 103)]


def test_adopt_validates_counts():
    store = LazySeededStore(WIDTH, b"x")
    with pytest.raises(ValueError):
        ModulationTree.adopt(store, 3, [1, 2])

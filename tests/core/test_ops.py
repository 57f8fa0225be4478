"""Client-side computations: deltas, balancing, insertion, verification."""

import pytest

from repro.core import ops
from repro.core.errors import DuplicateModulatorError, StructureError
from repro.core.modulated_chain import ChainEngine
from repro.core.tree import ModulationTree, PathView
from repro.crypto.rng import DeterministicRandom

WIDTH = 20


@pytest.fixture
def engine():
    return ChainEngine()


def build(n, seed="ops"):
    return ModulationTree.build_random(list(range(n)), WIDTH,
                                       DeterministicRandom(seed))


def all_keys(engine, tree, master_key):
    return {item: engine.evaluate(master_key,
                                  tree.path_view(tree.slot_of_item(item))
                                  .modulator_list())
            for item in tree.item_ids()}


def run_deletion(engine, tree, master_key, new_key, item, rng):
    """Drive the delete computation + server application directly."""
    slot = tree.slot_of_item(item)
    mt = tree.mt_view(slot)
    balance = tree.balance_view()
    cut_slots, deltas = ops.compute_deltas(engine, master_key, new_key, mt)
    x_s, dest_link, dest_leaf = ops.compute_balance_values(
        engine, new_key, mt, balance, cut_slots, deltas, rng)
    tree.apply_deltas(list(cut_slots), list(deltas))
    tree.delete_leaf(slot, x_s, dest_link, dest_leaf)


# ---------------------------------------------------------------------------
# Theorem 1 at the unit level
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,victim", [
    (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    (5, 0), (5, 4), (5, 3), (8, 2), (13, 7),
])
def test_deletion_preserves_all_other_keys(engine, n, victim, rng):
    tree = build(n, seed=f"t1-{n}-{victim}")
    master_key = rng.bytes(16)
    new_key = rng.bytes(16)
    before = all_keys(engine, tree, master_key)

    run_deletion(engine, tree, master_key, new_key, victim, rng)

    after = all_keys(engine, tree, new_key)
    expected = {item: key for item, key in before.items() if item != victim}
    assert after == expected


def test_deleted_key_is_not_derivable_under_new_key(engine, rng):
    tree = build(6)
    master_key, new_key = rng.bytes(16), rng.bytes(16)
    victim = 2
    slot = tree.slot_of_item(victim)
    old_list = tree.path_view(slot).modulator_list()
    old_key_value = engine.evaluate(master_key, old_list)

    run_deletion(engine, tree, master_key, new_key, victim, rng)

    # Derive with the new key over every current leaf path: none equals
    # the dead key.
    for item in tree.item_ids():
        path = tree.path_view(tree.slot_of_item(item))
        assert engine.evaluate(new_key, path.modulator_list()) != old_key_value
    # Nor does the new key over the *old* modulator list.
    assert engine.evaluate(new_key, old_list) != old_key_value


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------

def test_insertion_preserves_existing_keys_and_keys_new_leaf(engine, rng):
    tree = build(5)
    master_key = rng.bytes(16)
    before = all_keys(engine, tree, master_key)

    commit = ops.compute_insertion(engine, master_key, tree.insert_view(), rng)
    tree.insert_leaf(99, commit.t_new_link, commit.t_new_leaf, commit.e_link,
                     commit.e_leaf)

    after = all_keys(engine, tree, master_key)
    assert after[99] == commit.chain_output
    for item, key in before.items():
        assert after[item] == key


def test_insertion_into_empty_tree(engine, rng):
    tree = ModulationTree.build_random([], WIDTH, rng)
    commit = ops.compute_insertion(engine, master_key := rng.bytes(16),
                                   tree.insert_view(), rng)
    assert commit.t_new_link is None and commit.e_link is None
    tree.insert_leaf(1, None, None, None, commit.e_leaf)
    assert all_keys(engine, tree, master_key)[1] == commit.chain_output


def test_repeated_insertions_grow_heap_shape(engine, rng):
    tree = ModulationTree.build_random([], WIDTH, rng)
    master_key = rng.bytes(16)
    expected = {}
    for item in range(1, 12):
        commit = ops.compute_insertion(engine, master_key, tree.insert_view(),
                                       rng)
        tree.insert_leaf(item, commit.t_new_link, commit.t_new_leaf,
                         commit.e_link, commit.e_leaf)
        expected[item] = commit.chain_output
        assert tree.leaf_count == item
    assert all_keys(engine, tree, master_key) == expected


# ---------------------------------------------------------------------------
# Verification / refusal rules
# ---------------------------------------------------------------------------

def test_verify_distinct_modulators(rng):
    values = [rng.bytes(WIDTH) for _ in range(5)]
    ops.verify_distinct_modulators(values)
    with pytest.raises(DuplicateModulatorError):
        ops.verify_distinct_modulators(values + [values[2]])


def test_verify_path_structure_accepts_real_paths():
    tree = build(9)
    for slot in range(9, 18):
        ops.verify_path_structure(tree.path_view(slot))


def test_verify_path_structure_rejects_bad_shapes(rng):
    good = build(5).path_view(9)
    with pytest.raises(StructureError):
        ops.verify_path_structure(PathView((2, 4, 9), good.path_links[1:],
                                           good.leaf_mod))
    with pytest.raises(StructureError):
        ops.verify_path_structure(PathView((1, 3, 9), good.path_links,
                                           good.leaf_mod))
    with pytest.raises(StructureError):
        ops.verify_path_structure(PathView(good.path_slots,
                                           good.path_links[:-1],
                                           good.leaf_mod))


def test_verify_mt_structure_accepts_and_rejects(rng):
    tree = build(6)
    mt = tree.mt_view(8)
    ops.verify_mt_structure(mt)

    bad_cut = list(mt.cut)
    bad_cut[0] = type(bad_cut[0])(slot=bad_cut[0].slot + 2,
                                  link_mod=bad_cut[0].link_mod,
                                  is_leaf=bad_cut[0].is_leaf,
                                  leaf_mod=bad_cut[0].leaf_mod)
    forged = type(mt)(path_slots=mt.path_slots, path_links=mt.path_links,
                      leaf_mod=mt.leaf_mod, cut=tuple(bad_cut))
    with pytest.raises(StructureError):
        ops.verify_mt_structure(forged)

    short = type(mt)(path_slots=mt.path_slots, path_links=mt.path_links,
                     leaf_mod=mt.leaf_mod, cut=mt.cut[:-1])
    with pytest.raises(StructureError):
        ops.verify_mt_structure(short)


# ---------------------------------------------------------------------------
# Whole-file key derivation
# ---------------------------------------------------------------------------

def _slot_lists(tree):
    n = tree.leaf_count
    links = [None] * (2 * n)
    leaves = [None] * (2 * n)
    for kind, slot, value in tree.iter_modulators():
        (links if kind == "link" else leaves)[slot] = value
    return links, leaves


def test_derive_all_keys_matches_per_path(engine, rng):
    tree = build(10)
    master_key = rng.bytes(16)
    n = tree.leaf_count
    links, leaves = _slot_lists(tree)
    outputs = ops.derive_all_keys(engine, master_key, n, links, leaves)
    for item in tree.item_ids():
        slot = tree.slot_of_item(item)
        expected = engine.evaluate(master_key,
                                   tree.path_view(slot).modulator_list())
        assert outputs[slot] == expected


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
def test_derive_all_keys_equals_per_leaf_evaluate(engine, rng, n):
    """Every level's sliced, doubled parents give each leaf exactly
    ``F(K, M)`` of its own path."""
    tree = build(n, seed=f"derive-{n}")
    links, leaves = _slot_lists(tree)
    master_key = rng.bytes(16)
    outputs = ops.derive_all_keys(engine, master_key, n, links, leaves)
    assert list(outputs) == list(range(n, 2 * n))
    assert outputs == {
        slot: engine.evaluate(master_key,
                              tree.path_view(slot).modulator_list())
        for slot in range(n, 2 * n)}


@pytest.mark.parametrize("kind, slot", [("link", 2), ("link", 7),
                                        ("link", 9), ("leaf", 5),
                                        ("leaf", 9)])
def test_derive_all_keys_names_the_missing_slot(engine, rng, kind, slot):
    tree = build(5)
    links, leaves = _slot_lists(tree)
    (links if kind == "link" else leaves)[slot] = None
    with pytest.raises(StructureError, match=f"{kind} modulator for slot "
                                             f"{slot}$"):
        ops.derive_all_keys(engine, rng.bytes(16), 5, links, leaves)


def test_derive_all_keys_names_a_slot_past_a_short_list(engine, rng):
    links, leaves = _slot_lists(build(5))
    with pytest.raises(StructureError, match="link modulator for slot 8$"):
        ops.derive_all_keys(engine, rng.bytes(16), 5, links[:8], leaves)
    with pytest.raises(StructureError, match="leaf modulator for slot 9$"):
        ops.derive_all_keys(engine, rng.bytes(16), 5, links, leaves[:9])


def test_derive_all_keys_hash_budget(engine, rng):
    """Whole-file derivation is 3n-2 hashes, not n log n."""
    tree = build(32)
    n = tree.leaf_count
    links, leaves = _slot_lists(tree)
    before = engine.hash_calls
    ops.derive_all_keys(engine, rng.bytes(16), n, links, leaves)
    assert engine.hash_calls - before == 3 * n - 2


def test_derive_all_keys_empty(engine):
    assert ops.derive_all_keys(engine, b"\x00" * 16, 0, [], []) == {}


def test_derive_all_keys_missing_modulator(engine, rng):
    with pytest.raises(StructureError):
        ops.derive_all_keys(engine, rng.bytes(16), 2,
                            [None, None, rng.bytes(WIDTH), None],
                            [None, None, rng.bytes(WIDTH), rng.bytes(WIDTH)])

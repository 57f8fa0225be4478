"""Conformance suite: every storage backend obeys the same contract.

Two backend families are exercised here:

* :class:`~repro.server.storage.CiphertextStore` implementations
  (in-memory, callback overlay), through one shared test body each;
* the :class:`~repro.server.engine.TreeStore` contract, on its one
  engine (SQLite).

A ciphertext store that passes here is substitutable for any other in
the server; the twin-world tests in ``test_engine_server.py`` prove an
engine-backed server bit-identical to one without an engine under real
protocol traffic.
"""

import os
import pickle

import pytest

from repro.core.errors import UnknownItemError
from repro.server.engine import (KIND_LEAF, KIND_LINK, FileMeta,
                                 SQLiteTreeStore)
from repro.server.storage import (CallbackCiphertextStore,
                                  InMemoryCiphertextStore)

# ---------------------------------------------------------------------
# CiphertextStore conformance
# ---------------------------------------------------------------------

CT_BACKENDS = ("memory", "callback")


def make_ct_store(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryCiphertextStore()
    return CallbackCiphertextStore(lambda item_id: b"derived-%d" % item_id)


@pytest.fixture(params=CT_BACKENDS)
def ct_store(request, tmp_path):
    return make_ct_store(request.param, tmp_path)


def test_ct_put_get_roundtrip(ct_store):
    ct_store.put(7, b"cipher-7")
    assert ct_store.get(7) == b"cipher-7"


def test_ct_put_replaces(ct_store):
    ct_store.put(7, b"v1")
    ct_store.put(7, b"v2")
    assert ct_store.get(7) == b"v2"


def test_ct_unknown_item_raises(ct_store):
    if isinstance(ct_store, CallbackCiphertextStore):
        pytest.skip("callback store derives any untouched id by design")
    with pytest.raises(UnknownItemError):
        ct_store.get(12345)


def test_ct_delete_then_get_raises(ct_store):
    ct_store.put(9, b"doomed")
    ct_store.delete(9)
    with pytest.raises(UnknownItemError):
        ct_store.get(9)


def test_ct_get_many_keeps_order_and_names_a_missing_item(ct_store):
    for item_id, value in ((1, b"a"), (2, b"b"), (3, b"c")):
        ct_store.put(item_id, value)
    assert ct_store.get_many([3, 1, 2]) == [b"c", b"a", b"b"]
    assert ct_store.get_many([]) == []
    ct_store.delete(2)
    with pytest.raises(UnknownItemError, match="item 2$"):
        ct_store.get_many([1, 2, 3])


def test_ct_delete_is_idempotent(ct_store):
    ct_store.put(3, b"x")
    ct_store.delete(3)
    ct_store.delete(3)  # second delete of the same id must not raise
    ct_store.delete(99999)  # nor deleting a never-stored id


def test_ct_values_are_defensive_copies(ct_store):
    value = bytearray(b"mutable")
    ct_store.put(1, value)
    value[0] = 0x00
    assert ct_store.get(1) == b"mutable"


def test_ct_distinct_ids_are_independent(ct_store):
    ct_store.put(1, b"one")
    ct_store.put(2, b"two")
    ct_store.delete(1)
    assert ct_store.get(2) == b"two"


@pytest.mark.parametrize("kind", ["memory"])
def test_ct_survives_pickle(kind, tmp_path):
    """Server state containing any non-callback store must pickle
    (the CLI vault snapshot path)."""
    store = make_ct_store(kind, tmp_path)
    store.put(5, b"five")
    clone = pickle.loads(pickle.dumps(store))
    assert clone.get(5) == b"five"


# ---------------------------------------------------------------------
# TreeStore engine conformance
# ---------------------------------------------------------------------

ENGINES = ("sqlite",)


def make_tree_store(kind: str, tmp_path):
    return SQLiteTreeStore(str(tmp_path / f"engine-{kind}"))


def reopen(engine, kind: str, tmp_path):
    """Close and reopen the engine."""
    engine.close()
    return SQLiteTreeStore(str(tmp_path / f"engine-{kind}"))


@pytest.fixture(params=ENGINES)
def engine_kind(request):
    return request.param


@pytest.fixture
def engine(engine_kind, tmp_path):
    store = make_tree_store(engine_kind, tmp_path)
    yield store
    store.close()


FID = 42


def test_engine_meta_roundtrip(engine):
    assert engine.get_meta(FID) is None
    engine.set_meta(FileMeta(FID, version=3, n_leaves=8))
    meta = engine.get_meta(FID)
    assert (meta.file_id, meta.version, meta.n_leaves) == (FID, 3, 8)
    engine.set_meta(FileMeta(FID, version=4, n_leaves=16))
    assert engine.get_meta(FID).version == 4


def test_engine_nodes_roundtrip(engine):
    engine.write_nodes(FID, [(KIND_LINK, 2, b"L" * 20),
                             (KIND_LEAF, 4, b"F" * 20)])
    assert engine.get_node(FID, KIND_LINK, 2) == b"L" * 20
    assert engine.get_node(FID, KIND_LEAF, 4) == b"F" * 20
    with pytest.raises(KeyError):
        engine.get_node(FID, KIND_LINK, 3)
    # Same slot, different kind: independent addresses.
    with pytest.raises(KeyError):
        engine.get_node(FID, KIND_LEAF, 2)


def test_engine_node_delete(engine):
    engine.write_nodes(FID, [(KIND_LEAF, 4, b"x" * 20)])
    engine.write_nodes(FID, [(KIND_LEAF, 4, None)])
    with pytest.raises(KeyError):
        engine.get_node(FID, KIND_LEAF, 4)


def test_engine_items_bidirectional(engine):
    engine.write_items(FID, [(100, 4), (101, 5)])
    assert engine.get_slot(FID, 100) == 4
    assert engine.get_item(FID, 5) == 101
    assert engine.get_slot(FID, 999) is None
    assert engine.get_item(FID, 6) is None


def test_engine_item_move_is_order_independent(engine):
    """A batch that moves an item onto a just-vacated slot must apply
    two-pass (removals first), whatever the entry order."""
    engine.write_items(FID, [(100, 4), (101, 5)])
    # 101 vanishes, 100 moves onto 101's old slot -- in the 'bad' order.
    engine.write_items(FID, [(100, 5), (101, None)])
    assert engine.get_slot(FID, 100) == 5
    assert engine.get_item(FID, 5) == 100
    assert engine.get_slot(FID, 101) is None
    assert engine.get_item(FID, 4) is None


def test_engine_item_swap(engine):
    engine.write_items(FID, [(100, 4), (101, 5)])
    engine.write_items(FID, [(100, 5), (101, 4)])
    assert engine.get_item(FID, 4) == 101
    assert engine.get_item(FID, 5) == 100


def test_engine_ciphertexts_roundtrip(engine):
    engine.write_ciphertexts(FID, [(100, b"ct-100")])
    assert engine.get_ciphertext(FID, 100) == b"ct-100"
    engine.write_ciphertexts(FID, [(100, None)])
    with pytest.raises(KeyError):
        engine.get_ciphertext(FID, 100)


def test_engine_files_are_isolated(engine):
    engine.set_meta(FileMeta(1, 0, 4))
    engine.set_meta(FileMeta(2, 0, 4))
    engine.write_nodes(1, [(KIND_LEAF, 4, b"a" * 20)])
    engine.write_nodes(2, [(KIND_LEAF, 4, b"b" * 20)])
    engine.drop_file(1)
    assert engine.get_meta(1) is None
    assert engine.get_node(2, KIND_LEAF, 4) == b"b" * 20
    assert engine.file_ids() == [2]


def test_engine_drop_is_idempotent(engine):
    engine.drop_file(777)  # never stored
    engine.set_meta(FileMeta(777, 0, 2))
    engine.drop_file(777)
    engine.drop_file(777)
    assert engine.get_meta(777) is None


def test_engine_replay_table(engine):
    entries = [(11, b"reply-a"), (12, b"reply-b")]
    engine.set_replay_entries(entries)
    assert engine.replay_entries() == entries
    engine.set_replay_entries([(13, b"reply-c")])  # replace, not append
    assert engine.replay_entries() == [(13, b"reply-c")]


def test_engine_u64_ids(engine):
    """File, item, and request ids are uniform u64 -- the top bit set
    half the time.  Every backend must store them faithfully (SQLite
    maps through two's complement)."""
    big_fid = 2**64 - 3
    big_item = 2**63 + 17
    engine.set_meta(FileMeta(big_fid, 1, 2))
    engine.write_items(big_fid, [(big_item, 2)])
    engine.write_ciphertexts(big_fid, [(big_item, b"big")])
    engine.set_replay_entries([(2**64 - 1, b"r")])
    assert engine.get_meta(big_fid).file_id == big_fid
    assert engine.get_slot(big_fid, big_item) == 2
    assert engine.get_item(big_fid, 2) == big_item
    assert engine.get_ciphertext(big_fid, big_item) == b"big"
    assert engine.replay_entries() == [(2**64 - 1, b"r")]
    assert engine.file_ids() == [big_fid]


def test_engine_read_your_writes_before_flush(engine):
    """Staged writes must be visible to reads before the flush barrier."""
    engine.write_nodes(FID, [(KIND_LEAF, 4, b"staged" + b"\0" * 14)])
    assert engine.get_node(FID, KIND_LEAF, 4).startswith(b"staged")


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_reopen_durability(kind, tmp_path):
    engine = make_tree_store(kind, tmp_path)
    engine.set_meta(FileMeta(FID, 2, 4))
    engine.write_nodes(FID, [(KIND_LINK, 2, b"l" * 20),
                             (KIND_LEAF, 4, b"f" * 20)])
    engine.write_items(FID, [(100, 4)])
    engine.write_ciphertexts(FID, [(100, b"ct")])
    engine.set_replay_entries([(1, b"r")])
    engine.flush()
    engine = reopen(engine, kind, tmp_path)
    try:
        assert engine.get_meta(FID).version == 2
        assert engine.get_node(FID, KIND_LINK, 2) == b"l" * 20
        assert engine.get_slot(FID, 100) == 4
        assert engine.get_ciphertext(FID, 100) == b"ct"
        assert engine.replay_entries() == [(1, b"r")]
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_item_repoint_survives_reopen(kind, tmp_path):
    """A replacement re-points a leaf slot to a fresh item id (the old id
    vanishes, the slot keeps its place) through the paged item map; the
    flushed mapping reads back after a restart."""
    from repro.core.modstore import LazySeededStore
    from repro.core.tree import ModulationTree
    from repro.server.paging import PagedItemMap
    engine = make_tree_store(kind, tmp_path)
    engine.write_items(FID, [(100, 4), (101, 5), (102, 6), (103, 7)])
    engine.flush()
    items = PagedItemMap(engine, FID)
    tree = ModulationTree.wrap(LazySeededStore(20, b"repoint"), 4, items)
    assert tree.replace_item(101, 900) == 5
    items.flush_to_engine()
    engine.flush()
    items.mark_clean()
    engine = reopen(engine, kind, tmp_path)
    try:
        assert engine.get_slot(FID, 101) is None
        assert engine.get_slot(FID, 900) == 5
        assert engine.get_item(FID, 5) == 900
        assert engine.get_item(FID, 4) == 100
        reread = ModulationTree.wrap(LazySeededStore(20, b"repoint"), 4,
                                     PagedItemMap(engine, FID))
        assert reread.item_ids() == [100, 900, 102, 103]
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_unflushed_writes_do_not_survive_crash(kind, tmp_path):
    """Everything since the last flush is gone after a crash -- the
    contract ``compact_storage`` relies on when truncating the WAL."""
    path = str(tmp_path / f"engine-{kind}")
    engine = SQLiteTreeStore(path)
    engine.set_meta(FileMeta(FID, 1, 2))
    engine.flush()
    engine.write_nodes(FID, [(KIND_LEAF, 2, b"lost" + b"\0" * 16)])
    engine.set_meta(FileMeta(FID, 9, 2))
    # Crash: no flush, no close.  SQLite keeps an open transaction that
    # the journal rolls back; emulate process death by rolling back
    # instead of committing.
    engine._conn.rollback()
    engine._conn.close()
    engine = SQLiteTreeStore(path)
    try:
        assert engine.get_meta(FID).version == 1
        with pytest.raises(KeyError):
            engine.get_node(FID, KIND_LEAF, 2)
    finally:
        engine.close()


def test_sqlite_engine_compact_vacuums(tmp_path):
    path = str(tmp_path / "engine.db")
    engine = SQLiteTreeStore(path)
    engine.set_meta(FileMeta(FID, 0, 256))
    engine.write_ciphertexts(FID, [(i, os.urandom(256))
                                   for i in range(512)])
    engine.flush()
    engine.write_ciphertexts(FID, [(i, None) for i in range(512)])
    engine.flush()
    before = os.path.getsize(path)
    engine.compact()
    assert os.path.getsize(path) < before
    assert engine.get_meta(FID).n_leaves == 256
    engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_engine_pickle_reopens_by_path(kind, tmp_path):
    """Engines pickle as a path reference (flush + reopen), so test
    fixtures holding one can round-trip without copying state."""
    engine = make_tree_store(kind, tmp_path)
    engine.set_meta(FileMeta(FID, 5, 4))
    clone = pickle.loads(pickle.dumps(engine))
    try:
        assert clone.get_meta(FID).version == 5
    finally:
        clone.close()
        engine.close()


# ---------------------------------------------------------------------
# Bulk reads: multi-key and slot-ordered range reads, engine and paged
# ---------------------------------------------------------------------

def _node(tag: bytes, slot: int) -> bytes:
    return (tag + b"%d" % slot).ljust(20, b".")


def _paged_tree(engine, file_id, n):
    """A paged tree over ``engine`` (the server's materialised form)."""
    from repro.core.tree import ModulationTree
    from repro.server.paging import (NodeCache, PagedCiphertextStore,
                                     PagedItemMap, PagedModulatorStore)
    store = PagedModulatorStore(engine, file_id, 20, NodeCache())
    tree = ModulationTree.wrap(store, n, PagedItemMap(engine, file_id))
    return tree, PagedCiphertextStore(engine, file_id)


def _write_tree(engine, file_id, n, first_item=100):
    """Engine rows of a complete ``n``-leaf tree, items in slot order."""
    engine.set_meta(FileMeta(file_id, 0, n))
    engine.write_nodes(file_id, [(KIND_LINK, s, _node(b"L", s))
                                 for s in range(2, 2 * n)])
    engine.write_nodes(file_id, [(KIND_LEAF, s, _node(b"F", s))
                                 for s in range(n, 2 * n)])
    items = [(first_item + s - n, s) for s in range(n, 2 * n)]
    engine.write_items(file_id, items)
    engine.write_ciphertexts(file_id, [(item_id, b"ct-%d" % item_id)
                                       for item_id, _slot in items])
    return [item_id for item_id, _slot in items]


def test_engine_bulk_reads_return_slot_order(engine):
    ids = _write_tree(engine, FID, 8)
    assert engine.scan_nodes(FID, KIND_LINK, 2, 16) == \
        [(s, _node(b"L", s)) for s in range(2, 16)]
    assert engine.scan_items(FID, 8, 16) == \
        [(s, ids[s - 8]) for s in range(8, 16)]
    # Multi-point reads answer in the order asked, not key order.
    assert engine.get_nodes(FID, KIND_LEAF, [13, 9, 11]) == \
        [_node(b"F", 13), _node(b"F", 9), _node(b"F", 11)]
    assert engine.get_slots(FID, [ids[5], 999, ids[0]]) == [13, None, 8]
    assert engine.get_ciphertexts(FID, [ids[7], ids[2]]) == \
        [b"ct-%d" % ids[7], b"ct-%d" % ids[2]]
    assert engine.get_nodes(FID, KIND_LINK, []) == []


def test_engine_bulk_reads_of_hundreds_of_keys(engine):
    """Key lists past SQLite's classic 999-variable limit are one read."""
    n = 1200
    ids = _write_tree(engine, FID, n)
    slots = list(range(2 * n - 1, n - 1, -1))
    assert engine.get_nodes(FID, KIND_LEAF, slots) == \
        [_node(b"F", s) for s in slots]
    assert engine.get_slots(FID, ids[::-1]) == slots
    assert engine.get_ciphertexts(FID, ids) == \
        [b"ct-%d" % item_id for item_id in ids]


def test_engine_bulk_reads_see_staged_writes(engine):
    """Bulk reads observe writes staged since the last flush."""
    _write_tree(engine, FID, 4)
    engine.flush()
    engine.write_nodes(FID, [(KIND_LEAF, 5, _node(b"new", 5)),
                             (KIND_LINK, 3, None)])
    engine.write_items(FID, [(101, None), (777, 5)])
    engine.write_ciphertexts(FID, [(777, b"fresh")])
    assert engine.get_nodes(FID, KIND_LEAF, [5]) == [_node(b"new", 5)]
    assert [s for s, _v in engine.scan_nodes(FID, KIND_LINK, 2, 8)] == \
        [2, 4, 5, 6, 7]
    assert engine.scan_items(FID, 4, 8) == [(4, 100), (5, 777), (6, 102),
                                            (7, 103)]
    assert engine.get_slots(FID, [777, 101]) == [5, None]
    assert engine.get_ciphertexts(FID, [777]) == [b"fresh"]


def test_engine_bulk_reads_u64_ids(engine):
    """Multi-key reads carry ids as JSON numbers; the int64 edges of the
    ``_s64`` mapping (2**63 -> INT64_MIN, 2**63 - 1) must survive it."""
    big_fid = 2**64 - 3
    ids = [2**63 + 17, 5, 2**64 - 1, 2**63, 2**63 - 1]
    engine.write_items(big_fid, [(item_id, 3 + i)
                                 for i, item_id in enumerate(ids)])
    engine.write_ciphertexts(big_fid, [(item_id, b"c%d" % i)
                                       for i, item_id in enumerate(ids)])
    engine.write_nodes(big_fid, [(KIND_LEAF, 3, _node(b"F", 3))])
    assert engine.scan_items(big_fid, 0, 10) == \
        [(3 + i, item_id) for i, item_id in enumerate(ids)]
    assert engine.get_slots(big_fid, ids[::-1]) == [7, 6, 5, 4, 3]
    assert engine.get_ciphertexts(big_fid, ids) == \
        [b"c%d" % i for i in range(len(ids))]
    assert engine.get_nodes(big_fid, KIND_LEAF, [3]) == [_node(b"F", 3)]
    assert engine.scan_nodes(big_fid, KIND_LEAF, 0, 10) == \
        [(3, _node(b"F", 3))]


def test_engine_bulk_reads_of_a_dropped_file(engine):
    ids = _write_tree(engine, FID, 4)
    engine.drop_file(FID)
    assert engine.scan_nodes(FID, KIND_LINK, 2, 8) == []
    assert engine.scan_items(FID, 4, 8) == []
    assert engine.get_slots(FID, ids) == [None] * 4
    with pytest.raises(KeyError):
        engine.get_nodes(FID, KIND_LEAF, [4])
    with pytest.raises(KeyError):
        engine.get_ciphertexts(FID, ids[:1])
    tree, cts = _paged_tree(engine, FID, 0)
    assert list(tree.iter_modulators()) == []
    assert tree.item_ids() == []


def test_engine_multi_reads_raise_on_a_missing_key(engine):
    ids = _write_tree(engine, FID, 4)
    with pytest.raises(KeyError):
        engine.get_nodes(FID, KIND_LINK, [2, 99, 3])
    with pytest.raises(KeyError):
        engine.get_ciphertexts(FID, [ids[0], 12345])


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_paged_whole_tree_reads_match_point_reads(engine, n):
    """Range reads of a paged tree equal a per-slot walk, for tiny trees
    too (``n = 0`` reads nothing, ``n = 1`` is a lone root leaf)."""
    _write_tree(engine, FID, n)
    tree, cts = _paged_tree(engine, FID, n)
    store = tree.store
    expected = [("link", s, store.get_link(s)) for s in range(2, 2 * n)] + \
        [("leaf", s, store.get_leaf(s)) for s in range(n, 2 * n)]
    assert list(tree.iter_modulators()) == expected
    ids = tree.item_ids()
    assert ids == [100 + i for i in range(n)]
    assert tree.slots_of_items(ids) == list(range(n, 2 * n))
    assert cts.get_many(ids) == [cts.get(item_id) for item_id in ids]


def test_paged_reads_merge_the_dirty_overlay(engine):
    """Staged (unflushed) tree mutations show through every bulk read."""
    _write_tree(engine, FID, 4)
    tree, cts = _paged_tree(engine, FID, 4)
    store = tree.store
    store.set_leaf(6, _node(b"dirty", 6))
    store.set_link(8, _node(b"grown", 8))
    tree._map.remove(100, 4)  # noqa: SLF001
    tree._map.move(103, 7, 4)  # noqa: SLF001
    tree._map.set(555, 7)  # noqa: SLF001
    cts.put(555, b"new-ct")
    cts.delete(101)
    assert store.get_leaves([6, 5]) == [_node(b"dirty", 6), _node(b"F", 5)]
    assert store.scan_leaves(4, 8)[2] == _node(b"dirty", 6)
    assert store.scan_links(2, 9)[-1] == _node(b"grown", 8)
    assert tree._map.items_in(4, 8) == [(4, 103), (5, 101), (6, 102),
                                        (7, 555)]
    assert tree.slots_of_items([555, 103]) == [7, 4]
    with pytest.raises(UnknownItemError):
        tree.slots_of_items([100])
    assert cts.get_many([555, 102]) == [b"new-ct", b"ct-102"]
    with pytest.raises(UnknownItemError):
        cts.get_many([102, 101])
    with pytest.raises(UnknownItemError):
        cts.get_many([4242])


def test_paged_range_reads_exclude_stale_rows_past_2n(engine):
    """Engine stores never truncate, so a deletion leaves its freed
    slots' rows behind; whole-tree reads stop at ``2n``."""
    _write_tree(engine, FID, 4)
    tree, _cts = _paged_tree(engine, FID, 4)
    x_s = _node(b"xs", 3)
    tree.delete_leaf(7, x_s, None, None)  # k == t: t and s are freed
    for overlay in (tree.store, tree._map):  # noqa: SLF001
        overlay.flush_to_engine()
        overlay.mark_clean()
    assert engine.get_node(FID, KIND_LEAF, 7) == _node(b"F", 7)  # stale
    assert tree.leaf_count == 3
    assert [s for _k, s, _v in tree.iter_modulators()] == \
        [2, 3, 4, 5, 3, 4, 5]
    assert tree.item_ids() == [102, 100, 101]


def test_paged_range_read_raises_on_a_missing_node(engine):
    """A hole inside the requested range raises instead of returning a
    short list."""
    _write_tree(engine, FID, 4)
    engine.write_nodes(FID, [(KIND_LINK, 5, None)])
    tree, _cts = _paged_tree(engine, FID, 4)
    with pytest.raises(KeyError):
        tree.store.scan_links(2, 8)
    with pytest.raises(KeyError):
        list(tree.iter_modulators())
    with pytest.raises(KeyError):
        tree.store.get_links([4, 5])

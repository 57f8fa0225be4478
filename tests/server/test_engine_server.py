"""The out-of-core storage engine under real protocol traffic.

Twin-world discipline: a plain in-memory server and an engine-backed
server run the *same* deterministic client op sequence (same seed, so
identical modulators, request ids, and ciphertext bytes); their
per-file snapshots must be bit-identical at every comparison point --
across mid-sequence compactions, full restarts, and simulated crashes
at both compaction seams.
"""

import pickle
import random
import re

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import ReproError, SimulatedCrash
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.server.cluster import ShardCluster
from repro.server.engine import KIND_LEAF, KIND_LINK, SQLiteTreeStore
from repro.server.paging import NodeCache, PagedModulatorStore
from repro.server.server import (CRASH_POINT_AFTER_FLUSH,
                                 CRASH_POINT_BEFORE_FLUSH, CloudServer)
from repro.server.wal import CommitLog, recover_server
from repro.sim.threat import snapshot_file

pytestmark = pytest.mark.slow

DURABLE = ("sqlite",)


#: Servers the running test built with :func:`_world`.
_WORLDS = []


@pytest.fixture(autouse=True)
def _close_worlds():
    """Close every world's WAL and engine when the test ends, whether or
    not the test closed them itself (closing twice is harmless)."""
    yield
    while _WORLDS:
        server = _WORLDS.pop()
        server.wal.close()
        if server.engine is not None:
            server.engine.close()


def _world(tmp_path, tag, *, backend=None, cache_nodes=65536, seed="twin"):
    """One (server, client, paths) world; same seed => same bytes."""
    wal_path = str(tmp_path / f"wal-{tag}")
    engine = None
    if backend is not None:
        engine = SQLiteTreeStore(str(tmp_path / f"engine-{tag}"))
    server = CloudServer(wal=CommitLog(wal_path), engine=engine)
    _WORLDS.append(server)
    if engine is not None and cache_nodes != 65536:
        server.attach_engine(engine, cache_nodes=cache_nodes)
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom(seed))
    return server, client, wal_path


def _script(server, client, checkpoints=()):
    """A fixed op mix; ``checkpoints[i]`` runs after step i (engine
    worlds pass compact_storage, the reference world passes nothing)."""
    def maybe(step):
        for at, action in checkpoints:
            if at == step:
                action()
    key1 = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids1 = client.item_ids_of(4)
    maybe(0)
    key1 = client.delete(1, key1, ids1[1])
    maybe(1)
    client.modify(1, key1, ids1[0], b"a-v2")
    key2 = client.outsource(2, [b"x", b"y"])
    ids2 = client.item_ids_of(2)
    maybe(2)
    key2 = client.delete_many(2, key2, [ids2[0]])
    new_id = client.insert(1, key1, b"e")
    maybe(3)
    key3 = client.outsource(3, [b"drop-me"])
    server.handle(msg.DeleteFileRequest(file_id=3))
    maybe(4)
    return {"keys": (key1, key2), "ids": (ids1, ids2, new_id)}


@pytest.mark.parametrize("backend", DURABLE)
def test_twin_world_bit_identical(tmp_path, backend):
    """Engine-backed state equals the in-memory reference, byte for
    byte, with compactions interleaved into the op sequence."""
    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, _ = _world(tmp_path, backend, backend=backend)
    _script(ref_server, ref_client)
    _script(eng_server, eng_client,
            checkpoints=[(1, eng_server.compact_storage),
                         (3, eng_server.compact_storage)])
    assert eng_server.file_ids() == ref_server.file_ids() == [1, 2]
    for file_id in (1, 2):
        assert snapshot_file(eng_server, file_id) == \
            snapshot_file(ref_server, file_id)


@pytest.mark.parametrize("backend", DURABLE)
def test_twin_world_survives_restart(tmp_path, backend):
    """Close everything, reopen the engine, recover: still identical --
    and the recovered server pages files in lazily."""
    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, wal_path = _world(tmp_path, backend,
                                              backend=backend)
    _script(ref_server, ref_client)
    _script(eng_server, eng_client)
    eng_server.compact_storage()
    eng_server.wal.close()
    eng_server.engine.close()

    engine = SQLiteTreeStore(str(tmp_path / f"engine-{backend}"))
    recovered = recover_server(wal_path, engine=engine)
    assert recovered.last_recovery["replayed_records"] == 0  # compacted
    assert recovered.file_ids() == [1, 2]
    assert not recovered._files  # nothing materialised yet
    for file_id in (1, 2):
        assert snapshot_file(recovered, file_id) == \
            snapshot_file(ref_server, file_id)
    recovered.wal.close()
    engine.close()


@pytest.mark.parametrize("backend", DURABLE)
def test_recovered_server_keeps_serving(tmp_path, backend):
    """Mutations against paged-in files work and stay identical to the
    reference world applying the same mutations."""
    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, wal_path = _world(tmp_path, backend,
                                              backend=backend)
    out_ref = _script(ref_server, ref_client)
    _script(eng_server, eng_client)
    eng_server.compact_storage()
    eng_server.wal.close()
    eng_server.engine.close()

    engine = SQLiteTreeStore(str(tmp_path / f"engine-{backend}"))
    recovered = recover_server(wal_path, engine=engine,
                               cache_nodes=4)  # force real paging
    client2 = AssuredDeletionClient(LoopbackChannel(recovered),
                                    rng=DeterministicRandom("twin-2"),
                                    keystore=eng_client.keystore,
                                    store_keys=False)
    ref_client2 = AssuredDeletionClient(LoopbackChannel(ref_server),
                                        rng=DeterministicRandom("twin-2"),
                                        keystore=ref_client.keystore,
                                        store_keys=False)
    key1, _key2 = out_ref["keys"]
    ids1 = out_ref["ids"][0]
    for cl in (ref_client2, client2):
        assert cl.access(1, key1, ids1[0]) == b"a-v2"
        cl.modify(1, key1, ids1[2], b"c-v2")
        cl.delete(1, key1, ids1[3])
    recovered.compact_storage()
    assert snapshot_file(recovered, 1) == snapshot_file(ref_server, 1)
    recovered.wal.close()
    engine.close()


@pytest.mark.parametrize("backend", DURABLE)
@pytest.mark.parametrize("point", [CRASH_POINT_BEFORE_FLUSH,
                                   CRASH_POINT_AFTER_FLUSH])
def test_compaction_crash_seams_recover(tmp_path, backend, point):
    """A crash on either side of the engine-flush barrier loses nothing:
    engine snapshot + WAL tail always rebuilds the reference state."""
    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, wal_path = _world(tmp_path, backend,
                                              backend=backend)
    _script(ref_server, ref_client)
    eng_server.compact_storage()  # a first snapshot to crash on top of

    def crashing_compact():
        eng_server.arm_crash(point)
        with pytest.raises(SimulatedCrash):
            eng_server.compact_storage()
    _script(eng_server, eng_client, checkpoints=[(2, crashing_compact)])

    # Process death: drop the handles (neither seam leaves staged,
    # unflushed engine writes -- torn flushes are the engine-format
    # tests' concern) and recover from what is on disk.
    eng_server.wal.close()
    eng_server.engine.close()
    engine = SQLiteTreeStore(str(tmp_path / f"engine-{backend}"))
    recovered = recover_server(wal_path, engine=engine)
    if point == CRASH_POINT_BEFORE_FLUSH:
        # The WAL was not truncated: replay must redo the lost tail.
        assert recovered.last_recovery["replayed_records"] > 0
    assert recovered.file_ids() == [1, 2]
    for file_id in (1, 2):
        assert snapshot_file(recovered, file_id) == \
            snapshot_file(ref_server, file_id)
    recovered.wal.close()
    engine.close()


def test_compact_storage_is_incremental(tmp_path):
    """The second compaction flushes nothing: only state dirtied since
    the last one is written (the perf point of dirty-node tracking)."""
    server, client, _ = _world(tmp_path, "inc", backend="sqlite")
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    first = server.compact_storage()
    assert first["files_converted"] == 1
    second = server.compact_storage()
    assert second["dirty_records"] == 0
    assert second["files_converted"] == 0
    client.delete(1, key, ids[1])
    third = server.compact_storage()
    assert third["dirty_records"] > 0
    assert third["files_flushed"] == 1
    server.wal.close()
    server.engine.close()


def test_compact_storage_requires_engine(tmp_path):
    server = CloudServer()
    with pytest.raises(ReproError):
        server.compact_storage()


def test_engine_backed_server_is_not_picklable(tmp_path):
    server, _client, _ = _world(tmp_path, "nopickle", backend="sqlite")
    with pytest.raises(TypeError):
        pickle.dumps(server)
    server.wal.close()
    server.engine.close()


def test_file_visibility_without_materialisation(tmp_path):
    """has_file / file_ids / file_count see engine-resident files the
    server never paged in."""
    server, client, wal_path = _world(tmp_path, "vis", backend="sqlite")
    client.outsource(1, [b"a"])
    client.outsource(2, [b"b"])
    server.compact_storage()
    server.wal.close()
    engine_path = str(tmp_path / "engine-vis")
    server.engine.close()
    engine = SQLiteTreeStore(engine_path)
    fresh = recover_server(wal_path, engine=engine)
    assert fresh.has_file(1) and fresh.has_file(2)
    assert not fresh.has_file(3)
    assert fresh.file_ids() == [1, 2]
    assert fresh.file_count() == 2
    assert not fresh._files  # still nothing resident
    fresh.wal.close()
    engine.close()


def test_delete_file_reaches_the_engine(tmp_path):
    server, client, _ = _world(tmp_path, "del", backend="sqlite")
    client.outsource(1, [b"a"])
    server.compact_storage()
    assert server.engine.file_ids() == [1]
    server.handle(msg.DeleteFileRequest(file_id=1))
    assert server.engine.file_ids() == []
    assert server.file_ids() == []
    server.wal.close()
    server.engine.close()


# ---------------------------------------------------------------------
# Node cache
# ---------------------------------------------------------------------

def test_node_cache_bounds_and_eviction():
    cache = NodeCache(capacity=4)
    for slot in range(10):
        cache.put((1, 0, slot), b"v%d" % slot)
    assert len(cache) == 4
    assert cache.get((1, 0, 9)) == b"v9"
    assert cache.get((1, 0, 0)) is None  # evicted
    cache.put_many(((2, 0, slot), b"w%d" % slot) for slot in range(3))
    assert len(cache) == 4
    assert cache.get((1, 0, 9)) == b"v9"  # most recently read survives
    assert cache.get((1, 0, 8)) is None
    assert cache.get((2, 0, 2)) == b"w2"


def test_node_cache_purge_file():
    cache = NodeCache(capacity=16)
    cache.put((1, 0, 2), b"a")
    cache.put((2, 0, 2), b"b")
    cache.purge_file(1)
    assert cache.get((1, 0, 2)) is None
    assert cache.get((2, 0, 2)) == b"b"


def test_node_cache_capacity_zero_disables():
    cache = NodeCache(capacity=0)
    cache.put((1, 0, 2), b"a")
    assert cache.get((1, 0, 2)) is None
    assert len(cache) == 0


def test_paging_respects_cache_bound(tmp_path):
    """A tiny node cache stays tiny while serving reads over a larger
    paged-in file (the O(working-set) claim, in miniature)."""
    server, client, wal_path = _world(tmp_path, "bound", backend="sqlite")
    key = client.outsource(1, [b"r%d" % i for i in range(32)])
    ids = client.item_ids_of(32)
    server.compact_storage()
    server.wal.close()
    server.engine.close()
    engine = SQLiteTreeStore(str(tmp_path / "engine-bound"))
    small = recover_server(wal_path, engine=engine, cache_nodes=8)
    client2 = AssuredDeletionClient(LoopbackChannel(small),
                                    rng=DeterministicRandom("bound-2"),
                                    keystore=client.keystore,
                                    store_keys=False)
    for i in range(0, 32, 5):
        assert client2.access(1, key, ids[i]) == b"r%d" % i
    assert len(small._node_cache) <= 8
    tree_store = small.file_state(1).tree.store
    assert isinstance(tree_store, PagedModulatorStore)
    small.wal.close()
    engine.close()


# ---------------------------------------------------------------------
# WAL compaction markers
# ---------------------------------------------------------------------

def test_wal_compact_truncates_and_marks(tmp_path):
    path = str(tmp_path / "wal")
    with CommitLog(path) as log:
        log.append(b"one")
        log.append(b"two")
        log.compact(b"snapshot files=1")
        assert log.records() == []
        assert log.compactions == 1
        assert log.snapshot_marker == b"snapshot files=1"
        log.append(b"three")
    with CommitLog(path) as log:  # reopen: marker survives, records too
        assert log.records() == [b"three"]
        assert log.snapshot_marker == b"snapshot files=1"


def test_wal_compact_is_crash_atomic(tmp_path):
    """The compacted log lands via tmp-write + rename: whatever the
    crash timing, reopening sees either the old or the new log, never a
    half-written one."""
    path = str(tmp_path / "wal")
    with CommitLog(path) as log:
        log.append(b"keep")
        log.compact(b"m1")
        log.append(b"after")
    # A stale compaction temp from a crashed run must not break reopen.
    with open(path + ".compact.tmp", "wb") as handle:
        handle.write(b"garbage")
    with CommitLog(path) as log:
        assert log.records() == [b"after"]


def test_wal_marker_not_replayed(tmp_path):
    """Recovery replays data records only -- the snapshot marker is
    metadata, not a request."""
    server, client, wal_path = _world(tmp_path, "marker", backend="sqlite")
    key = client.outsource(1, [b"a"])
    server.compact_storage()
    client.insert(1, key, b"b")  # one post-compaction record to replay
    server.wal.close()
    server.engine.close()
    engine = SQLiteTreeStore(str(tmp_path / "engine-marker"))
    recovered = recover_server(wal_path, engine=engine)
    assert recovered.file_ids() == [1]
    recovered.wal.close()
    engine.close()


# ---------------------------------------------------------------------
# Sharded tier
# ---------------------------------------------------------------------

@pytest.mark.parametrize("backend", DURABLE)
def test_cluster_compact_and_recover_shard(tmp_path, backend):
    cluster = ShardCluster(2, data_dir=str(tmp_path), durable=True,
                           storage_backend=backend)
    try:
        donor = CloudServer()
        client = AssuredDeletionClient(LoopbackChannel(donor),
                                       rng=DeterministicRandom("shard"))
        client.outsource(1, [b"a", b"b"])
        client.outsource(2, [b"c"])
        cluster.adopt_server(donor)
        stats = cluster.compact()
        assert len(stats) == 2
        assert sum(s["files_converted"] for s in stats) == 2
        before = {fid: snapshot_file(cluster.server_for(fid), fid)
                  for fid in (1, 2)}
        for unit in cluster.units:
            cluster.recover_shard(unit.shard_id)
        after = {fid: snapshot_file(cluster.server_for(fid), fid)
                 for fid in (1, 2)}
        assert after == before
    finally:
        cluster.stop()


@pytest.mark.parametrize("backend", DURABLE)
def test_replace_commit_twin_world_across_restart(tmp_path, backend):
    """A ReplaceCommit against a paged-in file (the slot re-point lands
    in the engine's item table) equals the in-memory reference, before
    and after a compaction plus restart."""
    def replace_script(server, client, compact=lambda: None):
        key = client.outsource(1, [b"a", b"b", b"c", b"d", b"e"])
        ids = client.item_ids_of(5)
        compact()
        key, new_id = client.replace(client.open_replace(1, key, ids[3]),
                                     key, b"d-v2")
        return key, ids, new_id

    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, wal_path = _world(tmp_path, backend,
                                              backend=backend)
    key, ids, new_id = replace_script(ref_server, ref_client)
    assert replace_script(eng_server, eng_client,
                          eng_server.compact_storage) == (key, ids, new_id)
    assert snapshot_file(eng_server, 1) == snapshot_file(ref_server, 1)
    eng_server.compact_storage()
    eng_server.wal.close()
    eng_server.engine.close()

    engine = SQLiteTreeStore(str(tmp_path / f"engine-{backend}"))
    recovered = recover_server(wal_path, engine=engine)
    assert snapshot_file(recovered, 1) == snapshot_file(ref_server, 1)
    reader = AssuredDeletionClient(LoopbackChannel(recovered),
                                   rng=DeterministicRandom("reader"))
    assert reader.access(1, key, new_id) == b"d-v2"
    assert reader.access(1, key, ids[0]) == b"a"
    with pytest.raises(ReproError):
        reader.access(1, key, ids[3])
    recovered.wal.close()
    engine.close()


# ---------------------------------------------------------------------
# Bulk reads: whole-file fetch and per-request views over the engine
# ---------------------------------------------------------------------

def _fetch_bytes(server, file_id):
    """The encoded FetchFileReply."""
    reply = server.handle(msg.FetchFileRequest(file_id=file_id))
    assert isinstance(reply, msg.FetchFileReply), reply
    return msg.encode_message(server.ctx, reply)


def _mixed_script(server, client, compact=lambda: None):
    """Outsource, compact, then a seeded mix of every tree mutation, so
    the fetch after it reads engine rows through dirty overlays."""
    rng = random.Random(20)
    key = client.outsource(1, [b"r%d" % i for i in range(24)])
    live = client.item_ids_of(24)
    compact()
    for step in range(40):
        op = rng.choice(("insert", "delete", "batch", "replace", "modify"))
        if op == "insert" or len(live) < 4:
            live.append(client.insert(1, key, b"i%d" % step))
        elif op == "delete":
            key = client.delete(1, key, live.pop(rng.randrange(len(live))))
        elif op == "batch":
            batch = rng.sample(live, 3)
            key = client.delete_many(1, key, batch)
            live = [item_id for item_id in live if item_id not in batch]
        elif op == "replace":
            index = rng.randrange(len(live))
            ticket = client.open_replace(1, key, live[index])
            key, live[index] = client.replace(ticket, key, b"p%d" % step)
        else:
            client.modify(1, key, rng.choice(live), b"m%d" % step)
    return key, live


@pytest.mark.parametrize("backend", DURABLE)
def test_fetch_reply_bytes_match_reference(tmp_path, backend):
    """The whole-file fetch over engine range scans plus dirty overlays
    is byte-identical to the in-memory server's, before compaction,
    after it, and after a restart."""
    ref_server, ref_client, _ = _world(tmp_path, "ref")
    eng_server, eng_client, wal_path = _world(tmp_path, backend,
                                              backend=backend)
    _mixed_script(ref_server, ref_client)
    _mixed_script(eng_server, eng_client, eng_server.compact_storage)
    expected = _fetch_bytes(ref_server, 1)
    assert eng_server.file_state(1).tree.store.dirty_count > 0
    assert _fetch_bytes(eng_server, 1) == expected
    eng_server.compact_storage()
    assert _fetch_bytes(eng_server, 1) == expected
    eng_server.wal.close()
    eng_server.engine.close()

    engine = SQLiteTreeStore(str(tmp_path / f"engine-{backend}"))
    recovered = recover_server(wal_path, engine=engine)
    assert _fetch_bytes(recovered, 1) == expected
    recovered.wal.close()
    engine.close()


def _paged_world(tmp_path, sizes):
    """A restarted SQLite server holding one compacted file per size,
    nothing paged in and the node cache empty."""
    server, client, wal_path = _world(tmp_path, "paged", backend="sqlite")
    keys = {}
    for file_id, n in enumerate(sizes, start=1):
        keys[file_id] = client.outsource(file_id,
                                         [b"x%d" % i for i in range(n)])
    server.compact_storage()
    server.wal.close()
    server.engine.close()
    engine = SQLiteTreeStore(str(tmp_path / "engine-paged"))
    return recover_server(wal_path, engine=engine), client, keys


class _Statements:
    """SQL statements the engine connection runs inside a ``with``."""

    def __init__(self, server):
        self._conn = server.engine._conn  # noqa: SLF001
        self.sql: list[str] = []

    def __enter__(self):
        self.sql.clear()
        self._conn.set_trace_callback(self.sql.append)
        return self

    def __exit__(self, *exc):
        self._conn.set_trace_callback(None)

    def node_reads(self, kind):
        return [sql for sql in self.sql if "FROM nodes" in sql
                and re.search(rf"\bkind={kind}\b", sql)]


def test_fetch_runs_a_constant_number_of_statements(tmp_path):
    server, _client, _keys = _paged_world(tmp_path, (8, 200))
    for file_id in (1, 2):
        server.file_state(file_id)  # page in: the meta read is not a fetch's
    counts = []
    for file_id in (1, 2):
        with _Statements(server) as statements:
            _fetch_bytes(server, file_id)
        counts.append(len(statements.sql))
    assert counts[0] == counts[1] == 4  # links, leaves, items, ciphertexts
    server.wal.close()
    server.engine.close()


def test_cold_views_read_each_node_kind_in_one_statement(tmp_path):
    server, _client, _keys = _paged_world(tmp_path, (200,))
    tree = server.file_state(1).tree
    for view in (lambda: tree.path_view(263), lambda: tree.mt_view(301),
                 tree.balance_view,
                 lambda: tree.batch_view([205, 330, 399])):
        server._node_cache._entries.clear()  # noqa: SLF001 - every read cold
        with _Statements(server) as statements:
            view()
        assert len(statements.node_reads(KIND_LINK)) == 1
        assert len(statements.node_reads(KIND_LEAF)) == 1
    server.wal.close()
    server.engine.close()


def test_fetch_leaves_the_node_cache_untouched(tmp_path):
    """Whole-file scans neither read nor fill the node cache: its
    contents and LRU order are exactly what they were."""
    server, client, keys = _paged_world(tmp_path, (64,))
    ids = client.item_ids_of(64)
    reader = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("cache"),
                                   keystore=client.keystore,
                                   store_keys=False)
    for item_id in ids[::9]:
        reader.access(1, keys[1], item_id)
    cache = server._node_cache  # noqa: SLF001
    before = list(cache._entries.items())  # noqa: SLF001
    assert before
    _fetch_bytes(server, 1)
    assert list(cache._entries.items()) == before  # noqa: SLF001
    server.wal.close()
    server.engine.close()

"""Server state persistence: checkpoint into the engine, reopen, go on.

The durable format is the SQLite storage engine: a checkpoint is
``compact_storage`` and a restart is a server over the reopened engine
file.  These cases pin what a reopened engine must reproduce (trees,
versions, the replay table) and what opening must refuse.
"""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import (ProtocolError, StorageError,
                               UnknownItemError)
from repro.core.params import SHA256_PARAMS
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.engine import SQLiteTreeStore, make_engine
from repro.server.server import CloudServer
from repro.sim.threat import snapshot_file
from tests.conftest import make_scheme


def save(server, path):
    """Checkpoint ``server``'s whole state into an engine at ``path``."""
    server.attach_engine(SQLiteTreeStore(path))
    server.compact_storage()


def load(path, params=None):
    """A server over the engine file at ``path`` (nothing paged in)."""
    return CloudServer(params, engine=SQLiteTreeStore(path))


def test_roundtrip_preserves_state(tmp_path, scheme):
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d"])
    scheme.delete(fid, ids[1])
    scheme.modify(fid, ids[0], b"a-v2")
    before = snapshot_file(scheme.server, fid)
    path = str(tmp_path / "state.db")
    save(scheme.server, path)

    restored = load(path)
    assert snapshot_file(restored, fid) == before
    assert restored.file_state(fid).version == \
        scheme.server.file_state(fid).version


def test_client_continues_against_restored_server(tmp_path, scheme):
    fid, ids = scheme.new_file([b"x", b"y", b"z"])
    key = scheme._key(fid)
    path = str(tmp_path / "state.db")
    save(scheme.server, path)

    restored = load(path)
    client = AssuredDeletionClient(LoopbackChannel(restored),
                                   rng=DeterministicRandom("restore"),
                                   keystore=scheme.client.keystore,
                                   store_keys=False)
    assert client.access(fid, key, ids[0]) == b"x"
    new_key = client.delete(fid, key, ids[1])
    assert client.fetch_file(fid, new_key) == {ids[0]: b"x", ids[2]: b"z"}


def test_multiple_files(tmp_path, scheme):
    fid1, _ = scheme.new_file([b"one"])
    fid2, _ = scheme.new_file([b"two", b"three"])
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    restored = load(path)
    assert restored.has_file(fid1)
    assert restored.has_file(fid2)
    assert restored.file_state(fid2).tree.leaf_count == 2


def test_empty_server(tmp_path):
    scheme = make_scheme("empty-persist")
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    restored = load(path)
    assert not restored.has_file(1)
    assert restored.file_ids() == []


def test_rejects_garbage(tmp_path):
    path = str(tmp_path / "garbage")
    with open(path, "wb") as handle:
        handle.write(b"NOPE" + b"\x00" * 40)
    with pytest.raises(StorageError, match="not a storage engine"):
        make_engine("sqlite", path)


def test_rejects_foreign_schema(tmp_path):
    """A SQLite database whose tables are not this schema's is refused
    at open, not by a raw ``sqlite3`` error on the first request -- and
    the refused file is left as it was."""
    import sqlite3

    path = tmp_path / "other.db"
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE files (name TEXT, size INTEGER)")
    conn.commit()
    conn.close()
    before = path.read_bytes()
    with pytest.raises(StorageError, match="schema"):
        make_engine("sqlite", str(path))
    assert path.read_bytes() == before


def test_rejects_wrong_parameters(tmp_path, scheme):
    """An engine records its modulator width: one written with 20-byte
    modulators is not served as 32-byte ones."""
    fid, _ = scheme.new_file([b"a"])
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    with pytest.raises(StorageError, match="20-byte"):
        load(path, params=SHA256_PARAMS)
    assert load(path).has_file(fid)  # the right parameters still open it


def test_rejects_wrong_parameters_without_recorded_width(tmp_path, scheme):
    """A file written before the width was recorded has no params row;
    its stored modulators give the width away, so it is refused too."""
    import sqlite3

    fid, _ = scheme.new_file([b"a", b"b"])
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    scheme.server.engine.close()
    conn = sqlite3.connect(path)
    conn.execute("DROP TABLE params")
    conn.commit()
    conn.close()
    with pytest.raises(StorageError, match="20-byte"):
        load(path, params=SHA256_PARAMS)
    assert load(path).has_file(fid)


def test_refuses_to_save_missing_ciphertext(tmp_path, scheme):
    """A tree entry without its ciphertext is corruption.  Writing a
    silently smaller state would look like a clean deletion on reload,
    so the checkpoint must refuse instead of dropping the item -- and
    leave nothing behind for a later flush or close to commit."""
    fid, ids = scheme.new_file([b"a", b"b"])
    scheme.server.file_state(fid).ciphertexts.delete(ids[0])
    path = str(tmp_path / "state.db")
    with pytest.raises(ProtocolError, match="no ciphertext"):
        save(scheme.server, path)
    scheme.server.engine.close()
    assert load(path).file_ids() == []  # nothing half-written


def test_failed_checkpoint_rolls_back_and_keeps_serving(tmp_path, scheme):
    """A checkpoint that fails after staging other files' writes rolls
    them back: the engine keeps the previous snapshot, the running
    server keeps the overlays it has not yet made durable."""
    fid1, ids1 = scheme.new_file([b"a", b"b", b"c"])
    path = str(tmp_path / "state.db")
    save(scheme.server, path)  # file 1 is now paged from the engine
    before = snapshot_file(scheme.server, fid1)
    scheme.modify(fid1, ids1[0], b"a-v2")
    scheme.delete(fid1, ids1[2])
    after = snapshot_file(scheme.server, fid1)
    fid2, ids2 = scheme.new_file([b"x", b"y"])
    scheme.server.file_state(fid2).ciphertexts.delete(ids2[1])
    with pytest.raises(ProtocolError, match="no ciphertext"):
        scheme.server.compact_storage()
    assert snapshot_file(scheme.server, fid1) == after
    assert scheme.access(fid1, ids1[0]) == b"a-v2"
    with pytest.raises(UnknownItemError):
        scheme.access(fid1, ids1[2])
    scheme.server.engine.close()
    restored = load(path)
    assert restored.file_ids() == [fid1]
    assert snapshot_file(restored, fid1) == before


def test_roundtrip_single_item_tree(tmp_path, scheme):
    fid, ids = scheme.new_file([b"only"])
    before = snapshot_file(scheme.server, fid)
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    restored = load(path)
    assert snapshot_file(restored, fid) == before
    assert restored.file_state(fid).tree.leaf_count == 1
    client = AssuredDeletionClient(LoopbackChannel(restored),
                                   rng=DeterministicRandom("single"),
                                   keystore=scheme.client.keystore,
                                   store_keys=False)
    assert client.access(fid, scheme._key(fid), ids[0]) == b"only"


def test_roundtrip_post_delete_states(tmp_path, scheme):
    """Deletion reshapes the tree (leaf moves, shrunk slot range); the
    engine must capture those states too, down to a single survivor."""
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d"])
    scheme.delete(fid, ids[0])
    scheme.delete(fid, ids[3])
    scheme.delete(fid, ids[2])
    before = snapshot_file(scheme.server, fid)
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    restored = load(path)
    assert snapshot_file(restored, fid) == before
    assert restored.file_state(fid).tree.leaf_count == 1
    assert restored.file_state(fid).version == 3
    client = AssuredDeletionClient(LoopbackChannel(restored),
                                   rng=DeterministicRandom("post-delete"),
                                   keystore=scheme.client.keystore,
                                   store_keys=False)
    assert client.access(fid, scheme._key(fid), ids[1]) == b"b"


def test_idempotency_cache_round_trips(tmp_path):
    """The request-id replay table rides in the engine: a commit whose
    Ack was lost is answered, not re-applied, by the restored server."""
    from repro.protocol.faults import (DROP_RESPONSE, NONE, ChannelError,
                                       FaultInjectingChannel)

    server = CloudServer()
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel,
                                   rng=DeterministicRandom("replay-table"))
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    channel._schedule = iter([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])

    path = str(tmp_path / "state.db")
    save(server, path)
    restored = load(path)
    assert restored.replay_cache_entries() == server.replay_cache_entries()

    channel._server = restored
    new_key = client.resume_delete(1, ids[1])
    assert restored.file_state(1).version == 1  # answered from the cache
    assert client.access(1, new_key, ids[0]) == b"a"

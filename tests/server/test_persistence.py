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
from repro.server.engine import KIND_LEAF, KIND_LINK, SQLiteTreeStore
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
        SQLiteTreeStore(path)


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
        SQLiteTreeStore(str(path))
    assert path.read_bytes() == before


def read_everything(engine, fid, ids):
    """Every row of the file: both node kinds and every ciphertext."""
    for kind in (KIND_LINK, KIND_LEAF):
        engine.scan_nodes(fid, kind, 0, 2 ** 63 - 1)
    engine.get_ciphertexts(fid, ids)


def test_damage_open_does_not_read_fails_closed_on_read(tmp_path, scheme):
    """Open reads the schema and each table's first page only.  Damage on
    a later data page surfaces on the read that reaches it -- as a
    ``StorageError``, never a raw ``sqlite3`` error."""
    fid, ids = scheme.new_file([b"record-%03d" % i * 4 for i in range(400)])
    path = tmp_path / "state.db"
    save(scheme.server, str(path))
    scheme.server.engine.close()
    pristine = path.read_bytes()
    page_size = int.from_bytes(pristine[16:18], "big")
    failed_on_read = 0
    for page in range(1, len(pristine) // page_size):  # page 1: schema
        damaged = bytearray(pristine)
        damaged[page * page_size] ^= 0xFF  # the b-tree page type byte
        path.write_bytes(bytes(damaged))
        try:
            engine = SQLiteTreeStore(str(path))
        except StorageError:
            continue  # open reads this page
        try:
            read_everything(engine, fid, ids)
        except StorageError:
            failed_on_read += 1
        finally:
            engine.close()
    assert failed_on_read > 0


def _overwrite_values(path, value):
    """Set every ``nodes.value`` and ``ciphertexts.value`` to ``value``
    through a raw connection.  ``NULL`` needs the columns' ``NOT NULL``
    lifted for the update; the schema text is restored afterwards, so
    the file still opens as an engine file."""
    import sqlite3

    conn = sqlite3.connect(path)
    schema = dict(conn.execute(
        "SELECT name, sql FROM sqlite_master WHERE name IN "
        "('nodes', 'ciphertexts')"))

    def set_schema(table, sql):
        conn.execute("PRAGMA writable_schema=ON")
        conn.execute("UPDATE sqlite_master SET sql=? WHERE name=?",
                     (sql, table))
        conn.commit()
        conn.execute("PRAGMA writable_schema=OFF")

    for table, sql in schema.items():
        set_schema(table, sql.replace("BLOB NOT NULL", "BLOB"))
    conn.close()
    conn = sqlite3.connect(path)
    for table in schema:
        conn.execute(f"UPDATE {table} SET value=?", (value,))
    conn.commit()
    for table, sql in schema.items():
        set_schema(table, sql)
    conn.close()


@pytest.mark.parametrize("value", [None, 7], ids=["null", "integer"])
def test_wrong_typed_value_columns_raise_storage_error(tmp_path, scheme,
                                                       value):
    """A value column that holds no blob is damage inside a row SQLite's
    page checks accept: every read of it raises ``StorageError`` under
    the engine lock instead of handing the value on."""
    fid, ids = scheme.new_file([b"a", b"b", b"c"])
    path = str(tmp_path / "state.db")
    save(scheme.server, path)
    scheme.server.engine.close()
    engine = SQLiteTreeStore(path)
    slot = engine.scan_nodes(fid, KIND_LEAF, 0, 2 ** 63 - 1)[0][0]
    engine.close()
    _overwrite_values(path, value)
    engine = SQLiteTreeStore(path)
    reads = {
        "get_node": lambda: engine.get_node(fid, KIND_LEAF, slot),
        "get_nodes": lambda: engine.get_nodes(fid, KIND_LEAF, [slot]),
        "scan_nodes": lambda: engine.scan_nodes(fid, KIND_LEAF, 0,
                                                2 ** 63 - 1),
        "get_ciphertext": lambda: engine.get_ciphertext(fid, ids[0]),
        "get_ciphertexts": lambda: engine.get_ciphertexts(fid, ids),
    }
    try:
        for name, read in reads.items():
            with pytest.raises(StorageError, match="not bytes"):
                read()
    finally:
        engine.close()


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

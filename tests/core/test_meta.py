"""The two-level meta modulation tree (Section V)."""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import IntegrityError, UnknownItemError
from repro.core.meta import (MetaKeyManager, decode_master_key_record,
                             encode_master_key_record)
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer


@pytest.fixture
def server():
    return CloudServer()


@pytest.fixture
def client(server):
    return AssuredDeletionClient(LoopbackChannel(server),
                                 rng=DeterministicRandom("meta"),
                                 store_keys=False)


@pytest.fixture
def manager(client):
    manager = MetaKeyManager(client, meta_file_id=0, control_key_name="ctrl")
    manager.initialize()
    return manager


def test_record_codec():
    payload = encode_master_key_record(42, b"\x01" * 16)
    assert decode_master_key_record(payload) == (42, b"\x01" * 16)
    with pytest.raises(IntegrityError):
        decode_master_key_record(payload[:-1])
    with pytest.raises(IntegrityError):
        decode_master_key_record(b"\x00" * 5)


def test_register_and_fetch(manager, client):
    key = b"\xaa" * 16
    manager.register(7, key)
    assert manager.master_key(7) == key
    assert manager.managed_file_ids() == [7]


def test_register_twice_rejected(manager):
    manager.register(7, b"\x01" * 16)
    with pytest.raises(IntegrityError):
        manager.register(7, b"\x02" * 16)


def test_unknown_file(manager):
    with pytest.raises(UnknownItemError):
        manager.master_key(99)
    with pytest.raises(UnknownItemError):
        manager.replace_master_key(99, b"\x00" * 16)
    with pytest.raises(UnknownItemError):
        manager.remove(99)


def test_replace_rotates_control_key(manager, client):
    manager.register(7, b"\x01" * 16)
    control_before = client.keystore.get("ctrl")
    manager.replace_master_key(7, b"\x02" * 16)
    assert manager.master_key(7) == b"\x02" * 16
    assert client.keystore.get("ctrl") != control_before


def test_many_files(manager):
    keys = {}
    for fid in range(20):
        key = bytes([fid]) * 16
        manager.register(fid, key)
        keys[fid] = key
    for fid, key in keys.items():
        assert manager.master_key(fid) == key
    manager.remove(13)
    with pytest.raises(UnknownItemError):
        manager.master_key(13)
    assert manager.master_key(12) == keys[12]


def test_remove_rotates_control_key(manager, client):
    manager.register(1, b"\x01" * 16)
    manager.register(2, b"\x02" * 16)
    before = client.keystore.get("ctrl")
    manager.remove(1)
    assert client.keystore.get("ctrl") != before
    assert manager.master_key(2) == b"\x02" * 16


def test_client_stores_only_the_control_key(manager, client):
    for fid in range(10):
        manager.register(fid, bytes([fid]) * 16)
    assert client.keystore.key_bytes_stored() == 16  # one control key


def test_replace_keeps_the_leaf_and_moves_the_record(manager, server):
    """The replacement re-points the record's leaf to a fresh meta item:
    same slot, same tree size, old item gone."""
    for fid in range(5):
        manager.register(fid, bytes([fid]) * 16)
    state = server.file_state(0)
    old_item = manager.meta_item_of(3)
    slot = state.tree.slot_of_item(old_item)
    manager.replace_master_key(3, b"\x33" * 16)
    new_item = manager.meta_item_of(3)
    assert new_item != old_item
    assert state.tree.slot_of_item(new_item) == slot
    assert not state.tree.has_item(old_item)
    assert state.tree.leaf_count == 5
    assert manager.master_key(3) == b"\x33" * 16
    assert manager.master_key(4) == b"\x04" * 16


def _delete_then_insert(manager, meta_client, file_id, new_master_key):
    """The replacement as a meta delete followed by a meta insert (the
    flow ``ReplaceCommit`` folds into one commit)."""
    name = manager.control_key_name
    control = meta_client.delete(manager.meta_file_id,
                                 meta_client.keystore.get(name),
                                 manager.meta_item_of(file_id))
    meta_client.keystore.shred(name)
    meta_client.keystore.put(name, control)
    manager._meta_item_of_file[file_id] = meta_client.insert(
        manager.meta_file_id, control,
        encode_master_key_record(file_id, new_master_key))


def _two_level_world(flow, seed="twin-flow"):
    """Three files under one meta tree, then seeded record deletions.

    The data and meta levels draw from separate seeded generators, so the
    data trees see the same randomness whichever meta flow runs.
    """
    import random

    server = CloudServer()
    data = AssuredDeletionClient(LoopbackChannel(server),
                                 rng=DeterministicRandom(f"{seed}-data"),
                                 store_keys=False)
    meta_client = AssuredDeletionClient(
        LoopbackChannel(server), rng=DeterministicRandom(f"{seed}-meta"),
        store_keys=False)
    manager = MetaKeyManager(meta_client, meta_file_id=0,
                             control_key_name="ctrl")
    manager.initialize()
    live = {}
    for fid in (1, 2, 3):
        manager.register(fid, data.outsource(
            fid, [b"f%d-r%d" % (fid, i) for i in range(7)]))
        live[fid] = data.item_ids_of(7)
    ops = random.Random(seed)
    for _ in range(9):
        fid = ops.choice([f for f in sorted(live) if len(live[f]) > 2])
        victims = ops.sample(live[fid], ops.choice((1, 2)))
        if flow == "delete+insert":
            key = manager.master_key(fid)
        else:
            ticket, key = manager.open_replace(fid)
        if len(victims) == 1:
            new_key = data.delete(fid, key, victims[0])
        else:
            new_key = data.delete_many(fid, key, victims)
        if flow == "delete+insert":
            _delete_then_insert(manager, meta_client, fid, new_key)
        else:
            manager.replace_master_key(fid, new_key, ticket)
        for victim in victims:
            live[fid].remove(victim)
    return server, data, manager


def test_replace_flow_matches_delete_then_insert_twin_world():
    """The folded replacement and the delete-then-insert flow it replaces
    leave bit-identical data trees, the same master keys and the same
    plaintexts behind."""
    from repro.sim.threat import snapshot_file

    old_server, old_data, old_manager = _two_level_world("delete+insert")
    new_server, new_data, new_manager = _two_level_world("replace")
    for fid in (1, 2, 3):
        assert snapshot_file(new_server, fid) == \
            snapshot_file(old_server, fid)
        key = new_manager.master_key(fid)
        assert key == old_manager.master_key(fid)
        assert new_data.fetch_file(fid, key) == old_data.fetch_file(fid, key)
    # One meta commit per deletion instead of two.
    assert new_server.file_state(0).version == 3 + 9
    assert old_server.file_state(0).version == 3 + 2 * 9

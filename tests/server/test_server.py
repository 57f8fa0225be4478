"""The honest cloud server: handlers, versioning, replay cache."""

import dataclasses

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import DuplicateModulatorError, ReproError
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (DROP_REQUEST, NONE, ChannelError,
                                   FaultInjectingChannel)
from repro.server.engine import SQLiteTreeStore
from repro.server.paging import PagedModulatorStore
from repro.server.server import CloudServer


def test_unsupported_message():
    server = CloudServer()
    reply = server.handle(msg.Ack())
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_BAD_REQUEST


def test_unknown_file_and_item(scheme):
    server = scheme.server
    reply = server.handle(msg.AccessRequest(file_id=404, item_id=1))
    assert isinstance(reply, msg.ErrorReply)
    fid, ids = scheme.new_file([b"x"])
    reply = server.handle(msg.AccessRequest(file_id=fid, item_id=999))
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_UNKNOWN_ITEM


def test_outsource_validation():
    server = CloudServer()
    bad = msg.OutsourceRequest(file_id=1, item_ids=(1, 2),
                               links=(), leaves=(), ciphertexts=(b"x",))
    reply = server.handle(bad)
    assert isinstance(reply, msg.ErrorReply)


def test_stale_version_rejected(scheme):
    server = scheme.server
    fid, ids = scheme.new_file([b"a", b"b", b"c"])
    challenge = server.handle(msg.DeleteRequest(file_id=fid, item_id=ids[0]))
    assert isinstance(challenge, msg.DeleteChallenge)
    # Another operation bumps the version before the commit arrives.
    scheme.insert(fid, b"d")
    commit = msg.DeleteCommit(file_id=fid, item_id=ids[0],
                              cut_slots=(), deltas=(),
                              tree_version=challenge.tree_version)
    reply = server.handle(commit)
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_STALE_STATE


def test_commit_cut_must_match_path(scheme):
    server = scheme.server
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d"])
    challenge = server.handle(msg.DeleteRequest(file_id=fid, item_id=ids[0]))
    wrong_cut = tuple(slot + 1 for slot in
                      (entry.slot for entry in challenge.mt.cut))
    commit = msg.DeleteCommit(file_id=fid, item_id=ids[0],
                              cut_slots=wrong_cut,
                              deltas=tuple(b"\x00" * 20 for _ in wrong_cut),
                              x_s_prime=b"\x01" * 20,
                              tree_version=challenge.tree_version)
    reply = server.handle(commit)
    assert isinstance(reply, msg.ErrorReply)


@pytest.mark.parametrize("storage", ["memory", "engine"])
def test_duplicate_balancing_value_is_refused_by_the_client(tmp_path,
                                                            storage):
    """The server keeps no modulator table, so in-memory and paged files
    alike apply a commit whose x_s' equals a live leaf modulator.  The
    defence is the client's: the next deletion whose balanced view holds
    both values is refused before any commit is sent."""
    engine = None
    if storage == "engine":
        engine = SQLiteTreeStore(str(tmp_path / "state.db"))
    server = CloudServer(engine=engine)
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("dup"))
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids = client.item_ids_of(4)
    if engine is not None:
        server.compact_storage()
    state = server.file_state(1)
    assert isinstance(state.tree.store, PagedModulatorStore) == \
        (engine is not None)
    existing = state.tree.store.get_leaf(state.tree.slot_of_item(ids[1]))
    challenge = server.handle(msg.DeleteRequest(file_id=1, item_id=ids[0]))
    reply = server.handle(msg.DeleteCommit(
        file_id=1, item_id=ids[0],
        cut_slots=tuple(e.slot for e in challenge.mt.cut),
        deltas=tuple(b"\x00" * 20 for _ in challenge.mt.cut),
        x_s_prime=existing,  # collides with a live leaf modulator
        dest_link=b"\x11" * 20, dest_leaf=b"\x12" * 20,
        tree_version=challenge.tree_version))
    assert reply == msg.Ack(tree_version=1)

    # ids[2] (the old s) now sits on slot 3 with x_s', and the last leaf
    # t (slot 5, ids[1]) still holds the same value: deleting ids[2]
    # ships both in one balanced view.
    state = server.file_state(1)
    assert state.tree.slot_of_item(ids[2]) == 3
    assert state.tree.slot_of_item(ids[1]) == 5
    round_trips = client.channel.counters.round_trips
    with pytest.raises(DuplicateModulatorError):
        client.delete(1, key, ids[2])
    assert client.channel.counters.round_trips == round_trips + 1
    assert client.pending_deletes() == []
    assert server.file_state(1).version == 1
    if engine is not None:
        engine.close()


# On a 4-leaf file (slots 4..7, t = 7, s = 6, p = 3): which item the
# commit deletes, and how its balancing fields are spoiled.
BAD_MOVES = {
    "x_s-missing": (0, {"x_s_prime": None}),
    "dest_leaf-missing": (0, {"dest_leaf": None}),
    "dest_link-where-t-inherits": (2, {"dest_link": b"\x13" * 20}),
    "dest_link-missing": (0, {"dest_link": None}),
}


@pytest.mark.parametrize("storage", ["memory", "engine"])
@pytest.mark.parametrize("shape", sorted(BAD_MOVES))
def test_refused_delete_commit_changes_nothing(tmp_path, storage, shape):
    """A DeleteCommit whose balancing move has the wrong shape is refused
    before its deltas touch the tree: the modulators, the version and the
    item map stay as they were, and every item still decrypts under the
    old key (Theorem 1 holds only if a refused commit changes nothing)."""
    engine = None
    if storage == "engine":
        engine = SQLiteTreeStore(str(tmp_path / "state.db"))
    server = CloudServer(engine=engine)
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel, rng=DeterministicRandom("shape"))
    items = [b"a", b"b", b"c", b"d"]
    key = client.outsource(1, items)
    ids = client.item_ids_of(4)
    if engine is not None:
        server.compact_storage()
    index, spoil = BAD_MOVES[shape]
    # The client's own commit, journalled but never delivered.
    channel._schedule = iter([NONE, DROP_REQUEST])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[index])
    commit = client.pending_commit(1, ids[index])
    assert any(delta != b"\x00" * 20 for delta in commit.deltas)
    tree = server.file_state(1).tree
    modulators = list(tree.iter_modulators())
    slots = {item_id: tree.slot_of_item(item_id) for item_id in ids}

    reply = server.handle(dataclasses.replace(commit, **spoil))

    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_BAD_REQUEST
    state = server.file_state(1)
    assert state.version == 0
    assert list(state.tree.iter_modulators()) == modulators
    assert {item_id: state.tree.slot_of_item(item_id)
            for item_id in ids} == slots
    assert state.tree.item_ids() == ids
    for item_id, item in zip(ids, items):
        assert client.access(1, key, item_id) == item
    if engine is not None:
        engine.close()


def test_resent_commit_without_request_id_is_refused_as_stale():
    """``request_id = 0`` opts out of the replay cache: a resent commit
    is handled again, and the version check refuses it -- it is never
    applied twice."""
    server = CloudServer()
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel, rng=DeterministicRandom("zero"))
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    channel._schedule = iter([NONE, DROP_REQUEST])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])
    commit = dataclasses.replace(client.pending_commit(1, ids[1]),
                                 request_id=0)
    assert server.handle(commit) == msg.Ack(tree_version=1)
    reply = server.handle(commit)
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_STALE_STATE
    assert server.file_state(1).version == 1
    assert 0 not in dict(server.replay_cache_entries())


def test_restored_replay_cache_keeps_only_the_newest_entries():
    server = CloudServer()
    server.REPLAY_CACHE_LIMIT = 3
    entries = [(i, msg.Ack(tree_version=i)) for i in range(1, 6)]
    server.restore_replay_cache(entries)
    assert server.replay_cache_entries() == entries[-3:]


def test_fetch_file_reply_matches_state(scheme):
    fid, ids = scheme.new_file([b"a", b"b", b"c"])
    reply = scheme.server.handle(msg.FetchFileRequest(file_id=fid))
    assert isinstance(reply, msg.FetchFileReply)
    assert reply.n_leaves == 3
    assert len(reply.links) == 4
    assert len(reply.leaves) == 3
    assert len(reply.ciphertexts) == 3


def test_delete_file_is_idempotent():
    server = CloudServer()
    assert isinstance(server.handle(msg.DeleteFileRequest(file_id=5)), msg.Ack)


def test_handle_bytes_roundtrip():
    server = CloudServer()
    encoded = msg.encode_message(server.ctx, msg.DeleteFileRequest(file_id=1))
    reply = msg.decode_message(server.ctx, server.handle_bytes(encoded))
    assert isinstance(reply, msg.Ack)


def test_modify_requires_fresh_version(scheme):
    fid, ids = scheme.new_file([b"a", b"b"])
    server = scheme.server
    state = server.file_state(fid)
    reply = server.handle(msg.ModifyCommit(file_id=fid, item_id=ids[0],
                                           ciphertext=b"new",
                                           tree_version=state.version + 5))
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_STALE_STATE


def test_deleted_slots_free_their_modulators(scheme):
    """Deleting a quarter of a file shrinks the dense modulator arrays
    with it, so the pickled state per live item stays flat."""
    import pickle

    fid, ids = scheme.new_file([bytes([i % 256]) * 64 for i in range(256)])
    state = scheme.server.file_state(fid)

    def per_item():
        return len(pickle.dumps(state)) / state.tree.leaf_count

    before = per_item()
    for item_id in ids[::4]:
        scheme.delete(fid, item_id)
    n = state.tree.leaf_count
    assert n == 192
    width = state.tree.store.width
    assert len(state.tree.store._links) == 2 * n * width
    assert len(state.tree.store._leaves) == 2 * n * width
    assert per_item() <= before * 1.02


def _replace_commit(challenge, fid, item_id, new_item_id, **fields):
    cut = tuple(entry.slot for entry in challenge.mt.cut)
    return msg.ReplaceCommit(
        file_id=fid, item_id=item_id, new_item_id=new_item_id,
        cut_slots=fields.pop("cut_slots", cut),
        deltas=tuple(bytes([i + 1]) * 20 for i in range(len(cut))),
        ciphertext=b"new-record", tree_version=challenge.tree_version,
        request_id=fields.pop("request_id", 77), **fields)


def test_replace_commit_repoints_the_leaf(scheme):
    server = scheme.server
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d", b"e"])
    state = server.file_state(fid)
    slot = state.tree.slot_of_item(ids[2])
    path_mods = state.tree.path_view(slot).modulator_list()
    challenge = server.handle(msg.DeleteRequest(file_id=fid, item_id=ids[2]))
    commit = _replace_commit(challenge, fid, ids[2], 9000)
    reply = server.handle(commit)
    assert reply == msg.Ack(tree_version=1, item_id=9000)
    assert server.handle(commit) == reply  # retransmission: replay cache
    assert state.version == 1
    assert state.tree.leaf_count == 5
    assert state.tree.slot_of_item(9000) == slot
    assert not state.tree.has_item(ids[2])
    assert state.tree.path_view(slot).modulator_list() == path_mods
    assert state.ciphertexts.get(9000) == b"new-record"
    with pytest.raises(ReproError):
        state.ciphertexts.get(ids[2])


@pytest.mark.parametrize("fault", ["cut", "taken-id"])
def test_replace_commit_refusals_apply_nothing(scheme, fault):
    """A wrong cut or a new item id already in the tree: refused, with
    the tree untouched."""
    server = scheme.server
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d"])
    state = server.file_state(fid)
    before = list(state.tree.iter_modulators())
    challenge = server.handle(msg.DeleteRequest(file_id=fid, item_id=ids[0]))
    if fault == "cut":
        commit = _replace_commit(challenge, fid, ids[0], 9000,
                                 cut_slots=(2, 3))
    else:
        commit = _replace_commit(challenge, fid, ids[0], ids[1])
    reply = server.handle(commit)
    assert isinstance(reply, msg.ErrorReply)
    assert state.version == 0
    assert list(state.tree.iter_modulators()) == before
    assert state.tree.item_ids() == ids

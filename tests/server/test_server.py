"""The honest cloud server: handlers, versioning, duplicate registry."""

import pytest

from repro.core.errors import ReproError
from repro.core.modstore import DenseModulatorStore
from repro.core.tree import ModulationTree
from repro.protocol import messages as msg
from repro.server.server import CloudServer
from repro.server.storage import InMemoryCiphertextStore


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


def test_outsource_rejects_duplicate_modulators():
    server = CloudServer()
    dup = b"\x01" * 20
    request = msg.OutsourceRequest(
        file_id=1, item_ids=(1, 2), links=(dup, dup),
        leaves=(b"\x02" * 20, b"\x03" * 20), ciphertexts=(b"a", b"b"))
    reply = server.handle(request)
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_DUPLICATE_MODULATOR
    assert not server.has_file(1)


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


def test_registry_blocks_duplicate_balancing_value(scheme):
    """A client-supplied balancing modulator colliding with an existing one
    is rejected before any state changes."""
    server = scheme.server
    fid, ids = scheme.new_file([b"a", b"b", b"c", b"d"])
    state = server.file_state(fid)
    existing = state.tree.store.get_leaf(state.tree.slot_of_item(ids[1]))
    challenge = server.handle(msg.DeleteRequest(file_id=fid, item_id=ids[0]))
    version = challenge.tree_version
    commit = msg.DeleteCommit(
        file_id=fid, item_id=ids[0],
        cut_slots=tuple(e.slot for e in challenge.mt.cut),
        deltas=tuple(b"\x00" * 20 for _ in challenge.mt.cut),
        x_s_prime=existing,  # collides with a live leaf modulator
        dest_link=b"\x11" * 20, dest_leaf=b"\x12" * 20,
        tree_version=version)
    reply = server.handle(commit)
    assert isinstance(reply, msg.ErrorReply)
    assert reply.code == msg.E_DUPLICATE_MODULATOR
    assert server.file_state(fid).version == version  # nothing applied


def test_adopt_file_rejects_duplicates():
    store = DenseModulatorStore(20)
    store.set_link(2, b"\x01" * 20)
    store.set_link(3, b"\x01" * 20)
    store.set_leaf(2, b"\x02" * 20)
    store.set_leaf(3, b"\x03" * 20)
    tree = ModulationTree.adopt(store, 2, [1, 2])
    server = CloudServer()
    with pytest.raises(ReproError):
        server.adopt_file(1, tree, InMemoryCiphertextStore())


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

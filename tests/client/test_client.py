"""Client protocol driver: verification, retries, and metrics."""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import (IntegrityError, ProtocolError,
                               UnknownItemError)
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer


@pytest.fixture
def pair():
    server = CloudServer()
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("client-test"))
    return server, client


def test_outsource_and_access_roundtrip(pair):
    _server, client = pair
    key = client.outsource(1, [b"alpha", b"beta"])
    ids = client.item_ids_of(2)
    assert client.access(1, key, ids[0]) == b"alpha"
    assert client.access(1, key, ids[1]) == b"beta"


def test_access_wrong_key_raises_integrity_error(pair):
    _server, client = pair
    client.outsource(1, [b"alpha"])
    ids = client.item_ids_of(1)
    with pytest.raises(IntegrityError):
        client.access(1, b"\x00" * 16, ids[0])


def test_delete_returns_new_key_and_shreds_old(pair):
    _server, client = pair
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    new_key = client.delete(1, key, ids[1])
    assert new_key != key
    assert client.keystore.get("master:1") == new_key
    assert client.access(1, new_key, ids[0]) == b"a"
    with pytest.raises(UnknownItemError):
        client.access(1, new_key, ids[1])


def test_store_keys_flag(pair):
    server, _ = pair
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("nk"),
                                   store_keys=False)
    client.outsource(5, [b"x"])
    assert not client.keystore.has("master:5")


def test_modify_stale_retry(pair):
    """A concurrent writer between access and commit triggers a retry."""
    server, client = pair
    key = client.outsource(1, [b"a", b"b"])
    ids = client.item_ids_of(2)

    original_handle = server.handle
    interfered = {"done": False}

    def interfering_handle(request):
        if isinstance(request, msg.ModifyCommit) and not interfered["done"]:
            interfered["done"] = True
            # Another client inserts before the commit lands.
            server.file_state(1).version += 1
        return original_handle(request)

    server.handle = interfering_handle
    client.modify(1, key, ids[0], b"a-v2")
    record = client.metrics.for_op("modify")[-1]
    assert record.retries == 1
    server.handle = original_handle
    assert client.access(1, key, ids[0]) == b"a-v2"


def test_insert_returns_usable_item(pair):
    _server, client = pair
    key = client.outsource(1, [])
    item = client.insert(1, key, b"first")
    assert client.access(1, key, item) == b"first"
    second = client.insert(1, key, b"second")
    assert second != item
    assert client.access(1, key, second) == b"second"


def test_fetch_file_verifies_every_item(pair):
    _server, client = pair
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    data = client.fetch_file(1, key)
    assert data == {ids[0]: b"a", ids[1]: b"b", ids[2]: b"c"}
    with pytest.raises(IntegrityError):
        client.fetch_file(1, b"\x01" * 16)


@pytest.mark.parametrize("field, change", [
    ("links", lambda links: links + links[:1]),
    ("links", lambda links: links[:-1]),
    ("leaves", lambda leaves: leaves + leaves[:1]),
    ("leaves", lambda leaves: leaves[:-1]),
], ids=["extra-link", "short-links", "extra-leaf", "short-leaves"])
def test_fetch_file_refuses_a_tree_of_the_wrong_size(pair, field, change):
    """A whole-file reply whose modulator lists do not fit ``n`` leaves
    is refused as a protocol error before any key is derived."""
    server, client = pair
    key = client.outsource(1, [b"a", b"b", b"c"])
    original_handle = server.handle

    def resized_handle(request):
        reply = original_handle(request)
        if isinstance(reply, msg.FetchFileReply):
            fields = {name: getattr(reply, name) for name in
                      ("n_leaves", "item_ids", "links", "leaves",
                       "ciphertexts", "tree_version")}
            fields[field] = change(fields[field])
            return msg.FetchFileReply(**fields)
        return reply

    server.handle = resized_handle
    before = client.engine.hash_calls
    with pytest.raises(ProtocolError, match="inconsistent"):
        client.fetch_file(1, key)
    assert client.engine.hash_calls == before


def test_item_ids_of_requires_matching_outsource(pair):
    _server, client = pair
    client.outsource(1, [b"a"])
    with pytest.raises(Exception):
        client.item_ids_of(5)


def test_metrics_include_hash_counts(pair):
    _server, client = pair
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids = client.item_ids_of(4)
    client.delete(1, key, ids[0])
    record = client.metrics.for_op("delete")[0]
    assert record.hash_calls > 0
    assert record.round_trips == 2
    assert record.overhead_bytes > 0
    assert record.client_seconds > 0


def test_deleting_twice_fails_cleanly(pair):
    _server, client = pair
    key = client.outsource(1, [b"a", b"b"])
    ids = client.item_ids_of(2)
    key = client.delete(1, key, ids[0])
    with pytest.raises(UnknownItemError):
        client.delete(1, key, ids[0])

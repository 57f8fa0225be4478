"""Recovery semantics under message loss and duplication.

These tests pin down what the protocol guarantees when the network
misbehaves -- in particular that *assured deletion stays assured* and
that versioned commits are never applied twice.
"""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (CRASH_BEFORE_APPLY, DELAY, DROP_REQUEST,
                                   DROP_RESPONSE, DUPLICATE, NONE,
                                   ChannelError, FaultInjectingChannel)
from repro.server.server import CloudServer
from repro.sim.threat import Adversary, snapshot_file

pytestmark = pytest.mark.slow


def make_pair(schedule, seed="faults"):
    server = CloudServer()
    channel = FaultInjectingChannel(server, schedule)
    client = AssuredDeletionClient(channel, rng=DeterministicRandom(seed))
    return server, channel, client


def outsourced(schedule, n=4, seed="faults"):
    server, channel, client = make_pair(iter([]), seed)
    key = client.outsource(1, [b"item-%d" % i for i in range(n)])
    ids = client.item_ids_of(n)
    channel._schedule = iter(schedule)
    return server, channel, client, key, ids


def test_dropped_read_is_safely_retryable():
    server, channel, client, key, ids = outsourced([DROP_REQUEST])
    with pytest.raises(ChannelError):
        client.access(1, key, ids[0])
    assert client.access(1, key, ids[0]) == b"item-0"


def test_duplicated_read_is_harmless():
    _server, channel, client, key, ids = outsourced([DUPLICATE])
    assert client.access(1, key, ids[0]) == b"item-0"
    assert channel.faults_injected == [DUPLICATE]


def test_duplicated_delete_commit_applies_once():
    """A retransmitted commit must not XOR the deltas twice: the version
    bump on first application makes the duplicate a stale no-op."""
    # Schedule: challenge passes, commit duplicated.
    server, channel, client, key, ids = outsourced([NONE, DUPLICATE])
    new_key = client.delete(1, key, ids[1])
    # All surviving items still decrypt => deltas applied exactly once.
    for index in (0, 2, 3):
        assert client.access(1, new_key, ids[index]) == b"item-%d" % index


def test_duplicated_insert_commit_applies_once():
    server, channel, client, key, ids = outsourced([NONE, DUPLICATE])
    item = client.insert(1, key, b"fresh")
    assert client.access(1, key, item) == b"fresh"
    assert server.file_state(1).tree.leaf_count == 5  # not 6


def test_lost_delete_ack_is_resumable_and_then_assured():
    """The worst case: the server applied the deletion but the ACK is
    lost.  The client journals the commit before sending, so it can
    finalise through the server's replay cache: the deletion completes
    exactly once, the old key is then shredded (deletion time T), and
    both assurance and availability hold."""
    server, channel, client, key, ids = outsourced([NONE, DROP_RESPONSE])

    adversary = Adversary()
    adversary.observe(snapshot_file(server, 1))

    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])
    adversary.observe(snapshot_file(server, 1))

    # Before finalisation the deletion is NOT assured: the old key is
    # still on the device (the paper's T has not happened yet).
    assert client.pending_deletes() == [(1, ids[1])]

    new_key = client.resume_delete(1, ids[1])
    adversary.observe(snapshot_file(server, 1))

    # Now the device is seized: the deleted item is dead, survivors live.
    adversary.seize_keystore(client.keystore.seize())
    assert adversary.try_recover(ids[1]) is None
    assert client.access(1, new_key, ids[0]) == b"item-0"
    assert client.pending_deletes() == []


def test_lost_delete_ack_when_commit_never_arrived():
    """Same journal, other branch: the COMMIT was lost (server never
    acted).  resume_delete applies it now, exactly once."""
    server, channel, client, key, ids = outsourced([NONE, DROP_REQUEST])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[2])
    assert server.file_state(1).tree.leaf_count == 4  # nothing happened
    new_key = client.resume_delete(1, ids[2])
    assert server.file_state(1).tree.leaf_count == 3
    assert client.access(1, new_key, ids[0]) == b"item-0"
    with pytest.raises(UnknownItemError):
        client.access(1, new_key, ids[2])


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_lost_ack_resumes_after_the_request_id_cache_evicted_it(batch):
    """Other files' commits can push a lost-Ack deletion out of the
    bounded request-id cache before the client resumes it.  The server
    then refuses the resend as stale, and the tree settles it: every item
    verifies under the journalled new key and no victim is left, so the
    commit applied once, and the old key is then shredded."""
    server, channel, client, key, ids = outsourced([NONE, DROP_RESPONSE])
    server.REPLAY_CACHE_LIMIT = 4
    victims = (ids[1], ids[3]) if batch else (ids[1],)
    with pytest.raises(ChannelError):
        if batch:
            client.delete_many(1, key, victims)
        else:
            client.delete(1, key, victims[0])
    other_key = client.outsource(2, [b"other"])
    for i in range(2 * server.REPLAY_CACHE_LIMIT):
        client.insert(2, other_key, b"filler-%d" % i)
    assert len(server.replay_cache_entries()) == server.REPLAY_CACHE_LIMIT
    version = server.file_state(1).version

    if batch:
        new_key = client.resume_delete_many(1, victims)
    else:
        new_key = client.resume_delete(1, victims[0])
    assert server.file_state(1).version == version  # not applied again
    assert client.pending_deletes() == client.pending_batch_deletes() == []
    assert client.keystore.seize() == {"master:1": new_key,
                                      "master:2": other_key}
    assert client.access(1, new_key, ids[0]) == b"item-0"
    for victim in victims:
        with pytest.raises(UnknownItemError):
            client.access(1, new_key, victim)


def test_settle_fetch_lost_in_transit_keeps_the_journal():
    """A transport failure while the tree settles a stale resend is not
    an answer: it propagates, the journal entry and the old key stay,
    and the next resume settles the deletion."""
    server, channel, client, key, ids = outsourced([NONE, DROP_RESPONSE])
    server.REPLAY_CACHE_LIMIT = 4
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])
    other_key = client.outsource(2, [b"other"])
    for i in range(2 * server.REPLAY_CACHE_LIMIT):
        client.insert(2, other_key, b"filler-%d" % i)

    channel._schedule = iter([NONE, DROP_REQUEST])  # commit, then fetch
    with pytest.raises(ChannelError):
        client.resume_delete(1, ids[1])
    assert client.pending_deletes() == [(1, ids[1])]
    assert client.keystore.seize()["master:1"] == key
    new_key = client.resume_delete(1, ids[1])
    assert client.pending_deletes() == []
    assert client.access(1, new_key, ids[0]) == b"item-0"


class EvictingRetransmitChannel(LoopbackChannel):
    """Delivers the first request of type ``kind`` and loses its reply;
    other files' inserts then push its request id out of the replay
    cache before the channel retransmits it within the same call."""

    def __init__(self, server, kind, filler):
        super().__init__(server)
        self.kind, self.filler = kind, filler

    def request(self, message):
        if self.kind is not None and isinstance(message, self.kind):
            self.kind = None
            super().request(message)
            self.filler()
        return super().request(message)


@pytest.mark.parametrize("op", ["insert", "replace"])
def test_retransmit_after_the_request_id_cache_evicted_it_applies_once(op):
    """The server refuses the retransmission as stale, and the client
    must not take that for a stale challenge: an insert sent again would
    leave its first copy as an orphan record, and a replacement
    re-opened under the old key would lose the new one.  The client
    finds its commit in the tree and finishes as on an Ack."""
    server = CloudServer()
    server.REPLAY_CACHE_LIMIT = 4
    filler = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("filler"))
    other_key = filler.outsource(2, [b"other"])

    def evict():
        for i in range(2 * server.REPLAY_CACHE_LIMIT):
            filler.insert(2, other_key, b"filler-%d" % i)

    kind = msg.InsertCommit if op == "insert" else msg.ReplaceCommit
    client = AssuredDeletionClient(
        EvictingRetransmitChannel(server, kind, evict),
        rng=DeterministicRandom("retransmit"))
    key = client.outsource(1, [b"item-%d" % i for i in range(4)])
    ids = client.item_ids_of(4)
    version = server.file_state(1).version

    if op == "insert":
        new_id = client.insert(1, key, b"fresh")
        new_key = key
    else:
        new_key, new_id = client.replace(client.open_replace(1, key, ids[1]),
                                         key, b"fresh")
        with pytest.raises(UnknownItemError):
            client.access(1, new_key, ids[1])
    assert server.file_state(1).version == version + 1  # applied once
    assert server.file_state(1).tree.leaf_count == (5 if op == "insert"
                                                    else 4)
    assert client.pending_deletes() == []
    assert client.keystore.seize() == {"master:1": new_key}
    assert client.access(1, new_key, new_id) == b"fresh"
    assert client.access(1, new_key, ids[0]) == b"item-0"


def test_resume_delete_requires_a_journal_entry():
    _server, _channel, client, key, ids = outsourced([])
    with pytest.raises(UnknownItemError):
        client.resume_delete(1, ids[0])


def test_lost_batch_ack_is_resumable_and_then_assured():
    """Batch analogue of the lost-Ack worst case: the server applied the
    whole batch but the Ack was lost.  The journalled commit finalises
    through the replay cache -- applied exactly once -- and only then is
    the old key shredded."""
    server, channel, client, key, ids = outsourced([NONE, DROP_RESPONSE], n=6)
    victims = (ids[1], ids[4])

    adversary = Adversary()
    adversary.observe(snapshot_file(server, 1))

    with pytest.raises(ChannelError):
        client.delete_many(1, key, victims)
    adversary.observe(snapshot_file(server, 1))
    assert server.file_state(1).tree.leaf_count == 4  # server DID act
    assert client.pending_batch_deletes() == [(1, victims)]

    new_key = client.resume_delete_many(1, victims)
    adversary.observe(snapshot_file(server, 1))
    assert server.file_state(1).tree.leaf_count == 4  # applied exactly once

    adversary.seize_keystore(client.keystore.seize())
    for victim in victims:
        assert adversary.try_recover(victim) is None
    assert client.access(1, new_key, ids[0]) == b"item-0"
    assert client.pending_batch_deletes() == []


def test_lost_batch_commit_request_is_resumable():
    """Other branch: the batch COMMIT was lost (server never acted)."""
    server, channel, client, key, ids = outsourced([NONE, DROP_REQUEST], n=6)
    victims = (ids[0], ids[5], ids[2])
    with pytest.raises(ChannelError):
        client.delete_many(1, key, victims)
    assert server.file_state(1).tree.leaf_count == 6  # nothing happened
    new_key = client.resume_delete_many(1, victims)
    assert server.file_state(1).tree.leaf_count == 3
    assert client.access(1, new_key, ids[1]) == b"item-1"
    for victim in victims:
        with pytest.raises(UnknownItemError):
            client.access(1, new_key, victim)


def test_duplicated_batch_commit_applies_once():
    server, channel, client, key, ids = outsourced([NONE, DUPLICATE], n=6)
    new_key = client.delete_many(1, key, (ids[1], ids[3]))
    assert server.file_state(1).tree.leaf_count == 4
    assert server.file_state(1).version == 1
    for index in (0, 2, 4, 5):
        assert client.access(1, new_key, ids[index]) == b"item-%d" % index


def test_resume_batch_requires_a_journal_entry():
    _server, _channel, client, key, ids = outsourced([])
    with pytest.raises(UnknownItemError):
        client.resume_delete_many(1, (ids[0], ids[1]))


def test_lost_modify_commit_response():
    server, channel, client, key, ids = outsourced([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        client.modify(1, key, ids[0], b"new-value")
    # The write actually landed; a re-read shows it.
    assert client.access(1, key, ids[0]) == b"new-value"


def test_unknown_fault_kind_rejected():
    server, channel, client, key, ids = outsourced(["explode"])
    with pytest.raises(ValueError):
        client.access(1, key, ids[0])


def test_delayed_request_still_succeeds():
    server, channel, client, key, ids = outsourced([DELAY])
    channel.delay_seconds = 0.01
    assert client.access(1, key, ids[0]) == b"item-0"
    assert channel.faults_injected == [DELAY]


def test_server_seconds_are_metered():
    """The fault channel must separate server time from client time the
    way the loopback channel does, or Figure-6 metrics lie under fault
    schedules."""
    server, channel, client, key, ids = outsourced([])
    assert channel.counters.server_seconds > 0.0  # the outsource itself

    before = channel.counters.snapshot()
    client.access(1, key, ids[0])
    single = channel.counters.delta(before).server_seconds
    assert single > 0.0

    # A duplicated delivery runs the server twice; both runs are metered.
    channel._schedule = iter([DUPLICATE])
    before = channel.counters.snapshot()
    client.access(1, key, ids[0])
    doubled = channel.counters.delta(before).server_seconds
    assert doubled > 0.0

    # A dropped response still cost the server its work.
    channel._schedule = iter([DROP_RESPONSE])
    before = channel.counters.snapshot()
    with pytest.raises(ChannelError):
        client.access(1, key, ids[0])
    assert channel.counters.delta(before).server_seconds > 0.0


def test_crash_trap_does_not_leak_to_later_requests():
    """A crash scheduled against a non-mutating request never fires (the
    crash points sit on the commit path); it must be disarmed rather than
    left waiting for the next mutating request."""
    server, channel, client, key, ids = outsourced([CRASH_BEFORE_APPLY])
    assert client.access(1, key, ids[0]) == b"item-0"
    assert channel.faults_injected == [CRASH_BEFORE_APPLY]
    client.delete(1, key, ids[1])  # would crash if the trap leaked
    assert server.file_state(1).tree.leaf_count == 3


# ----------------------------------------------------------------------
# File-system level: the two-level deletion under message loss
# ----------------------------------------------------------------------

def fs_pair(n=5):
    """A file system over the fault channel, plus its server and file."""
    from repro.fs.filesystem import OutsourcedFileSystem
    server = CloudServer()
    channel = FaultInjectingChannel(server, [])
    fs = OutsourcedFileSystem(channel, rng=DeterministicRandom("fs-faults"))
    fs.create_file("g/other", [b"other"])
    handle = fs.create_file("g/f", [b"r%d" % i for i in range(n)])
    return server, channel, fs, handle


def _versions(server, fs, handle):
    meta_id = fs.group_manager_of(handle.name).meta_file_id
    return (server.file_state(handle.file_id).version,
            server.file_state(meta_id).version)


# delete_record's requests: meta DeleteRequest, data DeleteRequest, data
# DeleteCommit, meta ReplaceCommit.
@pytest.mark.parametrize("schedule", [
    [NONE, NONE, DROP_RESPONSE],           # data commit applied, Ack lost
    [NONE, NONE, DROP_REQUEST],            # data commit never arrived
    [NONE, NONE, NONE, DROP_RESPONSE],     # replace applied, Ack lost
    [NONE, NONE, NONE, DROP_REQUEST],      # replace never arrived
], ids=["data-ack", "data-commit", "replace-ack", "replace-commit"])
def test_fs_resume_delete_converges_exactly_once(schedule):
    """Whichever commit of a record deletion is lost in transit,
    resume_delete finishes it: both trees move exactly once, the record
    is gone, the survivors read back, and nothing stays journalled."""
    server, channel, fs, handle = fs_pair()
    victim = handle._record.index.item_id_at(2)
    adversary = Adversary()
    adversary.observe(snapshot_file(server, handle.file_id))

    channel._schedule = iter(schedule)
    with pytest.raises(ChannelError):
        handle.delete_record(2)
    assert handle.record_count == 5  # not removed before the Ack
    adversary.observe(snapshot_file(server, handle.file_id))

    handle.resume_delete(2)
    adversary.observe(snapshot_file(server, handle.file_id))
    assert _versions(server, fs, handle) == (1, 3)  # 2 registers + 1
    assert handle.read_all() == [b"r0", b"r1", b"r3", b"r4"]
    assert fs.open("g/other").read_all() == [b"other"]
    assert fs.client.pending_deletes() == []

    manager = fs.group_manager_of(handle.name)
    adversary.seize_keystore(fs.client.keystore.seize())
    adversary.seized_keys.append(manager.master_key(handle.file_id))
    assert adversary.try_recover(victim) is None


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
def test_fs_resume_of_a_never_applied_delete_after_the_file_moved(batch):
    """A data commit that never arrived, after which the client moved the
    file itself (an append), can no longer be resent: the tree opens
    under ``K``, not ``K'``.  Resume then runs the deletion afresh on the
    same positions, so both trees move once and the journal empties."""
    server, channel, fs, handle = fs_pair()
    victims = [handle._record.index.item_id_at(p) for p in (1, 2)]
    adversary = Adversary()
    adversary.observe(snapshot_file(server, handle.file_id))

    channel._schedule = iter([NONE, NONE, DROP_REQUEST])
    with pytest.raises(ChannelError):
        if batch:
            handle.delete_many([1, 2])
        else:
            handle.delete_record(2)
    handle.append_record(b"r5")
    adversary.observe(snapshot_file(server, handle.file_id))
    data_version, meta_version = _versions(server, fs, handle)

    if batch:
        handle.resume_delete_many([1, 2])
    else:
        handle.resume_delete(2)
    adversary.observe(snapshot_file(server, handle.file_id))
    assert _versions(server, fs, handle) == (data_version + 1,
                                             meta_version + 1)
    survivors = [b"r0", b"r3", b"r4", b"r5"] if batch else \
        [b"r0", b"r1", b"r3", b"r4", b"r5"]
    assert handle.read_all() == survivors
    assert fs.client.pending_deletes() == []
    assert fs.client.pending_batch_deletes() == []

    manager = fs.group_manager_of(handle.name)
    adversary.seize_keystore(fs.client.keystore.seize())
    adversary.seized_keys.append(manager.master_key(handle.file_id))
    for victim in (victims if batch else victims[1:]):
        assert adversary.try_recover(victim) is None


def test_fs_resume_delete_many_after_lost_replace_ack():
    """The batch path shares the meta recovery: a lost ReplaceCommit Ack
    is finished from the journal, applied once."""
    server, channel, fs, handle = fs_pair(n=6)
    channel._schedule = iter([NONE, NONE, NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        handle.delete_many([1, 4])
    handle.resume_delete_many([1, 4])
    assert _versions(server, fs, handle) == (1, 3)
    assert handle.read_all() == [b"r0", b"r2", b"r3", b"r5"]
    assert fs.client.pending_deletes() == []


def test_fs_resume_delete_requires_a_journal_entry():
    _server, _channel, _fs, handle = fs_pair()
    with pytest.raises(UnknownItemError):
        handle.resume_delete(0)


# delete_file's requests: meta DeleteRequest, meta DeleteCommit,
# DeleteFileRequest.
@pytest.mark.parametrize("schedule", [
    [DROP_REQUEST],                        # challenge lost
    [NONE, DROP_RESPONSE],                 # meta delete applied, Ack lost
    [NONE, DROP_REQUEST],                  # meta delete never arrived
    [NONE, NONE, DROP_RESPONSE],           # space reclamation Ack lost
], ids=["challenge", "meta-ack", "meta-commit", "drop-ack"])
def test_delete_file_is_retryable_after_a_transport_failure(schedule):
    """The name and the meta-item mapping stay bound until every step is
    acknowledged, so a repeated delete_file finishes the job -- the
    master key is shredded exactly once -- instead of reporting "no such
    file" while the key is still live on the server."""
    server, channel, fs, handle = fs_pair()
    manager = fs.group_manager_of(handle.name)
    meta_item = manager.meta_item_of(handle.file_id)
    adversary = Adversary()
    adversary.observe(snapshot_file(server, manager.meta_file_id))

    channel._schedule = iter(schedule)
    with pytest.raises(ChannelError):
        fs.delete_file("g/f")
    assert fs.exists("g/f")
    fs.delete_file("g/f")

    assert not fs.exists("g/f")
    assert not server.has_file(handle.file_id)
    assert not manager.manages(handle.file_id)
    assert server.file_state(manager.meta_file_id).version == 3  # 2 + 1
    assert fs.open("g/other").read_all() == [b"other"]
    adversary.observe(snapshot_file(server, manager.meta_file_id))
    adversary.seize_keystore(fs.client.keystore.seize())
    assert adversary.try_recover(meta_item) is None
    with pytest.raises(UnknownItemError):
        fs.delete_file("g/f")


def test_delete_file_finishes_a_pending_replacement_first():
    """A whole-file delete after a record delete lost its ReplaceCommit
    Ack resumes the replacement before shredding, so neither the old nor
    the new master-key record survives."""
    server, channel, fs, handle = fs_pair()
    manager = fs.group_manager_of(handle.name)
    old_item = manager.meta_item_of(handle.file_id)
    adversary = Adversary()
    channel._schedule = iter([NONE, NONE, NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        handle.delete_record(0)
    adversary.observe(snapshot_file(server, manager.meta_file_id))
    new_item = fs.client.pending_commit(manager.meta_file_id,
                                        old_item).new_item_id
    fs.delete_file("g/f")
    adversary.observe(snapshot_file(server, manager.meta_file_id))
    assert fs.client.pending_deletes() == []
    assert server.file_state(manager.meta_file_id).tree.leaf_count == 1
    adversary.seize_keystore(fs.client.keystore.seize())
    assert adversary.try_recover(old_item) is None
    assert adversary.try_recover(new_item) is None
    assert fs.open("g/other").read_all() == [b"other"]

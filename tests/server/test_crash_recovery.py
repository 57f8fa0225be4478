"""Kill -9 semantics: every mutating operation is all-or-nothing.

The harness runs the real client against a WAL-backed server through the
fault-injecting channel, fires a simulated crash at each commit crash
point, restarts the server from disk (``recover_server``), and then
replays the client's retransmission -- the same encoded bytes, same
request id.  The pinned property is the one the paper's assurance
argument needs: after recovery the operation is either fully applied or
fully absent, and the retry converges to applied *exactly once*.
"""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.faults import (CRASH_AFTER_APPLY, CRASH_BEFORE_APPLY,
                                   DROP_RESPONSE, NONE, ChannelError,
                                   FaultInjectingChannel)
from repro.server.server import CloudServer
from repro.server.wal import CommitLog, checkpoint, recover_server
from repro.sim.threat import snapshot_file

pytestmark = pytest.mark.slow

CRASH_POINTS = [CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY]


class Harness:
    """One durable server + client pair with deterministic randomness."""

    def __init__(self, directory, seed="crash", n=6, group_commit=False):
        directory.mkdir(exist_ok=True)
        self.image = str(directory / "server.img")
        self.wal_path = str(directory / "server.wal")
        self.server = CloudServer(wal=CommitLog(self.wal_path,
                                                group_commit=group_commit))
        self.channel = FaultInjectingChannel(self.server, [])
        self.client = AssuredDeletionClient(self.channel,
                                            rng=DeterministicRandom(seed))
        self.key = self.client.outsource(
            1, [b"item-%d" % i for i in range(n)])
        self.ids = self.client.item_ids_of(n)
        checkpoint(self.server, self.image)

    def schedule(self, faults):
        self.channel._schedule = iter(faults)

    def restart(self):
        """Simulate the kill -9: only the on-disk state survives."""
        self.server.wal.close()
        self.server = recover_server(self.image, self.wal_path)
        self.channel._server = self.server  # the client re-dials
        return self.server


# Each operation, with the fault-schedule prefix covering its
# non-mutating message(s) and the file id its commit lands on.
def _op_modify(h):
    h.client.modify(1, h.key, h.ids[0], b"patched")


def _op_insert(h):
    h.client.insert(1, h.key, b"fresh")


def _op_delete(h):
    h.client.delete(1, h.key, h.ids[1])


def _op_batch_delete(h):
    h.client.delete_many(1, h.key, (h.ids[1], h.ids[4]))


def _op_replace(h):
    ticket = h.client.open_replace(1, h.key, h.ids[1])
    h.client.replace(ticket, h.key, b"replacement")


def _op_outsource(h):
    h.client.outsource(2, [b"second-file"])


def _op_delete_file(h):
    h.client.delete_file_state(1)


OPS = [
    ("modify", _op_modify, [NONE], 1),
    ("insert", _op_insert, [NONE], 1),
    ("delete", _op_delete, [NONE], 1),
    ("batch-delete", _op_batch_delete, [NONE], 1),
    ("replace", _op_replace, [NONE], 1),
    ("outsource", _op_outsource, [], 2),
    ("delete-file", _op_delete_file, [], 1),
]


@pytest.mark.parametrize("crash", CRASH_POINTS)
@pytest.mark.parametrize("name,op,prefix,file_id", OPS,
                         ids=[name for name, *_ in OPS])
def test_crash_then_retry_applies_exactly_once(tmp_path, name, op, prefix,
                                               file_id, crash):
    """The WAL record is durable before either crash point, so recovery
    applies the operation; the retransmission is answered from the
    request-id cache without a second application, and the final state
    equals a crash-free run with identical randomness."""
    h = Harness(tmp_path / "crashed")
    twin = Harness(tmp_path / "twin")
    op(twin)  # the crash-free outcome (same seed, same rng draws)

    h.schedule(prefix + [crash])
    with pytest.raises(ChannelError):
        op(h)
    commit_bytes = h.channel.last_request_bytes

    recovered = h.restart()
    # The client's retry: same bytes, same request id -- twice, to pin
    # idempotence of the retry itself.
    first = recovered.handle_bytes(commit_bytes)
    assert isinstance(msg.decode_message(recovered.ctx, first), msg.Ack)
    assert recovered.handle_bytes(commit_bytes) == first

    if name == "delete-file":
        assert not recovered.has_file(1)
        assert not twin.server.has_file(1)
    else:
        assert snapshot_file(recovered, file_id) == \
            snapshot_file(twin.server, file_id)
        assert recovered.file_state(file_id).version == \
            twin.server.file_state(file_id).version


@pytest.mark.parametrize("crash", CRASH_POINTS)
def test_journalled_delete_converges_across_restart(tmp_path, crash):
    """End to end through the client: the deletion journal survives the
    server crash, resume_delete converges, and only then is the old key
    shredded (the paper's deletion time T)."""
    h = Harness(tmp_path)
    h.schedule([NONE, crash])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[2])
    assert h.client.pending_deletes() == [(1, h.ids[2])]

    h.restart()
    new_key = h.client.resume_delete(1, h.ids[2])
    assert h.client.pending_deletes() == []
    assert h.server.file_state(1).tree.leaf_count == 5
    assert h.server.file_state(1).version == 1  # exactly once
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"
    with pytest.raises(UnknownItemError):
        h.client.access(1, new_key, h.ids[2])


@pytest.mark.parametrize("crash", CRASH_POINTS)
def test_journalled_batch_converges_across_restart(tmp_path, crash):
    h = Harness(tmp_path)
    victims = (h.ids[1], h.ids[4])
    h.schedule([NONE, crash])
    with pytest.raises(ChannelError):
        h.client.delete_many(1, h.key, victims)
    assert h.client.pending_batch_deletes() == [(1, victims)]

    h.restart()
    new_key = h.client.resume_delete_many(1, victims)
    assert h.server.file_state(1).tree.leaf_count == 4
    assert h.server.file_state(1).version == 1
    for index in (0, 2, 3, 5):
        assert h.client.access(1, new_key, h.ids[index]) == b"item-%d" % index
    for victim in victims:
        with pytest.raises(UnknownItemError):
            h.client.access(1, new_key, victim)


@pytest.mark.parametrize("crash", CRASH_POINTS)
def test_journalled_replace_converges_across_restart(tmp_path, crash):
    """The replacement's journal survives the crash too: resume_replace
    applies the ReplaceCommit exactly once, files the record under its
    new id and only then hands back the new key."""
    h = Harness(tmp_path)
    ticket = h.client.open_replace(1, h.key, h.ids[2])
    h.schedule([crash])
    with pytest.raises(ChannelError):
        h.client.replace(ticket, h.key, b"replacement")
    assert h.client.pending_deletes() == [(1, h.ids[2])]

    h.restart()
    new_key, new_id = h.client.resume_replace(1, h.ids[2])
    assert h.client.pending_deletes() == []
    assert h.server.file_state(1).tree.leaf_count == 6  # kept in place
    assert h.server.file_state(1).version == 1  # exactly once
    assert h.client.access(1, new_key, new_id) == b"replacement"
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"
    with pytest.raises(UnknownItemError):
        h.client.access(1, new_key, h.ids[2])


@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["per-append", "group-commit"])
def test_every_wal_truncation_point_is_all_or_nothing(tmp_path,
                                                      group_commit):
    """Sweep the kill -9 over every byte of the WAL write itself.

    A commit crashes after application; its WAL file is then truncated at
    every possible offset (the torn record a real crash mid-``write``
    leaves).  Recovery from each prefix must yield either the pre-commit
    state (record torn => fully absent) or the applied state (record
    durable => fully applied), and the client's retransmitted commit must
    converge to the same applied-exactly-once state from both.  Group
    commit must not change the on-disk story at any cut."""
    h = Harness(tmp_path / "origin", n=5, group_commit=group_commit)
    baseline = snapshot_file(h.server, 1)
    h.schedule([NONE, CRASH_AFTER_APPLY])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[1])
    commit_bytes = h.channel.last_request_bytes
    h.server.wal.close()

    wal_bytes = (tmp_path / "origin" / "server.wal").read_bytes()
    record_start = 6  # header: magic + u16 version
    assert len(wal_bytes) > record_start  # exactly one logged commit
    applied = None
    for cut in range(len(wal_bytes) + 1):
        trial = tmp_path / f"cut-{cut}"
        trial.mkdir()
        wal_copy = trial / "server.wal"
        wal_copy.write_bytes(wal_bytes[:cut])
        recovered = recover_server(h.image, str(wal_copy))
        torn = cut < len(wal_bytes)
        if torn:
            assert snapshot_file(recovered, 1) == baseline  # fully absent
            assert recovered.file_state(1).version == 0
        # The client's journalled retry: same commit bytes either way.
        reply = msg.decode_message(recovered.ctx,
                                   recovered.handle_bytes(commit_bytes))
        assert isinstance(reply, msg.Ack)
        final = snapshot_file(recovered, 1)
        if applied is None:
            applied = final
        assert final == applied
        assert final != baseline
        assert recovered.file_state(1).version == 1
        recovered.wal.close()


@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["per-append", "group-commit"])
def test_append_failure_then_crash_keeps_acknowledged_commits(tmp_path,
                                                              group_commit):
    """Injected append failure mid-run: the commit whose fsync failed was
    never acknowledged, the commits before AND after it were.  Recovery
    must replay exactly the acknowledged ones -- the torn record cannot
    be allowed to hide the later appends from the scan."""
    failures = {"armed": False}

    class _FailingSyncLog(CommitLog):
        def _sync(self, fileno):
            if failures["armed"]:
                failures["armed"] = False
                raise OSError(28, "No space left on device")
            super()._sync(fileno)

    directory = tmp_path / "flaky"
    directory.mkdir()
    image = str(directory / "server.img")
    wal_path = str(directory / "server.wal")
    server = CloudServer(wal=_FailingSyncLog(wal_path,
                                             group_commit=group_commit))
    client = AssuredDeletionClient(FaultInjectingChannel(server, []),
                                   rng=DeterministicRandom("flaky"))
    key = client.outsource(1, [b"item-%d" % i for i in range(4)])
    ids = client.item_ids_of(4)
    checkpoint(server, image)

    client.modify(1, key, ids[0], b"acknowledged-1")
    failures["armed"] = True
    with pytest.raises(OSError):
        client.modify(1, key, ids[1], b"never-acknowledged")
    client.modify(1, key, ids[2], b"acknowledged-2")  # after the repair
    expected = snapshot_file(server, 1)
    server.wal.close()

    recovered = recover_server(image, wal_path)
    assert snapshot_file(recovered, 1) == expected
    recovered.wal.close()


def test_missing_wal_directory_entry_recovers_from_image(tmp_path):
    """The lost-directory-entry crash: the WAL file's name never became
    durable and the file is simply gone after restart.  Recovery must
    fall back to the checkpoint image, recreate the log (and this time
    fsync the directory), and keep serving durably."""
    h = Harness(tmp_path)
    h.client.modify(1, h.key, h.ids[0], b"checkpointed")
    checkpoint(h.server, h.image)
    expected = snapshot_file(h.server, 1)
    h.server.wal.close()
    import os
    os.unlink(h.wal_path)  # the directory entry the crash forgot

    recovered = recover_server(h.image, h.wal_path)
    assert os.path.exists(h.wal_path)  # recreated, header only
    assert snapshot_file(recovered, 1) == expected
    # And the recreated log keeps accepting durable commits.
    client = AssuredDeletionClient(FaultInjectingChannel(recovered, []),
                                   rng=DeterministicRandom("post"),
                                   keystore=h.client.keystore,
                                   store_keys=False)
    client.modify(1, h.key, h.ids[1], b"after-recreate")
    recovered.wal.close()
    again = recover_server(h.image, h.wal_path)
    assert snapshot_file(again, 1) == snapshot_file(recovered, 1)
    again.wal.close()


def test_retry_after_checkpoint_answers_from_persisted_cache(tmp_path):
    """The Ack is lost, the server checkpoints (WAL reset!) and crashes.
    The only thing that can answer the client's retry correctly is the
    replay cache persisted inside the image -- without it the retry
    would bounce off the version check as stale."""
    h = Harness(tmp_path)
    h.schedule([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[3])
    checkpoint(h.server, h.image)

    h.restart()
    with open(h.wal_path, "rb") as handle:
        assert len(handle.read()) == 6  # nothing left to replay
    new_key = h.client.resume_delete(1, h.ids[3])
    assert h.server.file_state(1).version == 1  # answered, not re-applied
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"


def test_crash_without_wal_stays_consistent_in_memory():
    """Crash points also work without a WAL attached (pure fault test):
    before-apply leaves the state untouched, after-apply leaves it
    applied, and the journalled retry converges either way."""
    server = CloudServer()
    channel = FaultInjectingChannel(server, [])
    client = AssuredDeletionClient(channel, rng=DeterministicRandom("mem"))
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids = client.item_ids_of(4)

    channel._schedule = iter([NONE, CRASH_BEFORE_APPLY])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[1])
    assert server.file_state(1).tree.leaf_count == 4  # untouched
    key = client.resume_delete(1, ids[1])
    assert server.file_state(1).tree.leaf_count == 3

    channel._schedule = iter([NONE, CRASH_AFTER_APPLY])
    with pytest.raises(ChannelError):
        client.delete(1, key, ids[2])
    assert server.file_state(1).tree.leaf_count == 2  # applied
    key = client.resume_delete(1, ids[2])
    assert server.file_state(1).tree.leaf_count == 2  # exactly once
    assert client.access(1, key, ids[0]) == b"a"

"""Kill -9 semantics: every mutating operation is all-or-nothing.

The harness runs the real client against a durable server (SQLite
engine + WAL) through the fault-injecting channel, fires a simulated
crash at each commit crash point, restarts the server from disk
(``recover_server`` over a reopened engine), and then replays the
client's retransmission -- the same encoded bytes, same
request id.  The pinned property is the one the paper's assurance
argument needs: after recovery the operation is either fully applied or
fully absent, and the retry converges to applied *exactly once*.
"""

import os
import shutil
import threading
import time

import pytest

from repro.client.client import AssuredDeletionClient
from repro.core.errors import UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.faults import (CRASH_AFTER_APPLY, CRASH_BEFORE_APPLY,
                                   DROP_REQUEST, DROP_RESPONSE, NONE,
                                   ChannelError, FaultInjectingChannel)
from repro.server.engine import SQLiteTreeStore
from repro.server.server import CloudServer
from repro.server.wal import (KIND_REQUEST, CommitLog, recover_server,
                               split_frames)
from repro.sim.threat import snapshot_file

pytestmark = pytest.mark.slow

CRASH_POINTS = [CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY]


def kill(server):
    """The kill -9 of a durable server: close its handles without the
    engine's close-time flush, so writes staged since the last
    compaction are rolled back as SQLite does after a process death.
    Closing twice is harmless."""
    server.wal.close()
    server.engine._conn.close()  # noqa: SLF001 - no commit on the way out


#: Every server the running test opened; killed when the test ends.
_OPENED = []


@pytest.fixture(autouse=True)
def _release_handles():
    """Close the WAL and engine handles of every server a test opened,
    whether or not the test closed them itself."""
    yield
    while _OPENED:
        kill(_OPENED.pop())


def reopen(directory):
    """Recover a server from ``directory``'s engine file plus WAL."""
    server = recover_server(
        os.path.join(directory, "server.wal"),
        engine=SQLiteTreeStore(os.path.join(directory, "state.db")))
    _OPENED.append(server)
    return server


def durable_server(directory, log=CommitLog, server=CloudServer):
    """A fresh server on a SQLite engine + WAL in ``directory``."""
    opened = server(
        wal=log(os.path.join(directory, "server.wal")),
        engine=SQLiteTreeStore(os.path.join(directory, "state.db")))
    _OPENED.append(opened)
    return opened


class HeldSyncLog(CommitLog):
    """CommitLog whose next fsync can be held open until released, so
    appenders arriving meanwhile queue behind that leader and share one
    write + fsync.  Records the frame count of every fsync'd batch."""

    def __init__(self, path, **kwargs):
        self.hold = None
        self.synced_batches = []
        super().__init__(path, **kwargs)

    def _commit_locked(self, entries, sync):
        if sync:
            self.synced_batches.append(len(entries))
        return super()._commit_locked(entries, sync)

    def _sync(self, fileno):
        hold, self.hold = self.hold, None
        if hold is not None:
            entered, release = hold
            entered.set()
            release.wait(timeout=10.0)
        super()._sync(fileno)


class OwnThreadCrashServer(CloudServer):
    """Fires an armed crash only on the thread that armed it, so the
    commits of other clients running alongside cannot trip it."""

    _crash_thread = None

    def arm_crash(self, point):
        self._crash_thread = threading.get_ident()
        super().arm_crash(point)

    def _fire_crash(self, point):
        if threading.get_ident() == self._crash_thread:
            super()._fire_crash(point)


def commit_as_a_group(log, lead, riders, when_queued=None):
    """Run ``lead`` until its fsync is in flight, queue each of
    ``riders`` (run on threads of their own) behind it, call
    ``when_queued``, then let all finish: the riders' frames share one
    write + fsync.  Returns what each raised (None if nothing), lead
    first."""
    entered, release = threading.Event(), threading.Event()
    log.hold = (entered, release)
    raised = {}

    def run(index, call):
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - returned to the caller
            raised[index] = exc

    def start(index, call):
        thread = threading.Thread(target=run, args=(index, call),
                                  daemon=True)
        thread.start()
        return thread

    threads = [start(0, lead)]
    assert entered.wait(timeout=10.0)
    threads += [start(i, call) for i, call in enumerate(riders, 1)]
    deadline = time.monotonic() + 10.0
    while len(log._queue) < len(riders):  # noqa: SLF001
        assert time.monotonic() < deadline, "riders never queued"
        time.sleep(0.001)
    if when_queued is not None:
        when_queued()
    release.set()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    return [raised.get(i) for i in range(len(threads))]


def side_clients(server, *file_ids):
    """One client per file id, each outsourcing its own file."""
    clients = []
    for file_id in file_ids:
        client = AssuredDeletionClient(FaultInjectingChannel(server, []),
                                       rng=DeterministicRandom(
                                           "side-%d" % file_id))
        key = client.outsource(file_id, [b"side-%d" % file_id, b"spare"])
        clients.append((client, key, client.item_ids_of(2)))
    return clients


class Harness:
    """One durable server + client pair with deterministic randomness."""

    def __init__(self, directory, seed="crash", n=6, log=CommitLog,
                 server=CloudServer):
        directory.mkdir(exist_ok=True)
        self.directory = str(directory)
        self.wal_path = str(directory / "server.wal")
        self.server = durable_server(self.directory, log, server)
        self.channel = FaultInjectingChannel(self.server, [])
        self.client = AssuredDeletionClient(self.channel,
                                            rng=DeterministicRandom(seed))
        self.key = self.client.outsource(
            1, [b"item-%d" % i for i in range(n)])
        self.ids = self.client.item_ids_of(n)
        self.server.compact_storage()  # the checkpoint

    def schedule(self, faults):
        self.channel._schedule = iter(faults)

    def restart(self):
        """Simulate the kill -9: only the on-disk state survives."""
        kill(self.server)
        self.server = reopen(self.directory)
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


@pytest.mark.parametrize("group", [False, True],
                         ids=["per-append", "group-commit"])
def test_every_wal_truncation_point_is_all_or_nothing(tmp_path, group):
    """Sweep the kill -9 over every byte of the WAL write itself.

    A commit crashes after application; its WAL file is then truncated at
    every possible offset (the torn record a real crash mid-``write``
    leaves).  Recovery from each prefix must yield either the pre-commit
    state (record torn => fully absent) or the applied state (record
    durable => fully applied), and the client's retransmitted commit must
    converge to the same applied-exactly-once state from both.  In the
    group-commit case the crashed commit queued behind another client's
    fsync and shares its write with a third client's commit."""
    h = Harness(tmp_path / "origin", n=5, log=HeldSyncLog,
                server=OwnThreadCrashServer)
    baseline = snapshot_file(h.server, 1)

    def crashing_delete():
        h.schedule([NONE, CRASH_AFTER_APPLY])
        h.client.delete(1, h.key, h.ids[1])

    if group:
        (lead, lead_key, lead_ids), (other, other_key, other_ids) = \
            side_clients(h.server, 2, 3)
        h.server.compact_storage()
        raised = commit_as_a_group(
            h.server.wal,
            lambda: lead.modify(2, lead_key, lead_ids[0], b"leader"),
            [crashing_delete,
             lambda: other.modify(3, other_key, other_ids[0], b"rider")])
        assert raised[0] is None and raised[2] is None
        assert isinstance(raised[1], ChannelError)
        assert 2 in h.server.wal.synced_batches  # one shared fsync
    else:
        with pytest.raises(ChannelError):
            crashing_delete()
    commit_bytes = h.channel.last_request_bytes
    kill(h.server)

    wal_bytes = (tmp_path / "origin" / "server.wal").read_bytes()
    record_start = 6  # header: magic + u16 version
    frames, end = split_frames(wal_bytes, record_start)
    assert end == len(wal_bytes)
    ends = [offset for offset, _kind, _payload in frames[1:]] + [end]
    [record_end] = [frame_end for (_offset, kind, payload), frame_end
                    in zip(frames, ends)
                    if kind == KIND_REQUEST and payload == commit_bytes]
    if not group:  # exactly one logged commit, the last frame
        assert [kind for _offset, kind, _payload in frames].count(
            KIND_REQUEST) == 1
        assert record_end == len(wal_bytes)
    applied = None
    for cut in range(len(wal_bytes) + 1):
        trial = tmp_path / f"cut-{cut}"
        trial.mkdir()
        shutil.copy(tmp_path / "origin" / "state.db", trial / "state.db")
        (trial / "server.wal").write_bytes(wal_bytes[:cut])
        recovered = reopen(str(trial))
        torn = cut < record_end
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
        recovered.engine.close()


@pytest.mark.parametrize("group", [False, True],
                         ids=["per-append", "group-commit"])
def test_append_failure_then_crash_keeps_acknowledged_commits(tmp_path,
                                                              group):
    """Injected append failure mid-run: the commit whose fsync failed was
    never acknowledged, the commits before AND after it were.  Recovery
    must replay exactly the acknowledged ones -- the torn record cannot
    be allowed to hide the later appends from the scan.  In the
    group-commit case the failed fsync is one batch of two commits that
    queued behind another client's acknowledged commit."""
    failures = {"armed": False}

    class _FailingSyncLog(HeldSyncLog):
        def _sync(self, fileno):
            if failures["armed"]:
                failures["armed"] = False
                raise OSError(28, "No space left on device")
            super()._sync(fileno)

    directory = str(tmp_path)
    server = durable_server(directory, log=_FailingSyncLog)
    client = AssuredDeletionClient(FaultInjectingChannel(server, []),
                                   rng=DeterministicRandom("flaky"))
    key = client.outsource(1, [b"item-%d" % i for i in range(4)])
    ids = client.item_ids_of(4)
    files = [1]
    if group:
        (lead, lead_key, lead_ids), (other, other_key, other_ids) = \
            side_clients(server, 2, 3)
        files += [2, 3]
    server.compact_storage()

    client.modify(1, key, ids[0], b"acknowledged-1")
    if group:
        raised = commit_as_a_group(
            server.wal,
            lambda: lead.modify(2, lead_key, lead_ids[0], b"acknowledged"),
            [lambda: client.modify(1, key, ids[1], b"never-acknowledged"),
             lambda: other.modify(3, other_key, other_ids[0], b"never")],
            when_queued=lambda: failures.update(armed=True))
        assert raised[0] is None
        assert all(isinstance(exc, OSError) for exc in raised[1:])
    else:
        failures["armed"] = True
        with pytest.raises(OSError):
            client.modify(1, key, ids[1], b"never-acknowledged")
    client.modify(1, key, ids[2], b"acknowledged-2")  # after the repair
    expected = [snapshot_file(server, f) for f in files]
    kill(server)

    recovered = reopen(directory)
    assert [snapshot_file(recovered, f) for f in files] == expected
    recovered.wal.close()
    recovered.engine.close()


def test_missing_wal_directory_entry_recovers_from_engine(tmp_path):
    """The lost-directory-entry crash: the WAL file's name never became
    durable and the file is simply gone after restart.  Recovery must
    fall back to the engine's checkpoint, recreate the log (and this
    time fsync the directory), and keep serving durably."""
    h = Harness(tmp_path)
    h.client.modify(1, h.key, h.ids[0], b"checkpointed")
    h.server.compact_storage()
    expected = snapshot_file(h.server, 1)
    kill(h.server)
    os.unlink(h.wal_path)  # the directory entry the crash forgot

    recovered = reopen(h.directory)
    assert os.path.exists(h.wal_path)  # recreated, header only
    assert snapshot_file(recovered, 1) == expected
    # And the recreated log keeps accepting durable commits.
    client = AssuredDeletionClient(FaultInjectingChannel(recovered, []),
                                   rng=DeterministicRandom("post"),
                                   keystore=h.client.keystore,
                                   store_keys=False)
    client.modify(1, h.key, h.ids[1], b"after-recreate")
    expected = snapshot_file(recovered, 1)
    kill(recovered)
    again = reopen(h.directory)
    assert snapshot_file(again, 1) == expected
    again.wal.close()
    again.engine.close()


def test_retry_after_checkpoint_answers_from_persisted_cache(tmp_path):
    """The Ack is lost, the server checkpoints (WAL compacted!) and
    crashes.  The only thing that can answer the client's retry
    correctly is the replay cache persisted inside the engine --
    without it the retry would bounce off the version check as
    stale."""
    h = Harness(tmp_path)
    h.schedule([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[3])
    h.server.compact_storage()

    h.restart()
    assert h.server.last_recovery["replayed_records"] == 0
    new_key = h.client.resume_delete(1, h.ids[3])
    assert h.server.file_state(1).version == 1  # answered, not re-applied
    assert h.client.access(1, new_key, h.ids[0]) == b"item-0"


@pytest.mark.parametrize("compact", [True, False],
                         ids=["compact-restart", "crash-restart"])
@pytest.mark.parametrize("op", ["delete", "delete_many", "replace"])
def test_lost_ack_resumes_after_eviction_and_restart(tmp_path, monkeypatch,
                                                     op, compact):
    """The Ack is lost, other files' commits evict the reply from the
    request-id cache, and the server restarts -- after a checkpoint
    (nothing left to replay) or after a crash (the WAL replays).  The
    server no longer knows the commit, so it refuses the resend as
    stale; the client then reads the tree under the journalled new key,
    finds the commit applied and finishes: applied once, and only the
    new key left on the device."""
    monkeypatch.setattr(CloudServer, "REPLAY_CACHE_LIMIT", 4)
    h = Harness(tmp_path)
    victims = (h.ids[1], h.ids[4]) if op == "delete_many" else (h.ids[1],)
    if op == "replace":
        ticket = h.client.open_replace(1, h.key, victims[0])
        h.schedule([DROP_RESPONSE])
    else:
        h.schedule([NONE, DROP_RESPONSE])
    with pytest.raises(ChannelError):
        if op == "delete":
            h.client.delete(1, h.key, victims[0])
        elif op == "delete_many":
            h.client.delete_many(1, h.key, victims)
        else:
            h.client.replace(ticket, h.key, b"replacement")
    [(side, side_key, _side_ids)] = side_clients(h.server, 2)
    for i in range(2 * CloudServer.REPLAY_CACHE_LIMIT):
        side.insert(2, side_key, b"filler-%d" % i)
    version = h.server.file_state(1).version
    if compact:
        h.server.compact_storage()

    h.restart()
    if op == "delete":
        new_key = h.client.resume_delete(1, victims[0])
    elif op == "delete_many":
        new_key = h.client.resume_delete_many(1, victims)
    else:
        new_key, new_id = h.client.resume_replace(1, victims[0])
        assert h.client.access(1, new_key, new_id) == b"replacement"
    assert h.server.file_state(1).version == version  # not applied again
    assert h.client.pending_deletes() == []
    assert h.client.pending_batch_deletes() == []
    assert h.client.keystore.seize() == {"master:1": new_key}
    for index, item_id in enumerate(h.ids):
        if item_id not in victims:
            assert h.client.access(1, new_key, item_id) == b"item-%d" % index
    for victim in victims:
        with pytest.raises(UnknownItemError):
            h.client.access(1, new_key, victim)


def test_duplicate_queued_behind_its_original_is_answered_not_logged(
        tmp_path):
    """A second delivery of a DeleteCommit arrives while the first holds
    the file's exclusive lock (its WAL fsync held open).  It queues on
    the lock, then finds the first delivery's reply: same Ack, the
    version moves once, and the WAL holds one request frame for it."""
    h = Harness(tmp_path, log=HeldSyncLog)
    h.schedule([NONE, DROP_REQUEST])
    with pytest.raises(ChannelError):
        h.client.delete(1, h.key, h.ids[1])
    commit_bytes = h.channel.last_request_bytes
    request_id = msg.decode_message(h.server.ctx, commit_bytes).request_id

    entered, release = threading.Event(), threading.Event()
    h.server.wal.hold = (entered, release)
    replies = {}

    def deliver(name):
        replies[name] = h.server.handle_bytes(commit_bytes)

    first = threading.Thread(target=deliver, args=("first",), daemon=True)
    first.start()
    assert entered.wait(timeout=10.0)  # first holds the file lock
    second = threading.Thread(target=deliver, args=("second",), daemon=True)
    second.start()
    file_lock = h.server._file_locks.lock(1)  # noqa: SLF001
    deadline = time.monotonic() + 10.0
    while not file_lock._writers_waiting:  # noqa: SLF001
        assert time.monotonic() < deadline, "duplicate never queued"
        time.sleep(0.001)
    release.set()
    for thread in (first, second):
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    assert replies["second"] == replies["first"]
    assert msg.decode_message(h.server.ctx, replies["first"]) == \
        msg.Ack(tree_version=1)
    assert h.server.file_state(1).version == 1
    frames, _end = split_frames(
        (tmp_path / "server.wal").read_bytes(), 6)  # after the header
    logged = [msg.decode_message(h.server.ctx, payload).request_id
              for _offset, kind, payload in frames if kind == KIND_REQUEST]
    assert logged.count(request_id) == 1


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

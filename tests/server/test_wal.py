"""The write-ahead commit log: format, torn tails, checkpoint, recovery."""

import os
import struct
import threading

import pytest

import repro.server.wal as wal_module
from repro.client.client import AssuredDeletionClient
from repro.core.errors import ProtocolError
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.persistence import load_server, save_server
from repro.server.server import CloudServer
from repro.server.wal import (CommitLog, checkpoint, fsync_directory,
                              recover_server)
from repro.sim.threat import snapshot_file

pytestmark = pytest.mark.slow

HEADER = b"RWAL" + struct.pack(">H", 2)


def test_empty_log_roundtrip(tmp_path):
    path = str(tmp_path / "log")
    with CommitLog(path) as log:
        assert log.records() == []
    assert (tmp_path / "log").read_bytes() == HEADER


def test_append_and_reopen(tmp_path):
    path = str(tmp_path / "log")
    payloads = [b"alpha", b"", b"\x00" * 100, b"tail"]
    with CommitLog(path) as log:
        for payload in payloads:
            log.append(payload)
        assert log.appended == len(payloads)
    with CommitLog(path) as log:
        assert log.records() == payloads
        assert log.appended == 0  # counter is per-session, not historical


def test_torn_tail_is_truncated_and_log_stays_usable(tmp_path):
    path = tmp_path / "log"
    with CommitLog(str(path)) as log:
        log.append(b"first")
        log.append(b"second")
    whole = path.read_bytes()
    # Tear the last record anywhere: inside its length/CRC prefix or its
    # payload.  Every cut must recover the intact prefix of the log.
    second_start = len(HEADER) + 8 + len(b"first")
    for cut in range(second_start + 1, len(whole)):
        path.write_bytes(whole[:cut])
        with CommitLog(str(path)) as log:
            assert log.records() == [b"first"]
            log.append(b"replacement")  # appends after the truncation point
        with CommitLog(str(path)) as log:
            assert log.records() == [b"first", b"replacement"]


def test_corrupt_crc_drops_the_record(tmp_path):
    path = tmp_path / "log"
    with CommitLog(str(path)) as log:
        log.append(b"ok")
        log.append(b"mangled")
    whole = bytearray(path.read_bytes())
    whole[-1] ^= 0xFF  # flip a payload byte of the tail record
    path.write_bytes(bytes(whole))
    with CommitLog(str(path)) as log:
        assert log.records() == [b"ok"]


def test_torn_header_is_rewritten(tmp_path):
    path = tmp_path / "log"
    for cut in range(len(HEADER)):
        path.write_bytes(HEADER[:cut])
        with CommitLog(str(path)) as log:
            assert log.records() == []
        assert path.read_bytes() == HEADER


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b"not a commit log at all")
    with pytest.raises(ProtocolError):
        CommitLog(str(path))


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b"RWAL" + struct.pack(">H", 99))
    with pytest.raises(ProtocolError):
        CommitLog(str(path))


def test_reset_empties_the_log(tmp_path):
    path = tmp_path / "log"
    with CommitLog(str(path)) as log:
        log.append(b"x")
        log.reset()
        assert log.appended == 0
        log.append(b"y")
    with CommitLog(str(path)) as log:
        assert log.records() == [b"y"]


# ---------------------------------------------------------------------
# Append failure: torn-record repair, fail-closed, durable prefix
# ---------------------------------------------------------------------

class _FailingSyncLog(CommitLog):
    """CommitLog whose fsync can be armed to fail (disk-full model)."""

    def __init__(self, path, **kwargs):
        self.fail_next_sync = False
        super().__init__(path, **kwargs)

    def _sync(self, fileno):
        if self.fail_next_sync:
            self.fail_next_sync = False
            raise OSError(28, "No space left on device")
        super()._sync(fileno)


@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["per-append", "group-commit"])
def test_append_failure_keeps_acknowledged_records(tmp_path, group_commit):
    """An fsync failure mid-run must not poison the log: the torn record
    is cut back to the durable prefix, later appends land cleanly, and
    recovery sees every ACKNOWLEDGED record -- not silently fewer."""
    path = str(tmp_path / "log")
    log = _FailingSyncLog(path, group_commit=group_commit)
    log.append(b"before-1")
    log.append(b"before-2")
    log.fail_next_sync = True
    with pytest.raises(OSError):
        log.append(b"never-acknowledged")
    # The log repaired itself: the failed record is gone and appends
    # keep working.
    log.append(b"after")
    log.close()
    with CommitLog(path) as reopened:
        assert reopened.records() == [b"before-1", b"before-2", b"after"]


def test_append_failure_without_repair_fails_closed(tmp_path, monkeypatch):
    """If even the truncate-back repair fails, the log must refuse all
    further appends rather than acknowledge commits it may lose."""
    path = str(tmp_path / "log")
    log = _FailingSyncLog(path)
    log.append(b"durable")
    log.fail_next_sync = True
    # Break the repair too: reopening the handle fails.
    real_open = open

    def failing_open(name, *args, **kwargs):
        if name == path:
            raise OSError(5, "I/O error")
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr("builtins.open", failing_open)
    with pytest.raises(OSError):
        log.append(b"lost")
    monkeypatch.setattr("builtins.open", real_open)
    with pytest.raises(ProtocolError, match="failed closed"):
        log.append(b"rejected")
    # reset() (the checkpoint path) rewrites the file and re-arms it.
    log.reset()
    log.append(b"fresh-start")
    log.close()
    with CommitLog(path) as reopened:
        assert reopened.records() == [b"fresh-start"]


# ---------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------

def test_group_commit_knob_validation(tmp_path):
    with pytest.raises(ValueError):
        CommitLog(str(tmp_path / "a"), group_max_batch=0)
    with pytest.raises(ValueError):
        CommitLog(str(tmp_path / "b"), group_max_wait=-1)


def test_group_commit_appends_are_durable_and_format_compatible(tmp_path):
    """Concurrent grouped appends all land, and the file is readable by
    a plain (per-append) CommitLog: group commit changes the fsync
    schedule, never the on-disk format."""
    path = str(tmp_path / "log")
    log = CommitLog(path, group_commit=True, group_max_batch=8)
    payloads = [b"record-%02d" % i for i in range(48)]
    errors = []

    def appender(chunk):
        try:
            for payload in chunk:
                log.append(payload)
        except Exception as exc:  # noqa: BLE001 - surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=appender,
                                args=(payloads[i::6],)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors
    assert log.appended == len(payloads)
    log.close()
    with CommitLog(path) as reopened:  # plain reader
        assert sorted(reopened.records()) == sorted(payloads)


def test_group_commit_coalesces_concurrent_appends(tmp_path):
    """While one fsync is in flight the other appenders pile up and ride
    a later leader's batch: fewer fsyncs than records."""
    path = str(tmp_path / "log")

    syncs = []

    class _SlowSyncLog(CommitLog):
        def _sync(self, fileno):
            syncs.append(1)
            import time
            time.sleep(0.02)
            super()._sync(fileno)

    log = _SlowSyncLog(path, group_commit=True)
    workers = 8
    per_worker = 5
    barrier = threading.Barrier(workers)

    def appender(index):
        barrier.wait()
        for i in range(per_worker):
            log.append(b"w%d-%d" % (index, i))

    threads = [threading.Thread(target=appender, args=(i,))
               for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    log.close()
    assert len(syncs) < workers * per_worker  # strictly coalesced
    with CommitLog(path) as reopened:
        assert len(reopened.records()) == workers * per_worker


def test_group_commit_max_wait_linger(tmp_path):
    """A tiny linger still commits single appends promptly."""
    path = str(tmp_path / "log")
    with CommitLog(path, group_commit=True, group_max_wait=0.005) as log:
        log.append(b"lone")
        log.append(b"pair")
    with CommitLog(path) as reopened:
        assert reopened.records() == [b"lone", b"pair"]


def test_group_commit_failure_fails_every_rider(tmp_path):
    """An fsync failure fails every append in the batch -- none of them
    were acknowledged, so all must raise, and the file stays clean."""
    path = str(tmp_path / "log")
    log = _FailingSyncLog(path, group_commit=True)
    log.append(b"good")
    log.fail_next_sync = True
    with pytest.raises(OSError):
        log.append(b"bad")
    log.append(b"recovered")
    log.close()
    with CommitLog(path) as reopened:
        assert reopened.records() == [b"good", b"recovered"]


# ---------------------------------------------------------------------
# Directory durability
# ---------------------------------------------------------------------

def test_directory_fsync_on_create_reset_and_checkpoint(tmp_path,
                                                        monkeypatch):
    """Log creation, reset(), and the checkpoint image replace must all
    sync the parent directory, or a crash can lose the file's very name."""
    synced = []
    real = fsync_directory
    monkeypatch.setattr(wal_module, "fsync_directory",
                        lambda path: (synced.append(path), real(path)))

    path = str(tmp_path / "log")
    log = CommitLog(path)  # creation
    assert synced == [path]
    log.append(b"x")
    log.reset()
    assert synced == [path, path]
    log.close()

    synced.clear()
    image = str(tmp_path / "server.img")
    save_server(CloudServer(), image)  # tmp-write + os.replace
    assert synced == [image]


def test_fsync_directory_is_a_posix_guarded_noop(tmp_path, monkeypatch):
    """On non-POSIX platforms the helper must do nothing (no O_DIRECTORY
    semantics to rely on) instead of failing."""
    monkeypatch.setattr(os, "name", "nt")
    fsync_directory(str(tmp_path / "whatever"))  # must not raise


def _durable_pair(tmp_path, seed="wal"):
    image = str(tmp_path / "server.img")
    wal_path = str(tmp_path / "server.wal")
    server = CloudServer(wal=CommitLog(wal_path))
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom(seed))
    return server, client, image, wal_path


def test_recovery_from_wal_alone(tmp_path):
    """No checkpoint image yet: the WAL holds the full history."""
    server, client, image, wal_path = _durable_pair(tmp_path)
    key = client.outsource(1, [b"a", b"b", b"c"])
    ids = client.item_ids_of(3)
    key = client.delete(1, key, ids[1])

    recovered = recover_server(image, wal_path)
    assert snapshot_file(recovered, 1) == snapshot_file(server, 1)
    assert recovered.file_state(1).version == 1
    # The recovered server keeps logging: a further commit survives too.
    client2 = AssuredDeletionClient(LoopbackChannel(recovered),
                                    rng=DeterministicRandom("wal-2"),
                                    keystore=client.keystore, store_keys=False)
    client2.modify(1, key, ids[0], b"a-v2")
    again = recover_server(image, wal_path)
    assert snapshot_file(again, 1) == snapshot_file(recovered, 1)


def test_checkpoint_folds_wal_into_image(tmp_path):
    server, client, image, wal_path = _durable_pair(tmp_path)
    key = client.outsource(1, [b"a", b"b"])
    ids = client.item_ids_of(2)
    client.delete(1, key, ids[0])
    assert server.wal.appended >= 2

    checkpoint(server, image)
    assert server.wal.appended == 0
    with open(wal_path, "rb") as handle:
        assert handle.read() == HEADER
    # The image alone now reproduces the state.
    assert snapshot_file(load_server(image), 1) == snapshot_file(server, 1)
    # And recovery (image + empty WAL) agrees.
    recovered = recover_server(image, wal_path)
    assert snapshot_file(recovered, 1) == snapshot_file(server, 1)


def test_wal_replay_after_checkpoint_is_idempotent(tmp_path):
    """Crash between image replace and WAL reset: the logged commits are
    already in the image, and the request-id cache (persisted with it)
    answers the replay instead of applying the deltas twice."""
    server, client, image, wal_path = _durable_pair(tmp_path)
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    ids = client.item_ids_of(4)
    new_key = client.delete(1, key, ids[2])

    # Checkpoint WITHOUT resetting the WAL, simulating the torn middle of
    # repro.server.wal.checkpoint.
    from repro.server.persistence import save_server
    save_server(server, image)

    recovered = recover_server(image, wal_path)
    assert snapshot_file(recovered, 1) == snapshot_file(server, 1)
    assert recovered.file_state(1).version == 1  # not applied twice
    client2 = AssuredDeletionClient(LoopbackChannel(recovered),
                                    rng=DeterministicRandom("wal-3"),
                                    keystore=client.keystore, store_keys=False)
    assert client2.access(1, new_key, ids[0]) == b"a"

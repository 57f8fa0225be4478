"""Crash recovery keeps the audit chain complete: one outcome per request.

A commit whose request frame is fsync'd but whose outcome frame never
made it -- the crash landed before or after the apply -- must still end
up audited: recovery replays the request and writes its outcome frame,
so ``audit verify`` counts exactly the WAL's request frames.  A client
retry answered from the replay cache adds no frame at all.
"""

import pytest

from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.obs.audit import AuditLog, verify_log
from repro.protocol import messages as msg
from repro.protocol.faults import (CRASH_AFTER_APPLY, CRASH_BEFORE_APPLY,
                                   NONE, ChannelError, FaultInjectingChannel)
from repro.server.server import CloudServer
from repro.server.wal import (KIND_DIGEST, KIND_REQUEST, CommitLog,
                              checkpoint, recover_server, split_frames)

pytestmark = pytest.mark.slow


def _delete(h):
    h.client.delete(1, h.key, h.ids[1])


def _replace(h):
    ticket = h.client.open_replace(1, h.key, h.ids[1])
    h.client.replace(ticket, h.key, b"replacement")


# (name, op, fault prefix before the commit, commit message type)
OPS = [("delete", _delete, [NONE], msg.DeleteCommit),
       ("replace", _replace, [NONE], msg.ReplaceCommit)]


class Harness:
    """A durable, audited server (checkpointed once, so the history
    before the crash is already sealed in the archive)."""

    def __init__(self, directory):
        self.image = str(directory / "server.img")
        self.wal_path = str(directory / "server.wal")
        self.archive = str(directory / "audit.log")
        wal = CommitLog(self.wal_path, archive=self.archive)
        self.server = CloudServer(wal=wal, audit=AuditLog(wal))
        self.channel = FaultInjectingChannel(self.server, [])
        self.client = AssuredDeletionClient(
            self.channel, rng=DeterministicRandom("audit-crash"))
        self.key = self.client.outsource(1, [b"item-%d" % i
                                             for i in range(4)])
        self.ids = self.client.item_ids_of(4)
        checkpoint(self.server, self.image)

    def request_frames(self):
        """Request frames on disk: sealed digests plus live requests."""
        count = 0
        for path, kind in ((self.archive, KIND_DIGEST),
                           (self.wal_path, KIND_REQUEST)):
            with open(path, "rb") as handle:
                frames = split_frames(handle.read(), 6)[0]
            count += sum(1 for _offset, k, _p in frames if k == kind)
        return count


@pytest.mark.parametrize("crash", [CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY])
@pytest.mark.parametrize("name,op,prefix,commit_type", OPS,
                         ids=[name for name, *_ in OPS])
def test_crashed_commit_gets_exactly_one_outcome(tmp_path, name, op, prefix,
                                                 commit_type, crash):
    h = Harness(tmp_path)
    h.channel._schedule = iter(prefix + [crash])
    with pytest.raises(ChannelError):
        op(h)
    commit_bytes = h.channel.last_request_bytes
    # The kill -9: the request frame is durable, its outcome was never
    # written.
    h.server.wal._handle.close()
    crashed = verify_log(h.archive, h.wal_path)
    assert len(crashed.pending) == 1

    recovered = recover_server(h.image, h.wal_path, audit_path=h.archive)
    chain = verify_log(h.archive, h.wal_path)
    assert len(chain.requests) == h.request_frames() == \
        len(crashed.requests)
    assert chain.pending == []
    (replayed,) = [r for r in chain.records
                   if r["req"] == crashed.pending[0]]
    assert replayed["op"] == commit_type.__name__
    assert replayed["ok"] is True
    assert replayed["version_after"] == replayed["version_before"] + 1

    # The client's retry is answered from the replay cache: no frame.
    reply = msg.decode_message(recovered.ctx,
                               recovered.handle_bytes(commit_bytes))
    assert isinstance(reply, msg.Ack)
    recovered.wal.close()
    again = verify_log(h.archive, h.wal_path)
    assert again.seq == chain.seq
    assert len(again.records) == len(again.requests) == len(chain.requests)


def test_recovery_writes_no_outcome_for_an_audited_request(tmp_path):
    """A request that already has its outcome is replayed silently."""
    h = Harness(tmp_path)
    _delete(h)
    h.server.wal.close()
    before = verify_log(h.archive, h.wal_path)
    recovered = recover_server(h.image, h.wal_path, audit_path=h.archive)
    recovered.wal.close()
    after = verify_log(h.archive, h.wal_path)
    assert after.seq == before.seq
    assert after.pending == []

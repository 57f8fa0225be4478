"""Pipelining semantics of the asyncio transport.

The untagged-channel suite (``test_tcp.py``) proves the async host
serves the legacy untagged framing; this module pins what the tagged
framing adds: tagged frames correlated out of order, idempotent
retransmission of an in-flight pipelined mutator under a fresh tag,
ordered untagged replies under raw pipelining, and the error-reply echo
(``request_id`` + trace trailer) for failures.
"""

import socket
import struct
import threading
import time

import pytest

from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.aio import TAG_FLAG, AsyncTcpChannel, AsyncTcpServerHost
from repro.protocol.faults import ChannelError
from repro.protocol.tcp import RetryPolicy
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket

_LEN = struct.Struct(">I")
_TAG = struct.Struct(">Q")


def _seeded(host, server, seed="aio", n=4):
    with AsyncTcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel, rng=DeterministicRandom(seed))
        key = client.outsource(1, [b"net-%d" % i for i in range(n)])
        ids = client.item_ids_of(n)
    return key, ids, client.keystore


class _StallFirstAccess:
    """Backend wrapper: AccessRequests park until released; everything
    else is served immediately (forces out-of-order completion)."""

    def __init__(self, inner):
        self.inner = inner
        self.ctx = inner.ctx
        self.release = threading.Event()
        self.parked = threading.Event()

    def handle_bytes(self, data):
        request = msg.decode_message(self.ctx, data)
        if isinstance(request, msg.AccessRequest):
            self.parked.set()
            assert self.release.wait(10.0)
        return self.inner.handle_bytes(data)


def test_out_of_order_replies_are_correlated_by_tag():
    """A fast request issued AFTER a stalled one completes first; both
    land on their own callers (no cross-talk, no teardown)."""
    server = CloudServer()
    backend = _StallFirstAccess(server)
    with AsyncTcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server)
        with AsyncTcpChannel(host.address, server.ctx) as channel:
            replies = {}

            def slow():
                replies["slow"] = channel.request(
                    msg.AccessRequest(file_id=1, item_id=ids[0]))

            slow_thread = threading.Thread(target=slow)
            slow_thread.start()
            assert backend.parked.wait(5.0)
            # The stalled access is in flight on the SAME connection;
            # this fetch must overtake it.
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.FetchFileReply)
            assert not replies  # the slow one is still parked
            backend.release.set()
            slow_thread.join(timeout=5.0)
            assert isinstance(replies["slow"], msg.AccessReply)
            assert channel.counters.retransmits == 0


class _SlowReplyOnce:
    """First ModifyCommit is APPLIED but its reply stalls past the
    client timeout (retransmit-races-slow-Ack, pipelined edition)."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.ctx = inner.ctx
        self.delay = delay
        self.stalled = False

    def handle_bytes(self, data):
        response = self.inner.handle_bytes(data)
        request = msg.decode_message(self.ctx, data)
        if isinstance(request, msg.ModifyCommit) and not self.stalled:
            self.stalled = True
            time.sleep(self.delay)
        return response


def test_inflight_mutator_retransmit_is_idempotent_and_keeps_connection():
    """A pipelined mutator whose reply is slow is retransmitted under a
    FRESH tag on the SAME connection; the server's request-id cache
    answers it without applying twice, and the late original reply is
    dropped by its stale tag."""
    server = CloudServer()
    backend = _SlowReplyOnce(server, delay=1.0)
    with AsyncTcpServerHost(backend) as host:
        key, ids, keystore = _seeded(host, server, seed="idem")
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with AsyncTcpChannel(host.address, server.ctx,
                             retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("idem2"),
                                           keystore=keystore,
                                           store_keys=False)
            client.modify(1, key, ids[1], b"patched")
            assert channel.counters.retransmits >= 1
            # Unlike the sync channel, a timeout does not re-dial:
            # generation 1 is the initial connect.
            assert channel._generation == 1
            assert server.file_state(1).version == 0  # modify: no bump
            assert client.access(1, key, ids[1]) == b"patched"
            # Give the stalled original reply time to arrive and be
            # dropped; the channel must still work afterwards.
            time.sleep(1.0)
            assert client.access(1, key, ids[0]) == b"net-0"


def test_untagged_pipelining_preserves_reply_order():
    """Legacy untagged frames pipelined on a raw socket must come back
    in request order even when the first finishes last."""
    server = CloudServer()
    backend = _StallFirstAccess(server)
    with AsyncTcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server, seed="order")
        access = msg.encode_message(server.ctx,
                                    msg.AccessRequest(file_id=1,
                                                      item_id=ids[0]))
        fetch = msg.encode_message(server.ctx,
                                   msg.FetchFileRequest(file_id=1))
        with socket.create_connection(host.address, timeout=10) as raw:
            raw.sendall(_LEN.pack(len(access)) + access)
            assert backend.parked.wait(5.0)
            raw.sendall(_LEN.pack(len(fetch)) + fetch)
            time.sleep(0.2)  # let the fetch finish server-side
            backend.release.set()
            replies = []
            for _ in range(2):
                (length,) = _LEN.unpack(_recv_exact(raw, 4))
                assert not length & TAG_FLAG
                replies.append(msg.decode_message(server.ctx,
                                                  _recv_exact(raw, length)))
        assert isinstance(replies[0], msg.AccessReply)
        assert isinstance(replies[1], msg.FetchFileReply)


def _recv_exact(sock, count):
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        assert chunk, "peer closed mid-frame"
        chunks += chunk
    return chunks


def test_error_reply_echoes_request_id():
    """A failing mutator's ErrorReply carries the request_id that caused
    it, so a pipelined client can correlate the failure."""
    server = CloudServer()
    with AsyncTcpServerHost(server) as host:
        with AsyncTcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(
                msg.ModifyCommit(file_id=999, item_id=1, ciphertext=b"x",
                                 tree_version=0, request_id=77))
            assert isinstance(reply, msg.ErrorReply)
            assert reply.request_id == 77


def test_garbage_tagged_frame_gets_tagged_error_reply():
    """An undecodable tagged request is answered (tag echoed) instead of
    killing the connection -- the other in-flight requests survive."""
    server = CloudServer()
    with AsyncTcpServerHost(server) as host:
        with socket.create_connection(host.address, timeout=10) as raw:
            raw.sendall(_LEN.pack(TAG_FLAG | 2) + _TAG.pack(42) + b"\xff\xff")
            (word,) = _LEN.unpack(_recv_exact(raw, 4))
            assert word & TAG_FLAG
            (tag,) = _TAG.unpack(_recv_exact(raw, 8))
            assert tag == 42
            reply = msg.decode_message(server.ctx,
                                       _recv_exact(raw, word & ~TAG_FLAG))
            assert isinstance(reply, msg.ErrorReply)
            assert reply.request_id == 0  # nothing decodable to echo


def test_pipelined_channel_is_thread_safe_under_load():
    """Many threads hammer ONE channel; every reply lands on its caller
    (tags never cross) and the server state stays consistent."""
    server = CloudServer()
    with AsyncTcpServerHost(server) as host:
        key, ids, _ks = _seeded(host, server, seed="load", n=8)
        # The state is read-only below, so each item's reply is a fixed
        # byte string: any tag cross-talk would hand a thread the bytes
        # of a DIFFERENT item's reply.
        expected = {
            item: server.handle_bytes(msg.encode_message(
                server.ctx, msg.AccessRequest(file_id=1, item_id=item)))
            for item in ids
        }
        with AsyncTcpChannel(host.address, server.ctx) as channel:
            errors = []

            def reader(index):
                try:
                    for _ in range(25):
                        item = ids[index % len(ids)]
                        reply = channel.request(
                            msg.AccessRequest(file_id=1, item_id=item))
                        assert isinstance(reply, msg.AccessReply), reply
                        assert msg.encode_message(server.ctx, reply) == \
                            expected[item]
                except Exception as exc:  # noqa: BLE001 - report to main
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors


def test_channel_reconnects_after_host_restart():
    server = CloudServer()
    host = AsyncTcpServerHost(server).start()
    try:
        key, ids, _ks = _seeded(host, server, seed="reconnect")
        retry = RetryPolicy(attempts=4, timeout=5.0, base_delay=0.05)
        channel = AsyncTcpChannel(host.address, server.ctx, retry=retry)
        try:
            reply = channel.request(msg.AccessRequest(file_id=1,
                                                      item_id=ids[0]))
            assert isinstance(reply, msg.AccessReply)
            host.stop()
            host.start()
            reply = channel.request(msg.AccessRequest(file_id=1,
                                                      item_id=ids[1]))
            assert isinstance(reply, msg.AccessReply)
            assert channel._generation > 1  # it re-dialled
        finally:
            channel.close()
    finally:
        host.stop()


def test_close_interrupts_pending_requests():
    """close() fails in-flight waiters promptly instead of letting them
    wait out their full timeout."""
    server = CloudServer()
    backend = _StallFirstAccess(server)
    with AsyncTcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server, seed="close")
        retry = RetryPolicy(attempts=1, timeout=30.0)
        channel = AsyncTcpChannel(host.address, server.ctx, retry=retry)
        failures = []

        def waiter():
            try:
                channel.request(msg.AccessRequest(file_id=1, item_id=ids[0]))
            except ChannelError as exc:
                failures.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        assert backend.parked.wait(5.0)
        start = time.monotonic()
        channel.close()
        thread.join(timeout=5.0)
        backend.release.set()
        assert not thread.is_alive()
        assert time.monotonic() - start < 5.0
        assert failures  # the pending request failed with ChannelError


def test_channel_validation():
    server = CloudServer()
    with AsyncTcpServerHost(server) as host:
        with pytest.raises(ValueError):
            AsyncTcpChannel(host.address, server.ctx, timeout=1.0,
                            retry=RetryPolicy())
    with pytest.raises(ValueError):
        AsyncTcpServerHost(server, max_inflight_per_conn=0)


def test_byte_accounting_matches_loopback_for_tagged_frames():
    """Protocol byte counts stay transport-independent; the 12-byte
    tagged framing is tracked separately."""
    from repro.protocol.channel import LoopbackChannel

    server = CloudServer()
    with AsyncTcpServerHost(server) as host:
        with AsyncTcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("acct"))
            client.outsource(1, [b"x"] * 8)
            ids = client.item_ids_of(8)
            client.access(1, client.keystore.get("master:1"), ids[0])
            record = client.metrics.for_op("access")[0]
            assert channel.frame_bytes == 24 * channel.counters.round_trips

    loop_server = CloudServer()
    loop_client = AssuredDeletionClient(LoopbackChannel(loop_server),
                                        rng=DeterministicRandom("acct"))
    loop_client.outsource(1, [b"x"] * 8)
    loop_ids = loop_client.item_ids_of(8)
    loop_client.access(1, loop_client.keystore.get("master:1"), loop_ids[0])
    loop_record = loop_client.metrics.for_op("access")[0]
    assert record.bytes_sent == loop_record.bytes_sent
    assert record.bytes_received == loop_record.bytes_received

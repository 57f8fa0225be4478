"""Pipelining semantics of the tagged framing.

``test_tcp.py`` runs the protocol, timeouts and host lifecycle over the
one channel; this module pins what the tags give: replies correlated out
of order (and handed to their callers by whichever caller is reading),
idempotent retransmission of an in-flight mutator under a fresh tag, the
host refusing untagged frames, the error-reply echo (``request_id`` +
trace trailer) for failures, and a channel that starts no thread.
"""

import socket
import struct
import threading
import time

import pytest

from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.faults import ChannelError
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TAG_FLAG, RetryPolicy, TcpChannel
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket

_LEN = struct.Struct(">I")
_TAG = struct.Struct(">Q")


def _seeded(host, server, seed="aio", n=4):
    with TcpChannel(host.address, server.ctx) as channel:
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
    with TcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server)
        with TcpChannel(host.address, server.ctx) as channel:
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
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded(host, server, seed="idem")
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx,
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


class _Counting:
    """Backend wrapper counting the requests it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.ctx = inner.ctx
        self.handled = 0

    def handle_bytes(self, data):
        self.handled += 1
        return self.inner.handle_bytes(data)


def test_host_closes_a_connection_on_a_frame_without_the_tag_bit():
    """A frame without the tag bit closes its connection unanswered and
    never reaches the backend; other connections are still served."""
    server = CloudServer()
    backend = _Counting(server)
    with TcpServerHost(backend) as host:
        fetch = msg.encode_message(server.ctx,
                                   msg.FetchFileRequest(file_id=1))
        with socket.create_connection(host.address, timeout=10) as raw:
            raw.sendall(_LEN.pack(len(fetch)) + fetch)
            assert raw.recv(1) == b""  # EOF, no reply
        assert backend.handled == 0
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)
        assert backend.handled == 1


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
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(
                msg.ModifyCommit(file_id=999, item_id=1, ciphertext=b"x",
                                 tree_version=0, request_id=77))
            assert isinstance(reply, msg.ErrorReply)
            assert reply.request_id == 77


def test_garbage_tagged_frame_gets_tagged_error_reply():
    """An undecodable tagged request is answered (tag echoed) instead of
    killing the connection -- the other in-flight requests survive."""
    server = CloudServer()
    with TcpServerHost(server) as host:
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
    with TcpServerHost(server) as host:
        key, ids, _ks = _seeded(host, server, seed="load", n=8)
        # The state is read-only below, so each item's reply is a fixed
        # byte string: any tag cross-talk would hand a thread the bytes
        # of a DIFFERENT item's reply.
        expected = {
            item: server.handle_bytes(msg.encode_message(
                server.ctx, msg.AccessRequest(file_id=1, item_id=item)))
            for item in ids
        }
        with TcpChannel(host.address, server.ctx) as channel:
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
    host = TcpServerHost(server).start()
    try:
        key, ids, _ks = _seeded(host, server, seed="reconnect")
        retry = RetryPolicy(attempts=4, timeout=5.0, base_delay=0.05)
        channel = TcpChannel(host.address, server.ctx, retry=retry)
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
    with TcpServerHost(backend) as host:
        key, ids, _ks = _seeded(host, server, seed="close")
        retry = RetryPolicy(attempts=1, timeout=30.0)
        channel = TcpChannel(host.address, server.ctx, retry=retry)
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
    with TcpServerHost(server) as host:
        with pytest.raises(ValueError):
            TcpChannel(host.address, server.ctx, timeout=1.0,
                            retry=RetryPolicy())
    with pytest.raises(ValueError):
        TcpServerHost(server, max_inflight_per_conn=0)


def test_byte_accounting_matches_loopback_for_tagged_frames():
    """Protocol byte counts stay transport-independent; the 12-byte
    tagged framing is tracked separately."""
    from repro.protocol.channel import LoopbackChannel

    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
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


def test_flight_through_a_one_request_per_connection_host():
    """A host that admits one request per connection still answers a
    whole flight: the later frames wait unread in the socket."""
    server = CloudServer()
    with TcpServerHost(server, max_inflight_per_conn=1) as host:
        key, ids, _ks = _seeded(host, server, seed="serial")
        with TcpChannel(host.address, server.ctx) as channel:
            replies = channel.request_many(
                [msg.AccessRequest(file_id=1, item_id=ids[0]),
                 msg.FetchFileRequest(file_id=1),
                 msg.AccessRequest(file_id=1, item_id=ids[3])])
            assert [type(r) for r in replies] == [
                msg.AccessReply, msg.FetchFileReply, msg.AccessReply]
            assert (channel.counters.round_trips,
                    channel.counters.flights) == (3, 1)


def test_channel_starts_no_thread():
    """The caller that waits reads its own reply: opening a channel and
    completing a request leaves the thread count unchanged."""
    server = CloudServer()
    with TcpServerHost(server) as host:
        def threads():
            # The host's pool threads are not the channel's; leave them out.
            return threading.active_count() - sum(
                t.name.startswith("repro-host-")
                for t in threading.enumerate())

        before = threads()
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)
            assert threads() == before


class _HalfFrameOnce:
    """A raw TCP server: on the first connection it answers the first
    frame with half a reply frame and then stalls; later connections get
    whole replies through ``backend``."""

    def __init__(self, backend):
        self.backend = backend
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._stalled = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            try:
                while True:
                    (word,) = _LEN.unpack(_recv_exact(conn, 4))
                    (tag,) = _TAG.unpack(_recv_exact(conn, 8))
                    reply = self.backend.handle_bytes(
                        _recv_exact(conn, word & ~TAG_FLAG))
                    frame = (_LEN.pack(TAG_FLAG | len(reply))
                             + _TAG.pack(tag) + reply)
                    if self.connections == 1:
                        conn.sendall(frame[:len(frame) // 2])
                        self._stalled.append(conn)  # keep it open
                        break
                    conn.sendall(frame)
            except (AssertionError, OSError):
                conn.close()

    def close(self):
        self._listener.close()
        for conn in self._stalled:
            conn.close()


def test_timeout_inside_a_frame_drops_the_connection():
    """A timeout after part of a reply frame was read leaves the stream
    unusable: the channel re-dials and the retransmit is answered."""
    server = CloudServer()
    fake = _HalfFrameOnce(server)
    try:
        retry = RetryPolicy(attempts=3, timeout=0.3, base_delay=0.01)
        with TcpChannel(fake.address, server.ctx, retry=retry) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)
            assert channel.counters.retransmits == 1
            assert channel._generation == 2  # re-dialled
            assert fake.connections == 2
    finally:
        fake.close()

"""The TCP transport: the full protocol over a real socket.

Every test drives :class:`~repro.protocol.tcp.TcpChannel`, the one
client channel, against :class:`~repro.protocol.host.TcpServerHost`,
the one server host.
"""

import threading
import time

import pytest

from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.faults import ChannelError
from repro.protocol.host import TcpServerHost, _Connection
from repro.protocol.tcp import RetryPolicy, TcpChannel
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket


@pytest.fixture
def hosted_server():
    server = CloudServer()
    with TcpServerHost(server) as host:
        yield server, host


def test_full_protocol_over_tcp(hosted_server):
    server, host = hosted_server
    with TcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel,
                                       rng=DeterministicRandom("tcp"))
        key = client.outsource(1, [b"net-%d" % i for i in range(5)])
        ids = client.item_ids_of(5)
        assert client.access(1, key, ids[0]) == b"net-0"
        key = client.delete(1, key, ids[2])
        client.modify(1, key, ids[1], b"net-1-v2")
        new_item = client.insert(1, key, b"net-new")
        data = client.fetch_file(1, key)
        assert data[ids[1]] == b"net-1-v2"
        assert data[new_item] == b"net-new"
        assert ids[2] not in data


def test_byte_accounting_matches_loopback(hosted_server):
    """The paper's metric must be transport-independent: the same
    operation costs the same protocol bytes over TCP and loopback."""
    from repro.protocol.channel import LoopbackChannel

    server, host = hosted_server
    with TcpChannel(host.address, server.ctx) as tcp_channel:
        tcp_client = AssuredDeletionClient(tcp_channel,
                                           rng=DeterministicRandom("acct"))
        tcp_client.outsource(1, [b"x"] * 8)
        ids = tcp_client.item_ids_of(8)
        tcp_client.access(1, tcp_client.keystore.get("master:1"), ids[0])
        tcp_record = tcp_client.metrics.for_op("access")[0]

    loop_server = CloudServer()
    loop_client = AssuredDeletionClient(LoopbackChannel(loop_server),
                                        rng=DeterministicRandom("acct"))
    loop_client.outsource(1, [b"x"] * 8)
    loop_ids = loop_client.item_ids_of(8)
    loop_client.access(1, loop_client.keystore.get("master:1"), loop_ids[0])
    loop_record = loop_client.metrics.for_op("access")[0]

    assert tcp_record.bytes_sent == loop_record.bytes_sent
    assert tcp_record.bytes_received == loop_record.bytes_received
    # Framing is tracked separately: 12 bytes each way per round trip.
    assert tcp_channel.frame_bytes == 24 * tcp_channel.counters.round_trips


def test_multiple_sequential_connections(hosted_server):
    server, host = hosted_server
    with TcpChannel(host.address, server.ctx) as first:
        client = AssuredDeletionClient(first, rng=DeterministicRandom("c1"))
        key = client.outsource(7, [b"persist"])
        ids = client.item_ids_of(1)
    # A second connection sees the same server state.
    with TcpChannel(host.address, server.ctx) as second:
        client2 = AssuredDeletionClient(second, rng=DeterministicRandom("c2"))
        assert client2.access(7, key, ids[0]) == b"persist"


def test_server_survives_bad_frames(hosted_server):
    import socket

    server, host = hosted_server
    # Send garbage on a raw socket; the server must not die.
    with socket.create_connection(host.address, timeout=5) as raw:
        # A tagged frame (tag 5) carrying a 2-byte garbage message.
        raw.sendall(b"\x80\x00\x00\x02" + bytes(7) + b"\x05\xff\xff")
        header = b""
        while len(header) < 12:
            chunk = raw.recv(12 - len(header))
            assert chunk, "host closed instead of replying"
            header += chunk
        # An ErrorReply frame came back under the request's tag.
        assert header[4:] == bytes(7) + b"\x05"

    # And the service still works afterwards.
    with TcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel, rng=DeterministicRandom("c3"))
        client.outsource(9, [b"alive"])


def test_host_requires_handle_bytes():
    with pytest.raises(TypeError):
        TcpServerHost(object())


def test_host_restart_after_stop():
    """stop() then start() must rebind the same address with a fresh
    epoll and thread pool."""
    server = CloudServer()
    host = TcpServerHost(server)
    host.start()
    address = host.address
    try:
        with TcpChannel(address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("restart"))
            key = client.outsource(1, [b"still-here"])
            ids = client.item_ids_of(1)
        host.stop()
        host.start()
        assert host.address == address
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("restart2"),
                                           store_keys=False)
            assert client.access(1, key, ids[0]) == b"still-here"
    finally:
        host.stop()


class _SlowOnce:
    """Backend wrapper: the first delivery stalls past the client timeout."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.ctx = inner.ctx
        self.delay = delay
        self.stalled = False

    def handle_bytes(self, data):
        if not self.stalled:
            self.stalled = True
            time.sleep(self.delay)
        return self.inner.handle_bytes(data)


class _SlowReplyOnce:
    """Backend wrapper: the first delete commit is APPLIED but its reply
    stalls past the client timeout (the retransmit-races-slow-Ack case)."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.ctx = inner.ctx
        self.delay = delay
        self.stalled = False

    def handle_bytes(self, data):
        response = self.inner.handle_bytes(data)
        request = msg.decode_message(self.ctx, data)
        if isinstance(request, msg.DeleteCommit) and not self.stalled:
            self.stalled = True
            time.sleep(self.delay)
        return response


def _seeded_file(address, ctx, seed, n=4):
    with TcpChannel(address, ctx) as channel:
        client = AssuredDeletionClient(channel, rng=DeterministicRandom(seed))
        key = client.outsource(1, [b"net-%d" % i for i in range(n)])
        ids = client.item_ids_of(n)
    return key, ids, client.keystore


def test_timed_out_request_never_desyncs_the_stream():
    """Regression for the stale-frame desync: after a timeout the late
    reply to request N must not be consumed as the reply to request N+1.
    The late reply's tag matches no request any more, so the next
    request gets its own reply on the same stream."""
    server = CloudServer()
    backend = _SlowOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        key, ids, _ks = _seeded_file(host.address, server.ctx, "desync")
        backend.stalled = False  # stall the next delivery
        with TcpChannel(host.address, server.ctx,
                        retry=RetryPolicy(attempts=1, timeout=0.2)) as channel:
            with pytest.raises(ChannelError):
                channel.request(msg.AccessRequest(file_id=1, item_id=ids[0]))
            # The stalled AccessReply is still in flight.  This request
            # must be answered by a FetchFileReply, not that stale frame.
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.FetchFileReply)
            assert len(reply.ciphertexts) == 4
            assert channel._generation == 1  # the timeout kept the stream


def test_timeout_is_retried_transparently():
    server = CloudServer()
    backend = _SlowOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded_file(host.address, server.ctx, "retry")
        backend.stalled = False  # stall the next delivery
        retry = RetryPolicy(attempts=3, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("retry2"),
                                           keystore=keystore, store_keys=False)
            # The first attempt times out; the retransmit succeeds without
            # the caller ever seeing the failure.
            assert client.access(1, key, ids[1]) == b"net-1"
            assert channel.counters.retransmits >= 1


def test_retransmitted_commit_applies_exactly_once_over_tcp():
    """A delete commit whose Ack is slow is retransmitted under a fresh
    tag; the server's request-id cache answers it without applying
    the deltas twice."""
    server = CloudServer()
    backend = _SlowReplyOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded_file(host.address, server.ctx, "idem")
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("idem2"),
                                           keystore=keystore, store_keys=False)
            new_key = client.delete(1, key, ids[2])
            assert channel.counters.retransmits >= 1
            assert server.file_state(1).tree.leaf_count == 3
            assert server.file_state(1).version == 1  # applied exactly once
            for index in (0, 1, 3):
                assert client.access(1, new_key, ids[index]) == \
                    b"net-%d" % index


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0)
    with pytest.raises(ValueError):
        # The timeout lives inside the policy; passing both is ambiguous.
        TcpChannel(("127.0.0.1", 1), CloudServer().ctx, timeout=1.0,
                   retry=RetryPolicy())
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3)
    assert policy.delay_before(1) == pytest.approx(0.1)
    assert policy.delay_before(2) == pytest.approx(0.2)
    assert policy.delay_before(3) == pytest.approx(0.3)  # capped
    assert policy.delay_before(9) == pytest.approx(0.3)


# ---------------------------------------------------------------------
# Orderly shutdown: stop() lets in-flight handler work finish, bounded
# by a grace deadline.
# ---------------------------------------------------------------------

class _SlowBackend:
    """Backend whose handling takes ``delay`` seconds (models a WAL
    fsync in progress when the host is asked to stop)."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.ctx = inner.ctx
        self.delay = delay
        self.entered = threading.Event()
        self.completed = 0

    def handle_bytes(self, data):
        self.entered.set()
        time.sleep(self.delay)
        response = self.inner.handle_bytes(data)
        self.completed += 1
        return response


def test_stop_joins_inflight_handler_work():
    """stop() must let a request already inside the backend finish (and
    its reply go out) rather than killing it mid-write."""
    server = CloudServer()
    backend = _SlowBackend(server, delay=0.5)
    host = TcpServerHost(backend).start()
    results = {}

    def worker():
        with TcpChannel(host.address, server.ctx,
                        retry=RetryPolicy(attempts=1, timeout=15.0)) as ch:
            results["reply"] = ch.request(msg.FetchFileRequest(file_id=1))

    thread = threading.Thread(target=worker)
    thread.start()
    assert backend.entered.wait(5.0)
    start = time.monotonic()
    host.stop()
    elapsed = time.monotonic() - start
    # The in-flight backend work ran to completion before stop returned...
    assert backend.completed == 1
    assert elapsed < 6.0
    # ...and the client still received the reply that was in flight.
    thread.join(timeout=5.0)
    assert isinstance(results.get("reply"), msg.ErrorReply)


def test_stop_prompt_with_idle_connection():
    """An idle persistent connection (parked in its read) must not
    make stop() wait out the whole grace period."""
    server = CloudServer()
    host = TcpServerHost(server).start()
    channel = TcpChannel(host.address, server.ctx)
    channel.request(msg.FetchFileRequest(file_id=1))  # handler now idle
    start = time.monotonic()
    host.stop(grace=10.0)
    assert time.monotonic() - start < 3.0
    channel.close()


def test_stop_abandons_wedged_handler_after_grace():
    """A backend that never returns cannot hang shutdown forever: after
    the grace deadline the handler is abandoned and stop() returns."""
    server = CloudServer()
    release = threading.Event()
    entered = threading.Event()

    class _Wedged:
        ctx = server.ctx

        def handle_bytes(self, data):
            entered.set()
            release.wait(30.0)
            return server.handle_bytes(data)

    host = TcpServerHost(_Wedged()).start()

    def worker():
        try:
            with TcpChannel(host.address, server.ctx,
                            retry=RetryPolicy(attempts=1,
                                              timeout=30.0)) as ch:
                ch.request(msg.FetchFileRequest(file_id=1))
        except Exception:
            pass  # the abandoned socket is force-closed under us

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    assert entered.wait(5.0)
    start = time.monotonic()
    host.stop(grace=0.3)
    assert time.monotonic() - start < 5.0
    release.set()
    thread.join(timeout=5.0)


def test_max_conns_bounds_concurrent_connections():
    """With max_conns=1 a second connection is only served after the
    first closes (backpressure: accepted, but not read)."""
    server = CloudServer()
    with TcpServerHost(server, max_conns=1) as host:
        first = TcpChannel(host.address, server.ctx)
        first.request(msg.FetchFileRequest(file_id=1))  # holds the slot
        done = threading.Event()
        results = {}

        def worker():
            with TcpChannel(host.address, server.ctx,
                            retry=RetryPolicy(attempts=1,
                                              timeout=15.0)) as ch:
                results["reply"] = ch.request(
                    msg.FetchFileRequest(file_id=1))
                done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        # The second connection is accepted but not read while the first
        # one occupies the only slot.
        assert not done.wait(0.4)
        first.close()
        assert done.wait(10.0)
        thread.join(timeout=5.0)
        assert isinstance(results["reply"], msg.ErrorReply)


def test_max_conns_validation():
    with pytest.raises(ValueError):
        TcpServerHost(CloudServer(), max_conns=0)


def test_failed_dispatch_releases_conn_slot(monkeypatch):
    """Regression: a connection whose serving fails must give its slot
    back -- with max_conns=1 a leaked slot would lock every later client
    out forever."""
    real_serve = _Connection.serve
    tripped = []

    def flaky_serve(self):
        if not tripped:
            tripped.append(True)
            raise RuntimeError("injected connection failure")
        return real_serve(self)

    monkeypatch.setattr(_Connection, "serve", flaky_serve)
    server = CloudServer()
    with TcpServerHost(server, max_conns=1) as host:
        retry = RetryPolicy(attempts=3, timeout=5.0, base_delay=0.01)
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            # First attempt dies with the injected failure; the retry
            # re-dials and must be served -- impossible if the slot leaked.
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)
        assert tripped
        # And the (only) slot is free again for a fresh connection.
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)


def test_close_interrupts_retry_backoff():
    """Regression: the exponential backoff used to sleep while holding
    the channel lock, so close() blocked for the full retry schedule."""
    import socket as socket_mod

    listener = socket_mod.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    try:
        # Accepts but never replies: every attempt times out, and the
        # huge base_delay parks the retry loop in its backoff sleep.
        retry = RetryPolicy(attempts=3, timeout=0.2, base_delay=30.0)
        channel = TcpChannel(listener.getsockname(), server_ctx(), retry=retry)
        failed = threading.Event()

        def worker():
            with pytest.raises(ChannelError):
                channel.request(msg.FetchFileRequest(file_id=1))
            failed.set()

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.5)  # first attempt timed out; now inside the backoff
        start = time.monotonic()
        channel.close()
        assert failed.wait(5.0)
        assert time.monotonic() - start < 5.0  # not the 30 s backoff
        thread.join(timeout=5.0)
    finally:
        listener.close()


def server_ctx():
    return CloudServer().ctx

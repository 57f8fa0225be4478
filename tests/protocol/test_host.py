"""The host's bounds: a fixed pool that no peer can pin, and a prompt stop.

``test_tcp.py`` and ``test_aio.py`` pin what the host answers; this
module pins what it costs and what cannot stall it: idle connections
take no thread, a peer that stalls mid-frame or never reads its replies
does not keep another connection from being answered, and ``stop()``
on an idle host returns at once (it wakes every pool thread without
waiting for a poll timeout).
"""

import socket
import struct
import threading
import time

import pytest

from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TAG_FLAG, RetryPolicy, TcpChannel
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket

_HEADER = struct.Struct(">IQ")


def _frame(payload: bytes, tag: int) -> bytes:
    return _HEADER.pack(TAG_FLAG | len(payload), tag) + payload


def test_idle_connections_take_no_thread():
    """48 idle connections on a 4-thread host add no thread, and every
    one of them is then served."""
    server = CloudServer()
    baseline = threading.active_count()
    with TcpServerHost(server, workers=4) as host:
        assert threading.active_count() <= baseline + 4
        channels = [TcpChannel(host.address, server.ctx) for _ in range(48)]
        try:
            time.sleep(0.2)  # every connection accepted and armed
            assert threading.active_count() <= baseline + 4 + 1
            for channel in channels:
                reply = channel.request(msg.FetchFileRequest(file_id=1))
                assert isinstance(reply, msg.ErrorReply)
            assert threading.active_count() <= baseline + 4 + 1
        finally:
            for channel in channels:
                channel.close()


def test_stalled_and_unread_peers_do_not_stop_a_third_connection():
    """With two pool threads, one peer that sends half a frame and
    stalls and one that pipelines large replies it never reads leave a
    third connection answered."""
    server = CloudServer()
    with TcpServerHost(server, workers=2) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("bulk"))
            client.outsource(1, [bytes(64 * 1024)] * 4)  # ~256 KB a fetch

        stalled = socket.create_connection(host.address, timeout=10)
        unread = socket.socket()
        unread.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        unread.connect(host.address)
        try:
            fetch = msg.encode_message(server.ctx,
                                       msg.FetchFileRequest(file_id=1))
            half = _frame(fetch, 1)
            stalled.sendall(half[:len(half) // 2])
            unread.sendall(b"".join(_frame(fetch, tag)
                                    for tag in range(1, 65)))
            time.sleep(0.5)  # the unread peer's replies now back up

            start = time.monotonic()
            retry = RetryPolicy(attempts=1, timeout=5.0)
            with TcpChannel(host.address, server.ctx, retry=retry) as third:
                reply = third.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.FetchFileReply)
            assert time.monotonic() - start < 5.0
        finally:
            stalled.close()
            unread.close()


def test_stop_is_prompt_on_an_idle_host():
    server = CloudServer()
    host = TcpServerHost(server, workers=8).start()
    pool = list(host._threads)
    with TcpChannel(host.address, server.ctx) as channel:
        channel.request(msg.FetchFileRequest(file_id=1))
        start = time.monotonic()
        host.stop()
        assert time.monotonic() - start < 1.0
    assert not any(thread.is_alive() for thread in pool)


def test_many_pipelining_clients_leave_no_connection_behind():
    """More clients than pool threads (and cores) pipeline flights with
    a short switch interval: every reply is the caller's own, and once
    the clients close, every connection's count of owed replies has
    reached zero, so the host has closed them all."""
    import sys

    server = CloudServer()
    interval = sys.getswitchinterval()
    with TcpServerHost(server, workers=3, max_inflight_per_conn=4) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("many"))
            client.outsource(1, [b"rec-%d" % i for i in range(8)])
            ids = client.item_ids_of(8)
        expected = {item: server.handle_bytes(msg.encode_message(
            server.ctx, msg.AccessRequest(file_id=1, item_id=item)))
            for item in ids}
        errors = []

        def reader(index):
            try:
                with TcpChannel(host.address, server.ctx,
                                retry=RetryPolicy(attempts=1,
                                                  timeout=10.0)) as own:
                    for round_ in range(30):
                        items = [ids[(index + round_ + k) % 8]
                                 for k in range(3)]
                        replies = own.request_many(
                            [msg.AccessRequest(file_id=1, item_id=item)
                             for item in items])
                        for item, reply in zip(items, replies):
                            assert msg.encode_message(server.ctx, reply) \
                                == expected[item]
            except Exception as exc:  # noqa: BLE001 - report to main
                errors.append(exc)

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        deadline = time.monotonic() + 5.0
        while host._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not host._conns


def test_accept_failure_backs_off_and_recovers(monkeypatch):
    """An accept that fails for want of descriptors is retried at a
    bounded rate (the listener stays ready), and the connection is
    served once accept works again."""
    import errno

    real_accept = socket.socket.accept
    failures = []

    def accept(self):
        if len(failures) < 3:
            failures.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")
        return real_accept(self)

    server = CloudServer()
    with TcpServerHost(server, workers=2) as host:
        monkeypatch.setattr(socket.socket, "accept", accept)
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.ErrorReply)
    assert len(failures) == 3
    assert failures[-1] - failures[0] >= 0.15  # no tight retry loop

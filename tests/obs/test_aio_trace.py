"""Trace trailers over the tagged framing.

``test_wire_trace.py`` pins the trailer bytes and
``test_end_to_end.py`` proves propagation through the file system over
TCP; this module proves the SAME trace context survives the tagged u64
framing -- including the channel's retransmit path, which re-sends the
traced request under a fresh tag.
"""

import io
import json
import struct
import time

import pytest

from repro import obs
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.obs.trace import TraceContext, span
from repro.protocol import messages as msg
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TAG_FLAG, RetryPolicy, TcpChannel
from repro.server.server import CloudServer

pytestmark = pytest.mark.socket

_LEN = struct.Struct(">I")
_TAG = struct.Struct(">Q")


def records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def spans_named(recs, name):
    return [r for r in recs if r.get("event") == "span" and r["name"] == name]


def _seeded(host, server, seed, n=4):
    with TcpChannel(host.address, server.ctx) as channel:
        client = AssuredDeletionClient(channel,
                                       rng=DeterministicRandom(seed))
        client.outsource(1, [b"net-%d" % i for i in range(n)])
        ids = client.item_ids_of(n)
    return client.keystore.get("master:1"), ids, client.keystore


def test_traced_delete_over_tagged_framing_shares_one_trace_id(tmp_path):
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    with TcpServerHost(server) as host:
        key, ids, keystore = _seeded(host, server, seed="aio-trace")
        buf.truncate(0)
        buf.seek(0)
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("t2"),
                                           keystore=keystore,
                                           store_keys=False)
            client.delete(1, key, ids[1])

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    trace_id = root["trace_id"]
    for name in ("rpc.request", "server.handle"):
        named = spans_named(recs, name)
        assert named, name
        assert all(r["trace_id"] == trace_id for r in named), name
    # The handler hangs off the rpc span that carried it, exactly as on
    # loopback -- the 12 framing bytes are trace-neutral.
    rpc_ids = {r["span_id"] for r in spans_named(recs, "rpc.request")}
    assert all(r["parent_span_id"] in rpc_ids
               for r in spans_named(recs, "server.handle"))


class _SlowReplyOnce:
    """Apply the first DeleteCommit but stall its reply past the client
    timeout, forcing a retransmit under a fresh tag."""

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


def test_retransmit_under_fresh_tag_keeps_the_trace_id():
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    backend = _SlowReplyOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        key, ids, keystore = _seeded(host, server, seed="aio-rt")
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx,
                        retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("rt2"),
                                           keystore=keystore,
                                           store_keys=False)
            client.delete(1, key, ids[0])
            assert channel.counters.retransmits >= 1
            # Let the stalled original reply arrive.  The next request's
            # caller reads it first: its stale tag must drop it without
            # disturbing the channel.
            time.sleep(1.2)
            reply = channel.request(msg.FetchFileRequest(file_id=1))
            assert isinstance(reply, msg.FetchFileReply)
            assert len(reply.ciphertexts) == 3

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    hits = [r for r in recs if r.get("event") == "server.replay_cache_hit"]
    assert hits
    # The retransmitted frame carried a NEW tag but the SAME trailer:
    # the replay-cache hit it produced server-side sits inside the
    # original end-to-end trace.
    assert all(h["trace_id"] == root["trace_id"] for h in hits)
    # And the fresh-tag duplicate applied exactly once.
    assert server.file_state(1).version == 1
    assert [r for r in recs if r.get("event") == "rpc.retransmit"]
    dropped = [r for r in recs
               if r.get("event") == "rpc.late_reply_dropped"]
    assert dropped  # the stale-tag original was discarded, not misrouted


class _Exploding:
    """Backend that dies on every request -- drives the host's
    error_reply_bytes path, the only reply that echoes a trailer."""

    def __init__(self, inner):
        self.inner = inner
        self.ctx = inner.ctx

    def handle_bytes(self, data):
        raise RuntimeError("backend down")


def test_raw_tagged_frame_error_reply_echoes_tag_and_trailer():
    """Byte-level: a tagged frame is [u32 len|TAG_FLAG][u64 tag][payload]
    where the payload still ends with the ordinary trace trailer; when
    the backend dies the synthesized ErrorReply echoes BOTH correlators
    -- the tag (framing layer) and the trace trailer (obs layer)."""
    import socket

    obs.enable()
    context = TraceContext(trace_id=bytes(range(16)),
                           span_id=bytes(range(8)))
    server = CloudServer()
    with TcpServerHost(_Exploding(server)) as host:
        payload = msg.encode_message(
            server.ctx,
            msg.ModifyCommit(file_id=404, item_id=1, ciphertext=b"x",
                             tree_version=0, request_id=9),
            trace=context)
        with socket.create_connection(host.address, timeout=10) as raw:
            raw.sendall(_LEN.pack(TAG_FLAG | len(payload))
                        + _TAG.pack(7) + payload)
            (word,) = _LEN.unpack(_recv_exact(raw, 4))
            assert word & TAG_FLAG
            (tag,) = _TAG.unpack(_recv_exact(raw, 8))
            assert tag == 7
            reply = msg.decode_message(server.ctx,
                                       _recv_exact(raw, word & ~TAG_FLAG))
    assert isinstance(reply, msg.ErrorReply)
    assert reply.request_id == 9
    echoed = msg.get_trace(reply)
    assert echoed is not None
    assert echoed.trace_id == context.trace_id


def test_untraced_tagged_frames_carry_no_trailer():
    """With observability off, tagged frames stay trailer-free -- the
    transport adds no per-request trace overhead by default."""
    assert not obs.runtime.enabled
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            reply = channel.request(msg.FetchFileRequest(file_id=404))
            assert isinstance(reply, msg.ErrorReply)
            assert msg.get_trace(reply) is None


def test_client_span_context_rides_the_tagged_framing():
    """An application-level span around a request becomes the parent of
    the server.handle span on the other side of the socket."""
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            with span("app.batch"):
                channel.request(msg.FetchFileRequest(file_id=404))
    recs = records(buf)
    (app,) = spans_named(recs, "app.batch")
    handles = spans_named(recs, "server.handle")
    assert handles
    assert all(r["trace_id"] == app["trace_id"] for r in handles)


def _recv_exact(sock, count):
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        assert chunk, "peer closed mid-frame"
        chunks += chunk
    return chunks

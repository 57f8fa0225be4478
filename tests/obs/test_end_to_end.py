"""Acceptance: one trace id follows a deletion client -> TCP -> server -> WAL.

These tests run a real CloudServer behind a real socket with
observability on, then parse the JSON log stream back and check the
span tree and the metrics registry against what actually happened.
"""

import io
import json
import time

from repro import obs
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.protocol import messages as msg
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import RetryPolicy, TcpChannel
from repro.server.server import CloudServer
from repro.server.wal import CommitLog


def records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def spans_named(recs, name):
    return [r for r in recs if r.get("event") == "span" and r["name"] == name]


def test_traced_delete_over_tcp_shares_one_trace_id(tmp_path):
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    server.attach_wal(CommitLog(str(tmp_path / "server.wal")))
    with server.wal, TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("e2e"))
            key = client.outsource(1, [b"a", b"b", b"c"])
            ids = client.item_ids_of(3)
            buf.truncate(0)
            buf.seek(0)
            client.delete(1, key, ids[1])

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    trace_id = root["trace_id"]
    # The whole operation -- client op, each round trip, the server
    # handlers across the socket, and the WAL appends they logged --
    # shares the root's trace id.
    for name in ("rpc.request", "server.handle", "wal.append"):
        named = spans_named(recs, name)
        assert named, name
        assert all(r["trace_id"] == trace_id for r in named), name
    # The server handler is a child of the rpc span that carried it.
    rpc_ids = {r["span_id"] for r in spans_named(recs, "rpc.request")}
    assert all(r["parent_span_id"] in rpc_ids
               for r in spans_named(recs, "server.handle"))
    # And the WAL fsync made it into the histogram.
    from repro.obs import instruments as ins
    assert ins.WAL_FSYNC_SECONDS.count() >= 1
    assert ins.WAL_APPENDS.value() >= 1


def test_traced_tcp_read_flies_two_request_spans_in_one_trace():
    """A record read sends its meta and data requests in one flight, and
    each keeps its own rpc span and trace trailer: two request spans,
    both in the read's trace, each adopted by the server span it
    carried."""
    buf = io.StringIO()
    server = CloudServer()
    with TcpServerHost(server) as host:
        fs = OutsourcedFileSystem.connect(host.address,
                                          rng=DeterministicRandom("read"))
        handle = fs.create_file("g/f", [b"a", b"b", b"c"])
        counters = fs.client.channel.counters
        before = counters.snapshot()
        obs.enable(log_stream=buf)
        assert handle.read_record(1) == b"b"
        delta = counters.delta(before)
        fs.client.channel.close()

    recs = records(buf)
    (root,) = spans_named(recs, "fs.read_record")
    rpcs = spans_named(recs, "rpc.request")
    assert sorted(r["type"] for r in rpcs) == ["AccessRequest"] * 2
    assert len({r["span_id"] for r in rpcs}) == 2
    assert {r["trace_id"] for r in rpcs} == {root["trace_id"]}
    handled = spans_named(recs, "server.handle")
    assert len(handled) == 2
    assert {r["trace_id"] for r in handled} == {root["trace_id"]}
    assert {r["parent_span_id"] for r in handled} == \
        {r["span_id"] for r in rpcs}
    assert (delta.round_trips, delta.flights) == (2, 1)
    from repro.obs import instruments as ins
    assert ins.RPC_SECONDS.count(type="AccessRequest") == 2


class _SlowReplyOnce:
    """Apply the first DeleteCommit but stall its reply past the client
    timeout, forcing a real retransmit of identical bytes."""

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


def test_injected_retransmit_logs_replay_cache_hit_in_the_same_trace():
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    server = CloudServer()
    backend = _SlowReplyOnce(server, delay=1.0)
    with TcpServerHost(backend) as host:
        retry = RetryPolicy(attempts=4, timeout=0.25, base_delay=0.01)
        with TcpChannel(host.address, server.ctx, retry=retry) as channel:
            client = AssuredDeletionClient(channel,
                                           rng=DeterministicRandom("replay"))
            key = client.outsource(1, [b"x", b"y", b"z"])
            ids = client.item_ids_of(3)
            client.delete(1, key, ids[0])
            assert channel.counters.retransmits >= 1

    recs = records(buf)
    (root,) = spans_named(recs, "client.delete")
    retransmits = [r for r in recs if r.get("event") == "rpc.retransmit"]
    hits = [r for r in recs if r.get("event") == "server.replay_cache_hit"]
    assert retransmits and hits
    # The replay-cache hit happened while serving the retransmitted
    # commit, inside the same end-to-end trace as the deletion.
    assert all(h["trace_id"] == root["trace_id"] for h in hits)
    assert any(h["cache"] == "request_id" for h in hits)
    # Applied exactly once despite the duplicate delivery.
    assert server.file_state(1).version == 1

    from repro.obs import instruments as ins
    assert ins.RPC_RETRANSMITS.value() >= 1
    assert ins.REPLAY_HITS.value(cache="request_id") >= 1
    assert ins.REPLAY_LOOKUPS.value(cache="request_id") >= \
        ins.REPLAY_HITS.value(cache="request_id")


def test_harness_records_bridge_into_the_registry():
    obs.enable()  # metrics only, no log sink
    fs = OutsourcedFileSystem(rng=DeterministicRandom("bridge"))
    f = fs.create_file("dir/data.bin", [b"one", b"two"])
    f.delete_record(0)

    from repro.obs import instruments as ins
    assert ins.OPS_TOTAL.value(op="delete") >= 1
    assert ins.OPS_TOTAL.value(op="outsource") >= 1
    assert ins.OP_SECONDS.count(op="delete") >= 1
    assert ins.SERVER_REQUESTS.total() >= 1
    # The same numbers render on the Prometheus page.
    text = obs.REGISTRY.render()
    assert 'repro_ops_total{op="delete"}' in text
    assert "repro_op_seconds_bucket" in text


def test_disabled_observability_emits_and_records_nothing():
    buf = io.StringIO()
    obs.enable(log_stream=buf)
    obs.disable()
    obs.REGISTRY.reset()

    fs = OutsourcedFileSystem(rng=DeterministicRandom("off"))
    f = fs.create_file("a", [b"r0", b"r1"])
    f.delete_record(1)

    assert buf.getvalue() == ""
    from repro.obs import instruments as ins
    assert ins.OPS_TOTAL.total() == 0
    assert ins.SERVER_REQUESTS.total() == 0

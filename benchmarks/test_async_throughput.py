"""Durable-mutation throughput vs connection count on the TCP host.

N tenants (one :class:`~repro.protocol.tcp.TcpChannel` connection each,
own file, disjoint id space) issue WAL-logged ``ModifyCommit`` mutations
as fast as they can against ONE
:class:`~repro.protocol.host.TcpServerHost`; the sweep reports
aggregate durable ops/s at 1, 16, 64 and 256 connections on the same
kind of log.

The commit log simulates a fixed per-fsync device latency
(``FSYNC_DELAY``) inside :meth:`CommitLog._sync` -- the seam added for
exactly this.  That placement is the point: one connection is pinned
at ~1/FSYNC_DELAY ops/s, and only grouping -- one fsync for every
append that arrived during the previous flush -- lets more connections
go faster on the same device.

Acceptance: >= 2x aggregate durable ops/s at 64 (and 256) connections
against 1 connection.

The sweep lands in ``BENCH_async.json`` at the repo root (its own
artifact, not folded into ``BENCH_hotpath.json``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.conftest import save_result
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.protocol import messages as msg
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TcpChannel
from repro.server.server import CloudServer
from repro.server.wal import CommitLog

#: Simulated fsync device latency, slept inside ``_sync`` (a real
#: container fsync is ~0.2 ms -- too fast to dominate the loop).  It
#: must dwarf the per-request CPU cost -- including GIL/scheduler churn
#: with hundreds of client threads on small CI boxes -- so the sweep
#: contrasts fsync disciplines, not interpreter overhead.
FSYNC_DELAY = 0.02
#: Handler pool on the host: sized explicitly (not by cpu count) so up
#: to 32 appends can be in flight and ride one fsync batch.
HOST_WORKERS = 32
CONN_COUNTS = (1, 16, 64, 256)
MEASURE_SECONDS = 0.8
RECORD_SIZE = 64
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_async.json")


class _SimulatedDiskLog(CommitLog):
    """A CommitLog whose fsync takes ``FSYNC_DELAY`` of device time.

    The sleep replaces the real ``os.fsync``: the host's disk would add
    its own, noisy latency on top of the simulated device's.
    """

    def _sync(self, fileno: int) -> None:
        time.sleep(FSYNC_DELAY)


class _Tenant:
    """One connection's endpoint: channel, outsourced file, op counter."""

    def __init__(self, index: int, address, ctx) -> None:
        self.index = index
        self.file_id = index + 1
        self.channel = TcpChannel(address, ctx)
        client = AssuredDeletionClient(
            self.channel, rng=DeterministicRandom(f"async-bench/{index}"))
        client.outsource(self.file_id,
                         [bytes([index % 251]) * RECORD_SIZE])
        self.item_id = client.item_ids_of(1)[0]
        self.ops = 0

    def modify_loop(self, barrier: threading.Barrier,
                    duration: float) -> None:
        # ModifyCommit does not bump tree_version, so the same message
        # shape repeats forever as a WAL-logged durable mutation; the
        # request_id must be fresh per op (idempotent replay cache).
        payload = bytes([self.index % 251]) * RECORD_SIZE
        uid_base = (self.index + 1) << 40
        issued = 0
        barrier.wait()
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            issued += 1
            reply = self.channel.request(msg.ModifyCommit(
                file_id=self.file_id, item_id=self.item_id,
                ciphertext=payload, tree_version=0,
                request_id=uid_base + issued))
            assert isinstance(reply, msg.Ack), reply
            # Count only completions INSIDE the window: with deep queues
            # (256 conns serialising on one fsync lock) the tail of
            # in-flight requests drains well past the deadline and must
            # not inflate the window's rate.
            if time.perf_counter() < deadline:
                self.ops += 1

    def close(self) -> None:
        self.channel.close()


def _measure(address, ctx, conns: int, duration: float) -> float:
    """Aggregate durable modifies/s achieved by ``conns`` connections."""
    with ThreadPoolExecutor(max_workers=min(32, conns)) as pool:
        tenants = list(pool.map(lambda i: _Tenant(i, address, ctx),
                                range(conns)))
    try:
        barrier = threading.Barrier(conns)
        threads = [threading.Thread(target=tenant.modify_loop,
                                    args=(barrier, duration),
                                    name=f"bench-conn-{tenant.index}")
                   for tenant in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(tenant.ops for tenant in tenants) / duration
    finally:
        for tenant in tenants:
            tenant.close()


def _sweep(duration: float, counts=CONN_COUNTS) -> dict[int, float]:
    curve: dict[int, float] = {}
    for conns in counts:
        # Fresh server + WAL per point: replay caches, file registries
        # and log length never leak across measurements.
        server = CloudServer()
        wal_path = os.path.join(
            os.environ.get("TMPDIR", "/tmp"),
            f"repro-bench-{os.getpid()}-{conns}.wal")
        if os.path.exists(wal_path):
            os.unlink(wal_path)
        wal = _SimulatedDiskLog(wal_path)
        server.attach_wal(wal)
        host = TcpServerHost(server, workers=HOST_WORKERS).start()
        try:
            curve[conns] = _measure(host.address, server.ctx, conns,
                                    duration)
        finally:
            host.stop()
            wal.close()
            os.unlink(wal_path)
    return curve


@pytest.fixture(scope="module")
def throughput_curve() -> dict[int, float]:
    curve = _sweep(duration=MEASURE_SECONDS)
    lines = [
        f"Durable ModifyCommit throughput vs connections, TCP host "
        f"(simulated {FSYNC_DELAY * 1e3:.1f} ms fsync, "
        f"{MEASURE_SECONDS:.1f} s measure window)",
        "",
        f"{'conns':>6} {'ops/s':>8} {'vs 1 conn':>10}",
    ]
    for conns in CONN_COUNTS:
        lines.append(f"{conns:>6} {curve[conns]:>8.1f} "
                     f"{curve[conns] / curve[1]:>9.2f}x")
    table = "\n".join(lines)
    save_result("async_throughput", table)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": 2,
            "op": "durable ModifyCommit over the tagged TCP channel",
            "fsync_delay_seconds": FSYNC_DELAY,
            "seconds": MEASURE_SECONDS,
            "ops_per_second": {str(c): curve[c] for c in CONN_COUNTS},
            "speedup_vs_1_conn": {
                str(c): curve[c] / curve[1] for c in CONN_COUNTS},
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + table)
    return curve


def test_group_commit_doubles_throughput_at_64_conns(throughput_curve):
    """>= 2x durable ops/s at 64 and 256 connections against 1."""
    for conns in (64, 256):
        assert throughput_curve[conns] >= 2.0 * throughput_curve[1], \
            throughput_curve


def test_quick_async_smoke():
    """CI smoke: tiny sweep, shape only -- 16 connections share fsyncs."""
    curve = _sweep(duration=0.25, counts=(1, 16))
    assert curve[16] > curve[1] * 1.5, curve

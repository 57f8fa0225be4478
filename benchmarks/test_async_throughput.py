"""Durable-mutation throughput vs connection count on the TCP host.

N tenants (one :class:`~repro.protocol.tcp.TcpChannel` connection each,
own file, disjoint id space) issue WAL-logged ``ModifyCommit`` mutations
as fast as they can against ONE
:class:`~repro.protocol.host.TcpServerHost`; the sweep reports
aggregate durable ops/s at 1, 16, 64 and 256 connections, once with the
seed's per-append fsync discipline and once with group commit.

The commit log simulates a fixed per-fsync device latency
(``FSYNC_DELAY``) inside :meth:`CommitLog._sync` -- the seam added for
exactly this.  That placement is the point: with one fsync per append
the device serializes the whole fleet at ~1/FSYNC_DELAY ops/s no matter
how many connections pile on, while group commit amortizes one fsync
over every append that arrived during the previous flush.

Acceptance (ISSUE 7): >= 2x aggregate durable ops/s with group commit
over per-append fsync at >= 64 connections.

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
#: to 32 appends can be in flight and ride one group-commit batch.
HOST_WORKERS = 32
CONN_COUNTS = (1, 16, 64, 256)
MEASURE_SECONDS = 0.8
RECORD_SIZE = 64
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_async.json")


class _SimulatedDiskLog(CommitLog):
    """A CommitLog whose fsync takes ``FSYNC_DELAY`` of device time."""

    def _sync(self, fileno: int) -> None:
        time.sleep(FSYNC_DELAY)
        super()._sync(fileno)


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


def _sweep(group_commit: bool, duration: float,
           counts=CONN_COUNTS) -> dict[int, float]:
    curve: dict[int, float] = {}
    for conns in counts:
        # Fresh server + WAL per point: replay caches, file registries
        # and log length never leak across measurements.
        server = CloudServer()
        wal_path = os.path.join(
            os.environ.get("TMPDIR", "/tmp"),
            f"repro-bench-{os.getpid()}-{group_commit}-{conns}.wal")
        if os.path.exists(wal_path):
            os.unlink(wal_path)
        wal = _SimulatedDiskLog(wal_path, group_commit=group_commit)
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
def throughput_curves() -> dict[str, dict[int, float]]:
    per_append = _sweep(group_commit=False, duration=MEASURE_SECONDS)
    grouped = _sweep(group_commit=True, duration=MEASURE_SECONDS)

    lines = [
        f"Durable ModifyCommit throughput vs connections, TCP host "
        f"(simulated {FSYNC_DELAY * 1e3:.1f} ms fsync, "
        f"{MEASURE_SECONDS:.1f} s measure window)",
        "",
        f"{'conns':>6} {'per-append/s':>13} {'group-commit/s':>15} "
        f"{'speedup':>8}",
    ]
    for conns in CONN_COUNTS:
        lines.append(
            f"{conns:>6} {per_append[conns]:>13.1f} "
            f"{grouped[conns]:>15.1f} "
            f"{grouped[conns] / per_append[conns]:>7.2f}x")
    table = "\n".join(lines)
    save_result("async_throughput", table)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": 1,
            "op": "durable ModifyCommit over the tagged TCP channel",
            "fsync_delay_seconds": FSYNC_DELAY,
            "seconds": MEASURE_SECONDS,
            "ops_per_second": {
                "per_append": {str(c): per_append[c] for c in CONN_COUNTS},
                "group_commit": {str(c): grouped[c] for c in CONN_COUNTS},
            },
            "group_commit_speedup": {
                str(c): grouped[c] / per_append[c] for c in CONN_COUNTS},
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + table)
    return {"per_append": per_append, "group_commit": grouped}


def test_group_commit_doubles_throughput_at_64_conns(throughput_curves):
    """ISSUE 7 acceptance: >= 2x durable ops/s at >= 64 connections."""
    for conns in (64, 256):
        ratio = (throughput_curves["group_commit"][conns]
                 / throughput_curves["per_append"][conns])
        assert ratio >= 2.0, throughput_curves


def test_group_commit_scales_with_connections(throughput_curves):
    """More connections must keep helping the grouped log (the batch
    grows), while per-append stays pinned near the device ceiling."""
    grouped = throughput_curves["group_commit"]
    assert grouped[64] > grouped[1] * 2.0, throughput_curves


def test_quick_async_smoke():
    """CI smoke: tiny sweep, shape only -- grouping beats per-append."""
    per_append = _sweep(group_commit=False, duration=0.25, counts=(16,))
    grouped = _sweep(group_commit=True, duration=0.25, counts=(16,))
    assert grouped[16] > per_append[16] * 1.5, (per_append, grouped)

"""Durable-mutation throughput vs shard count on the sharded tier.

A fixed fleet of worker threads (one outsourced file each, balanced
across shards by construction) issues WAL-logged ``ModifyCommit``
mutations as fast as it can through the consistent-hash router against
a :class:`~repro.server.cluster.ShardCluster` of 1, 2, 4 and 8 loopback
shards.  Every shard owns its own commit log on its own simulated
device.

The device model: an fsync takes ``FSYNC_DELAY`` for every request
frame it makes durable (slept inside :meth:`CommitLog._sync`).  Every
commit log groups concurrent appends into one fsync, so a delay per
fsync would let one shard absorb the whole fleet and measure grouping,
not shards.  Charging the device per frame models what shards still
add -- independent devices, each with its own write bandwidth -- and is
the per-fsync model exactly whenever one fsync carries one frame.  So a
single shard is pinned near 1/FSYNC_DELAY durable ops/s no matter how
many workers pile on, while N shards are N independent devices.

Acceptance: >= 2.5x aggregate durable ops/s at 4 shards over 1 shard on
this device-bound workload.

The sweep lands in ``BENCH_shard.json`` at the repo root (its own
artifact, next to ``BENCH_async.json``).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

import pytest

from benchmarks.conftest import save_result
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.fs.sharding import HashRing, ShardRoutingChannel
from repro.protocol import messages as msg
from repro.server.cluster import ShardCluster
from repro.server.wal import KIND_REQUEST, CommitLog

#: Simulated device time per request frame made durable.  Small enough
#: that the 4-point sweep stays fast, large enough to dwarf per-request
#: CPU cost so the sweep contrasts device counts, not interpreter
#: overhead.
FSYNC_DELAY = 0.004
SHARD_COUNTS = (1, 2, 4, 8)
#: Worker threads; divisible by every shard count so the load balances
#: exactly (workers // shards files per shard).
WORKERS = 8
MEASURE_SECONDS = 0.8
RECORD_SIZE = 64
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_shard.json")


class _SimulatedDiskLog(CommitLog):
    """A CommitLog whose fsync takes ``FSYNC_DELAY`` of device time per
    request frame it makes durable."""

    _frames = 0

    def _commit_locked(self, entries, sync):
        self._frames = sum(entry.kind == KIND_REQUEST for entry in entries)
        return super()._commit_locked(entries, sync)

    def _sync(self, fileno: int) -> None:
        # Replaces the real ``os.fsync``: the host's disk would add its
        # own, noisy latency on top of the simulated device's.
        time.sleep(FSYNC_DELAY * self._frames)


def _balanced_file_ids(ring: HashRing, shards: int, workers: int) -> list[int]:
    """``workers`` file ids placing exactly ``workers // shards`` files
    on every shard -- the sweep measures devices, not ring luck."""
    per_shard = workers // shards
    counts = {shard_id: 0 for shard_id in range(shards)}
    ids: list[int] = []
    candidate = 1
    while len(ids) < workers:
        owner = ring.shard_of(candidate)
        if counts[owner] < per_shard:
            ids.append(candidate)
            counts[owner] += 1
        candidate += 1
    return ids


class _Worker:
    """One worker: a routed channel, an outsourced file, an op counter."""

    def __init__(self, index: int, file_id: int, shard_map) -> None:
        self.index = index
        self.file_id = file_id
        self.channel = ShardRoutingChannel(shard_map)
        client = AssuredDeletionClient(
            self.channel, rng=DeterministicRandom(f"shard-bench/{index}"))
        client.outsource(file_id, [bytes([index % 251]) * RECORD_SIZE])
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
            # Count only completions INSIDE the window: requests queued
            # on a shard's device drain past the deadline and must not
            # inflate the window's rate.
            if time.perf_counter() < deadline:
                self.ops += 1

    def close(self) -> None:
        self.channel.close()


def _measure(shards: int, duration: float) -> float:
    """Aggregate durable modifies/s of WORKERS threads on N shards."""
    data_dir = tempfile.mkdtemp(prefix=f"repro-shard-bench-{shards}-")
    cluster = ShardCluster(
        shards, transport="loopback", data_dir=data_dir,
        wal_factory=_SimulatedDiskLog)
    workers: list[_Worker] = []
    try:
        shard_map = cluster.shard_map()
        file_ids = _balanced_file_ids(cluster.ring, shards, WORKERS)
        workers = [_Worker(index, file_id, shard_map)
                   for index, file_id in enumerate(file_ids)]
        barrier = threading.Barrier(WORKERS)
        threads = [threading.Thread(target=worker.modify_loop,
                                    args=(barrier, duration),
                                    name=f"bench-worker-{worker.index}")
                   for worker in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(worker.ops for worker in workers) / duration
    finally:
        for worker in workers:
            worker.close()
        cluster.stop()
        shutil.rmtree(data_dir, ignore_errors=True)


@pytest.fixture(scope="module")
def shard_curve() -> dict[int, float]:
    curve = {shards: _measure(shards, MEASURE_SECONDS)
             for shards in SHARD_COUNTS}

    lines = [
        f"Durable ModifyCommit throughput vs shard count, "
        f"{WORKERS} workers over the consistent-hash router "
        f"(simulated device: {FSYNC_DELAY * 1e3:.1f} ms per request frame "
        f"fsync'd, "
        f"{MEASURE_SECONDS:.1f} s measure window)",
        "",
        f"{'shards':>6} {'durable ops/s':>14} {'speedup':>8}",
    ]
    for shards in SHARD_COUNTS:
        lines.append(f"{shards:>6} {curve[shards]:>14.1f} "
                     f"{curve[shards] / curve[1]:>7.2f}x")
    table = "\n".join(lines)
    save_result("shard_scaling", table)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": 2,
            "op": "durable ModifyCommit through the shard router "
                  "(loopback, one grouped WAL and device per shard)",
            "device_model": "an fsync takes fsync_delay_seconds per "
                            "request frame it makes durable",
            "fsync_delay_seconds": FSYNC_DELAY,
            "seconds": MEASURE_SECONDS,
            "workers": WORKERS,
            "ops_per_second": {str(s): curve[s] for s in SHARD_COUNTS},
            "speedup_vs_one_shard": {
                str(s): curve[s] / curve[1] for s in SHARD_COUNTS},
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + table)
    return curve


def test_four_shards_scale_durable_throughput(shard_curve):
    """>= 2.5x aggregate durable ops/s at 4 shards vs 1 on the
    device-bound workload."""
    assert shard_curve[4] >= shard_curve[1] * 2.5, shard_curve


def test_shard_curve_is_monotonic_enough(shard_curve):
    """More devices keep helping: 8 shards beat 2 shards."""
    assert shard_curve[8] > shard_curve[2], shard_curve


def test_quick_shard_smoke():
    """CI smoke: tiny sweep, shape only -- two devices beat one."""
    one = _measure(1, 0.25)
    two = _measure(2, 0.25)
    assert two > one * 1.3, (one, two)

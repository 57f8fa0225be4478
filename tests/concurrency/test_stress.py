"""Seed-driven concurrency stress tests (tier: concurrency).

Each test case is one full stress iteration: N client threads (plus
keyless foreign readers) hammer a shard cluster (one shard here; the
multi-shard axis lives in ``test_sharded_stress.py``) through a seeded
random op mix, then every invariant in ``repro.sim.stress`` is checked
-- version accounting, distinct modulators in every live tree,
surviving-data decryption, cross-shard placement, Theorem-2
unrecoverability of deleted items at both tree levels, per-shard
WAL-replay state equality, and per-shard audit-chain history.

The iteration count scales with ``REPRO_STRESS_ITERATIONS`` (default 6
per transport, CI's concurrency job raises it to 100 per transport for
the 200-iteration gate, nightly goes 10x).  Every seed is derived from
the iteration index, so a CI failure names the exact seed to replay
locally::

    PYTHONPATH=src python -m repro.cli stress --seed loopback-17 -v
"""

from __future__ import annotations

import os

import pytest

from repro.sim import stress
from repro.sim.stress import (InvariantViolation, StressConfig, StressReport,
                              run_stress)

pytestmark = pytest.mark.stress

ITERATIONS = int(os.environ.get("REPRO_STRESS_ITERATIONS", "6"))

EXPECTED_INVARIANTS = [
    "version-accounting",
    "distinct-modulators",
    "surviving-data-decrypts",
    "cross-shard-placement",
    "theorem2-deleted-unrecoverable",
    "wal-replay-reproduces-state",
    "audit-chain-matches-history",
]


def _check(report: StressReport) -> None:
    assert report.invariants == EXPECTED_INVARIANTS
    assert report.files_created >= report.config.workers
    assert report.wal_records > 0


@pytest.mark.parametrize("seed",
                         [f"loopback-{i}" for i in range(ITERATIONS)])
def test_loopback_stress(seed):
    report = run_stress(StressConfig(
        seed=seed, workers=4, ops_per_worker=12, readers=2,
        transport="loopback"))
    _check(report)


@pytest.mark.parametrize("seed", [f"{prefix}-{i}"
                                  for prefix in ("tcp", "async")
                                  for i in range(ITERATIONS)])
def test_tcp_stress(seed):
    """Pipelined TCP channels + group-commit WAL, same invariants (the
    ``async-*`` seeds are those of the former second TCP transport)."""
    report = run_stress(StressConfig(
        seed=seed, workers=4, ops_per_worker=10, readers=2,
        transport="tcp"))
    _check(report)


def test_same_seed_same_operations():
    """The op mix is an exact function of the seed: two runs of one seed
    perform identical operation sequences (interleavings may differ)."""
    config = StressConfig(seed="determinism", workers=3, ops_per_worker=10)
    first = run_stress(config)
    second = run_stress(config)
    assert first.ops == second.ops
    assert first.items_deleted == second.items_deleted
    assert first.files_dropped == second.files_dropped
    assert first.wal_records == second.wal_records


def test_transport_agnostic_op_mix():
    """The seeded op sequence does not depend on the transport."""
    loopback = run_stress(StressConfig(
        seed="xport", workers=2, ops_per_worker=8, transport="loopback"))
    tcp = run_stress(StressConfig(
        seed="xport", workers=2, ops_per_worker=8, transport="tcp"))
    assert loopback.ops == tcp.ops
    assert loopback.wal_records == tcp.wal_records


def test_tcp_same_seed_is_deterministic():
    """Pipelining and group commit change interleavings and fsync
    batching, never the seeded op outcome: two TCP runs of one seed
    agree op-for-op and record-for-record."""
    config = StressConfig(seed="aio-determinism", workers=3,
                          ops_per_worker=10, readers=1, transport="tcp")
    first = run_stress(config)
    second = run_stress(config)
    assert first.ops == second.ops
    assert first.items_deleted == second.items_deleted
    assert first.files_dropped == second.files_dropped
    assert first.wal_records == second.wal_records


def test_config_validation():
    with pytest.raises(ValueError):
        StressConfig(transport="carrier-pigeon")
    with pytest.raises(ValueError):
        StressConfig(transport="async")  # one TCP transport
    with pytest.raises(ValueError):
        StressConfig(workers=0)
    with pytest.raises(ValueError):
        StressConfig(min_records=5, max_records=2)


def test_report_summary_shape():
    report = run_stress(StressConfig(
        seed="summary", workers=2, ops_per_worker=6, readers=0))
    summary = report.summary()
    assert summary["seed"] == "summary"
    assert summary["invariants"] == EXPECTED_INVARIANTS
    assert summary["foreign_reads"] == 0
    assert set(summary["ops"]) <= {
        "create", "read", "read_all", "modify", "insert", "delete",
        "batch_delete", "drop"}


def test_planted_duplicate_modulator_is_detected(monkeypatch):
    """A live tree holding one value twice fails the run, naming the
    invariant -- whatever put it there (here: a write through
    ``file_state`` just before the end-of-run checks)."""
    verify = stress._verify

    def plant_then_verify(cluster, tenants, report):
        server = cluster.units[0].server
        file_id = max(server.file_ids(),
                      key=lambda fid: server.file_state(fid).tree.leaf_count)
        store = server.file_state(file_id).tree.store
        assert server.file_state(file_id).tree.leaf_count >= 2
        store.set_link(3, store.get_link(2))
        verify(cluster, tenants, report)

    monkeypatch.setattr(stress, "_verify", plant_then_verify)
    with pytest.raises(InvariantViolation, match="distinct-modulators"):
        run_stress(StressConfig(seed="plant", workers=2, ops_per_worker=4,
                                readers=0))

"""Multi-shard stress runs (tier: concurrency).

The same seeded harness as ``test_stress.py``, but with ``shards > 1``:
every tenant's requests route through the consistent-hash ring to N
independent server units, each with its own WAL and audit chain.  All
six invariants must hold per shard -- in particular cross-shard
placement (no file ever strays from its ring-assigned shard) and
per-shard WAL-replay/audit-history equality.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.stress import StressConfig, run_stress

from .test_stress import EXPECTED_INVARIANTS

pytestmark = pytest.mark.stress

ITERATIONS = max(1, int(os.environ.get("REPRO_STRESS_ITERATIONS", "6")) // 2)


def _check(report) -> None:
    assert report.invariants == EXPECTED_INVARIANTS
    assert report.files_created >= report.config.workers
    assert report.wal_records > 0
    assert report.summary()["shards"] == report.config.shards


@pytest.mark.parametrize("seed",
                         [f"shard-loop-{i}" for i in range(ITERATIONS)])
def test_sharded_loopback_stress(seed):
    report = run_stress(StressConfig(
        seed=seed, workers=4, ops_per_worker=10, readers=2,
        transport="loopback", shards=4))
    _check(report)


@pytest.mark.parametrize("seed",
                         [f"shard-{prefix}-{i}" for prefix in ("tcp", "aio")
                          for i in range(ITERATIONS)])
def test_sharded_tcp_stress(seed):
    """Per-shard hosts + group-commit WALs (the ``shard-aio-*`` seeds are
    those of the former second TCP transport)."""
    report = run_stress(StressConfig(
        seed=seed, workers=4, ops_per_worker=8, readers=2,
        transport="tcp", shards=3))
    _check(report)


def test_shard_count_does_not_change_op_mix():
    """Sharding only changes *where* commits land, never *what* the
    seeded workload does: identical op counts and total WAL records
    at 1 and 4 shards."""
    one = run_stress(StressConfig(
        seed="shard-axis", workers=3, ops_per_worker=10, shards=1))
    four = run_stress(StressConfig(
        seed="shard-axis", workers=3, ops_per_worker=10, shards=4))
    assert one.ops == four.ops
    assert one.items_deleted == four.items_deleted
    assert one.files_dropped == four.files_dropped
    assert one.wal_records == four.wal_records
    assert one.audit_records == four.audit_records


def test_sharded_same_seed_is_deterministic():
    config = StressConfig(seed="shard-determinism", workers=3,
                          ops_per_worker=10, shards=4)
    first = run_stress(config)
    second = run_stress(config)
    assert first.ops == second.ops
    assert first.wal_records == second.wal_records


def test_shards_validation():
    with pytest.raises(ValueError):
        StressConfig(shards=0)

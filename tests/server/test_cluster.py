"""ShardCluster unit behaviour (tier: server).

Loopback cluster lifecycle, placement bookkeeping, per-shard health
probes feeding ``/readyz``, durable per-shard recovery, and the TCP
path through :meth:`OutsourcedFileSystem.connect_sharded`.
"""

from __future__ import annotations

import pytest

from repro.core.errors import StorageError
from repro.fs.filesystem import OutsourcedFileSystem
from repro.fs.sharding import ShardRoutingChannel
from repro.obs.health import HEALTH
from repro.server.cluster import ShardCluster
from repro.server.wal import CommitLog


def _routed_fs(cluster: ShardCluster) -> OutsourcedFileSystem:
    return OutsourcedFileSystem(
        channel=ShardRoutingChannel(cluster.shard_map()))


def test_rejects_bad_configuration(tmp_path):
    with pytest.raises(ValueError):
        ShardCluster(0)
    with pytest.raises(ValueError):
        ShardCluster(2, transport="carrier-pigeon")
    with pytest.raises(ValueError):
        ShardCluster(2, data_dir=str(tmp_path), durable=True,
                     wal_factory=CommitLog)
    with pytest.raises(ValueError, match="storage engine"):
        ShardCluster(2, data_dir=str(tmp_path), durable=True)


def test_loopback_cluster_places_files_on_ring_shards(tmp_path):
    cluster = ShardCluster(4, data_dir=str(tmp_path),
                           wal_factory=CommitLog, fresh=True)
    try:
        fs = _routed_fs(cluster)
        for i in range(8):
            fs.create_file(f"f{i}.txt", [b"x"])
        counts = cluster.file_counts()
        assert sum(counts.values()) == 9  # 8 data trees + 1 meta tree
        for unit in cluster.units:
            for file_id in unit.server.file_ids():
                assert cluster.shard_of(file_id) == unit.shard_id
        assert cluster.total_wal_records() > 0
    finally:
        cluster.stop()


def test_adopt_server_splits_files_across_the_ring():
    source_fs = OutsourcedFileSystem()
    for i in range(6):
        source_fs.create_file(f"v{i}.txt", [b"a", b"b"])
    cluster = ShardCluster(3)
    try:
        placed = cluster.adopt_server(source_fs.server)
        assert placed == len(source_fs.server.file_ids())
        for unit in cluster.units:
            for file_id in unit.server.file_ids():
                assert cluster.shard_of(file_id) == unit.shard_id
    finally:
        cluster.stop()


def test_per_shard_health_probes_gate_readiness(tmp_path):
    HEALTH.reset()
    cluster = ShardCluster(3, data_dir=str(tmp_path),
                           wal_factory=CommitLog, fresh=True)
    try:
        cluster.register_health()
        report = HEALTH.run_checks()
        assert report["ready"] is True
        assert sorted(report["checks"]) == ["shard-0", "shard-1",
                                            "shard-2"]
        # One shard's WAL failing closed must flip the WHOLE tier to
        # not-ready: /readyz is ready only when every shard is.
        cluster.units[1].wal._failed = True
        report = HEALTH.run_checks()
        assert report["ready"] is False
        assert report["checks"]["shard-1"]["ok"] is False
        assert report["checks"]["shard-0"]["ok"] is True
        cluster.unregister_health()
        assert HEALTH.run_checks()["checks"] == {}
    finally:
        cluster.stop()
        HEALTH.reset()


def _durable(tmp_path, **kwargs) -> ShardCluster:
    return ShardCluster(2, data_dir=str(tmp_path), durable=True,
                        storage_backend="sqlite", **kwargs)


def test_durable_cluster_recovers_each_shard_independently(tmp_path):
    cluster = _durable(tmp_path)
    fs = _routed_fs(cluster)
    fs.create_file("keep.txt", [b"one", b"two"])
    file_ids = {unit.shard_id: set(unit.server.file_ids())
                for unit in cluster.units}
    cluster.compact()
    cluster.stop()

    reopened = _durable(tmp_path)
    try:
        assert reopened.had_state
        for unit in reopened.units:
            assert set(unit.server.file_ids()) == file_ids[unit.shard_id]
    finally:
        reopened.stop()


def test_fresh_wipes_previous_state(tmp_path):
    cluster = _durable(tmp_path)
    _routed_fs(cluster).create_file("stale.txt", [b"x"])
    cluster.compact()
    cluster.stop()
    wiped = _durable(tmp_path, fresh=True)
    try:
        assert not wiped.had_state
        assert all(unit.server.file_count() == 0 for unit in wiped.units)
    finally:
        wiped.stop()


def test_durable_cluster_refuses_a_leftover_shard_image(tmp_path):
    """A shard directory still holding an earlier version's checkpoint
    image is refused by name before any shard opens: recovering from the
    engine alone would drop every commit in the image."""
    image = tmp_path / "shard-1" / "shard.img"
    image.parent.mkdir()
    image.write_bytes(b"RPRV")
    with pytest.raises(StorageError, match="shard-1/shard.img"):
        _durable(tmp_path)
    assert not (tmp_path / "shard-0").exists()  # nothing was opened


@pytest.mark.socket
def test_tcp_cluster_serves_connect_sharded(tmp_path):
    with ShardCluster(3, transport="tcp", data_dir=str(tmp_path),
                      wal_factory=CommitLog, fresh=True) as cluster:
        fs = OutsourcedFileSystem.connect_sharded(cluster.addresses())
        fs.create_file("wire.txt", [b"alpha", b"beta"])
        assert fs.open("wire.txt").read_all() == [b"alpha", b"beta"]
        assert fs.shard_of("wire.txt") == cluster.shard_of(
            fs.open("wire.txt").file_id)
        fs.open("wire.txt").delete_record(0)
        assert fs.open("wire.txt").read_all() == [b"beta"]
        fs.client.channel.close()


@pytest.mark.socket
def test_async_cluster_serves_connect_sharded(tmp_path):
    with ShardCluster(2, transport="async", data_dir=str(tmp_path),
                      wal_factory=lambda p: CommitLog(p, group_commit=True),
                      fresh=True) as cluster:
        fs = OutsourcedFileSystem.connect_sharded(cluster.addresses(),
                                                  transport="async")
        fs.create_file("aio.txt", [b"alpha"])
        assert fs.open("aio.txt").read_all() == [b"alpha"]
        fs.client.channel.close()


def test_addresses_requires_serving():
    cluster = ShardCluster(2)
    try:
        with pytest.raises(RuntimeError):
            cluster.addresses()
    finally:
        cluster.stop()

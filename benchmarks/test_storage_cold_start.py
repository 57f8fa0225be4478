"""Cold-start and warm-delete cost of the out-of-core storage engine.

One dense world of ``N`` items is built directly (random modulators via
:meth:`DenseModulatorStore.bulk_fill`, real ciphertexts only for the
delete targets) and written into the SQLite storage engine.

Cold start is then the wall time to get a serving server back:
``recover_server(wal, engine=...)`` opens the engine and replays only
the WAL tail -- O(working set), independent of N.  Its O(n) reference
is an eager load of the same engine state into a resident server
through the engine's range scans (``scan_nodes``/``scan_items`` plus one
multi-key ciphertext read), which is what any whole-state format must
do before serving.  Warm delete latency runs the full two-party
deletion protocol over a loopback channel against the engine world and
against a resident in-memory world built from the same seed (same
keys, same targets, same client rng) and compares medians.  Finally the
WAL-replay bound is checked: replay work equals the mutations since the
last ``compact_storage``, and drops to zero right after one.

Floors: SQLite cold start >= 10x faster than the eager load, warm
delete median <= 1.3x in-memory, WAL replay bounded by work since
compaction.  The sweep lands in ``BENCH_storage.json`` at the repo root
(next to ``BENCH_shard.json``); ``REPRO_FULL_SCALE=1`` runs the paper
scale n=10^6, the default n=10^5 keeps CI within budget.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import tempfile
import time

import pytest

from benchmarks.conftest import save_result
from repro.client.client import AssuredDeletionClient
from repro.core import ops
from repro.core.ciphertext import ItemCodec
from repro.core.modstore import DenseModulatorStore
from repro.core.modulated_chain import ChainEngine
from repro.core.params import Params
from repro.core.tree import ItemMap, ModulationTree
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.engine import KIND_LEAF, KIND_LINK, make_engine
from repro.server.server import CloudServer
from repro.server.storage import InMemoryCiphertextStore
from repro.server.wal import CommitLog, recover_server

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") not in ("", "0")
#: Paper scale when REPRO_FULL_SCALE=1; CI-budget scale otherwise.
N_ITEMS = 1_000_000 if FULL_SCALE else 100_000
FILE_ID = 7
WARMUP_DELETES = 4
MEASURED_DELETES = 32
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_storage.json")

#: Registry-free on both sides: engine-materialised files never carry a
#: duplicate-modulator registry, so the in-memory baseline must not pay
#: (or enjoy) one either for the latency comparison to mean anything.
PARAMS = Params(enforce_unique_modulators=False)


def _build_seed(n: int, seed: str) -> tuple[CloudServer, bytes, list[int]]:
    """Build one dense n-item world; returns (server, master_key, targets).

    Modulators are drawn in bulk; every item gets a small placeholder
    ciphertext, and the delete targets get *real* ciphertexts encrypted
    under the chain output of their root-to-leaf path so the client's
    decrypt-and-verify step in the deletion protocol passes.
    """
    rng = DeterministicRandom(seed)
    master_key = rng.bytes(PARAMS.master_key_size)
    tree = ModulationTree.build_random(list(range(n)), PARAMS.modulator_size,
                                       rng)
    cts = InMemoryCiphertextStore()
    placeholder = b"\x00" * 8
    for item_id in range(n):
        cts.put(item_id, placeholder)

    # Targets stay clear of the top 4*(warmup+measured) ids: deletion
    # rebalancing moves the *last* item into the hole, and a moved
    # target would still decrypt (moves preserve chain outputs) but
    # would make the per-delete work less uniform.
    total = WARMUP_DELETES + MEASURED_DELETES
    targets = random.Random(20140707).sample(range(n - 4 * total), total)
    engine = ChainEngine(PARAMS.chain_hash)
    codec = ItemCodec(PARAMS)
    for item_id in targets:
        view = tree.path_view(tree.slot_of_item(item_id))
        output = ops.chain_output_for_path(engine, master_key, view)
        cts.put(item_id, codec.encrypt(output, b"payload-%d" % item_id,
                                       item_id, rng.bytes(8)))

    server = CloudServer(PARAMS)
    server.adopt_file(FILE_ID, tree, cts, build_registry=False)
    return server, master_key, targets


def _timed_deletes(server: CloudServer, master_key: bytes,
                   targets: list[int]) -> list[float]:
    """Run the deletion protocol for every target; per-delete seconds."""
    client = AssuredDeletionClient(LoopbackChannel(server), PARAMS,
                                   rng=DeterministicRandom("bench-del"),
                                   store_keys=False)
    timings = []
    key = master_key
    for item_id in targets:
        start = time.perf_counter()
        key = client.delete(FILE_ID, key, item_id)
        timings.append(time.perf_counter() - start)
    return timings


def _eager_load(engine_file: str) -> CloudServer:
    """Read the engine's whole state into a resident server: the O(n)
    work a whole-state format does before it can serve."""
    engine = make_engine("sqlite", engine_file)
    try:
        n = engine.get_meta(FILE_ID).n_leaves
        store = DenseModulatorStore(PARAMS.modulator_size)
        for slot, value in engine.scan_nodes(FILE_ID, KIND_LINK, 2, 2 * n):
            store.set_link(slot, value)
        for slot, value in engine.scan_nodes(FILE_ID, KIND_LEAF, n, 2 * n):
            store.set_leaf(slot, value)
        item_map = ItemMap()
        items = engine.scan_items(FILE_ID, n, 2 * n)
        for slot, item_id in items:
            item_map.set(item_id, slot)
        item_ids = [item_id for _slot, item_id in items]
        cts = InMemoryCiphertextStore()
        for item_id, ciphertext in zip(
                item_ids, engine.get_ciphertexts(FILE_ID, item_ids)):
            cts.put(item_id, ciphertext)
    finally:
        engine.close()
    server = CloudServer(PARAMS)
    server.adopt_file(FILE_ID, ModulationTree.wrap(store, n, item_map), cts,
                      build_registry=False)
    return server


def _engine_world(data_dir: str, backend: str, n: int,
                  seed: str) -> dict[str, float]:
    """Build + convert one world; measure eager load vs engine cold start."""
    engine_file = os.path.join(data_dir, f"{backend}.engine")
    wal_path = os.path.join(data_dir, f"{backend}.wal")

    seed_server, master_key, targets = _build_seed(n, seed)
    engine = make_engine(backend, engine_file)
    seed_server.attach_engine(engine)
    convert_start = time.perf_counter()
    seed_server.compact_storage()
    convert_seconds = time.perf_counter() - convert_start
    engine.close()
    del seed_server

    load_start = time.perf_counter()
    loaded = _eager_load(engine_file)
    eager_seconds = time.perf_counter() - load_start
    del loaded

    recover_start = time.perf_counter()
    engine_server = recover_server(wal_path, PARAMS,
                                   engine=make_engine(backend, engine_file))
    engine_seconds = time.perf_counter() - recover_start

    # The in-memory side of the delete comparison, built directly from
    # the same seed (identical tree, keys and targets).
    memory_server, _, _ = _build_seed(n, seed)
    memory_server.attach_wal(CommitLog(os.path.join(data_dir,
                                                    f"{backend}.mem.wal")))

    result = {
        "backend": backend,
        "n_items": n,
        "engine_bytes": os.path.getsize(engine_file),
        "convert_seconds": convert_seconds,
        "eager_load_seconds": eager_seconds,
        "engine_cold_start_seconds": engine_seconds,
        "cold_start_speedup": eager_seconds / engine_seconds,
        "master_key": master_key,
        "targets": targets,
        "memory_server": memory_server,
        "engine_server": engine_server,
        "wal_path": wal_path,
        "engine_file": engine_file,
    }
    return result


def _close_world(world: dict) -> None:
    for key in ("memory_server", "engine_server"):
        server = world.get(key)
        if server is None:
            continue
        if server.wal is not None:
            server.wal.close()
        if server.engine is not None:
            server.engine.close()
        world[key] = None


@pytest.fixture(scope="module")
def storage_curve() -> dict:
    data_dir = tempfile.mkdtemp(prefix="repro-bench-storage-")
    record: dict = {"schema": 1, "full_scale": FULL_SCALE,
                    "measured_deletes": MEASURED_DELETES}
    try:
        # -- SQLite at full N -------------------------------------------
        world = _engine_world(data_dir, "sqlite", N_ITEMS, "storage-bench")
        mem_times = _timed_deletes(world["memory_server"],
                                   world["master_key"], world["targets"])
        eng_times = _timed_deletes(world["engine_server"], world["master_key"],
                                   world["targets"])
        mem_median = statistics.median(mem_times[WARMUP_DELETES:])
        eng_median = statistics.median(eng_times[WARMUP_DELETES:])

        # -- WAL replay bound: work since the last compaction -----------
        deletes = len(world["targets"])
        _close_world(world)
        replay_server = recover_server(world["wal_path"], PARAMS,
                                       engine=make_engine("sqlite",
                                                          world["engine_file"]))
        replayed_before = replay_server.last_recovery["replayed_records"]
        replay_server.compact_storage()
        replay_server.wal.close()
        replay_server.engine.close()
        compacted_start = time.perf_counter()
        compacted = recover_server(world["wal_path"], PARAMS,
                                   engine=make_engine("sqlite",
                                                      world["engine_file"]))
        compacted_seconds = time.perf_counter() - compacted_start
        replayed_after = compacted.last_recovery["replayed_records"]
        compacted.wal.close()
        compacted.engine.close()

        record["sqlite"] = {
            "n_items": N_ITEMS,
            "engine_bytes": world["engine_bytes"],
            "convert_seconds": round(world["convert_seconds"], 4),
            "eager_load_seconds": round(world["eager_load_seconds"], 4),
            "engine_cold_start_seconds":
                round(world["engine_cold_start_seconds"], 4),
            "cold_start_speedup": round(world["cold_start_speedup"], 2),
            "delete_median_memory_seconds": round(mem_median, 6),
            "delete_median_engine_seconds": round(eng_median, 6),
            "delete_latency_ratio": round(eng_median / mem_median, 4),
            "wal_records_before_compaction": replayed_before,
            "deletes_since_compaction": deletes,
            "wal_records_after_compaction": replayed_after,
            "cold_start_after_compaction_seconds":
                round(compacted_seconds, 4),
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = [
        f"Storage-engine cold start vs an eager whole-state load "
        f"(n={N_ITEMS}, {MEASURED_DELETES} measured deletes)",
        "",
        f"{'backend':>8} {'n':>9} {'eager load':>11} {'cold start':>11} "
        f"{'speedup':>8}",
    ]
    sq = record["sqlite"]
    lines.append(
        f"{'sqlite':>8} {sq['n_items']:>9} "
        f"{sq['eager_load_seconds']:>10.3f}s "
        f"{sq['engine_cold_start_seconds']:>10.4f}s "
        f"{sq['cold_start_speedup']:>7.1f}x")
    lines += [
        "",
        f"warm delete median: memory "
        f"{sq['delete_median_memory_seconds'] * 1e3:.2f} ms, sqlite "
        f"{sq['delete_median_engine_seconds'] * 1e3:.2f} ms "
        f"(ratio {sq['delete_latency_ratio']:.2f}x)",
        f"WAL replay: {sq['wal_records_before_compaction']} records before "
        f"compaction ({sq['deletes_since_compaction']} deletes), "
        f"{sq['wal_records_after_compaction']} after",
    ]
    table = "\n".join(lines)
    save_result("storage_cold_start", table)
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + table)
    return record


def test_cold_start_floor(storage_curve):
    """SQLite cold start >= 10x faster than an eager load of the same
    state -- the engine opens O(1), the eager load reads O(n)."""
    assert storage_curve["sqlite"]["cold_start_speedup"] >= 10.0, \
        storage_curve["sqlite"]


def test_warm_delete_latency_floor(storage_curve):
    """Paged deletes within 1.3x of in-memory."""
    assert storage_curve["sqlite"]["delete_latency_ratio"] <= 1.3, \
        storage_curve["sqlite"]


def test_wal_replay_bounded_by_compaction(storage_curve):
    """Replay equals mutations since the last compaction; zero after."""
    sq = storage_curve["sqlite"]
    assert sq["wal_records_before_compaction"] == \
        sq["deletes_since_compaction"], sq
    assert sq["wal_records_after_compaction"] == 0, sq
    assert sq["cold_start_after_compaction_seconds"] <= \
        max(1.0, 2 * sq["engine_cold_start_seconds"]), sq


def test_quick_storage_smoke():
    """CI smoke: tiny world, shape only -- engine cold start beats the
    eager load and the deletion protocol works over paged state."""
    data_dir = tempfile.mkdtemp(prefix="repro-bench-storage-smoke-")
    try:
        world = _engine_world(data_dir, "sqlite", 4096, "smoke")
        times = _timed_deletes(world["engine_server"], world["master_key"],
                               world["targets"][:6])
        assert len(times) == 6
        assert world["engine_cold_start_seconds"] < \
            world["eager_load_seconds"], world
        _close_world(world)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

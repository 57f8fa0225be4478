"""Ablation benchmarks for the design choices DESIGN.md calls out:
chain hash, store layout, and two-level key management."""

import pytest

from benchmarks.conftest import save_json, save_result
from repro.analysis.ablation import (run_hash_ablation, run_store_ablation,
                                     run_two_level_ablation,
                                     run_two_level_sweep)
from repro.analysis.harness import build_seeded_file
from repro.core.params import SHA256_PARAMS


@pytest.fixture(scope="module")
def ablation_tables():
    """Regenerate all three ablation tables (shared by the assertion
    tests and the timed benchmarks, so --benchmark-only still produces
    the artifacts)."""
    hash_table, hash_rows = run_hash_ablation()
    save_result("ablation_hash", hash_table)
    store_table, store_numbers = run_store_ablation()
    save_result("ablation_store", store_table)
    two_level_table, two_level_numbers = run_two_level_ablation()
    save_result("ablation_two_level", two_level_table)
    sweep_table, sweep_numbers = run_two_level_sweep()
    save_result("ablation_two_level_sweep", sweep_table)
    save_json("ablations", {
        "op": "ablation",
        "hash": [{"delete_hashes": row.delete_hashes,
                  "bytes": row.delete_comm_bytes} for row in hash_rows],
        "store": dict(store_numbers),
        "two_level": dict(two_level_numbers),
        "two_level_sweep": {str(m): sweep_numbers[m]
                            for m in sorted(sweep_numbers)},
    })
    print("\n" + "\n\n".join([hash_table, store_table, two_level_table,
                              sweep_table]))
    return hash_rows, store_numbers, two_level_numbers, sweep_numbers


def test_hash_ablation(ablation_tables):
    rows, _store, _two, _sweep = ablation_tables
    sha1_row, sha256_row = rows
    # Same tree depth => identical hash counts; wider modulators => more
    # bytes per level (32/20 of the SHA-1 volume, minus fixed framing).
    assert sha1_row.delete_hashes == sha256_row.delete_hashes
    assert sha256_row.delete_comm_bytes > 1.3 * sha1_row.delete_comm_bytes


def test_store_ablation(ablation_tables):
    _rows, numbers, _two, _sweep = ablation_tables
    # Lazy setup is orders of magnitude cheaper; per-op cost identical.
    assert numbers["lazy_setup"] < numbers["dense_setup"]
    assert numbers["lazy_delete"] == numbers["dense_delete"]


def test_two_level_ablation(ablation_tables):
    _rows, _store, numbers, _sweep = ablation_tables
    # Two-level deletion = file delete + the meta replacement (its
    # challenge, which also yields the master key, and one ReplaceCommit):
    # exactly two round trips more, more bytes, but the same order.
    assert numbers["two_level_bytes"] > numbers["single_bytes"]
    assert numbers["two_level_bytes"] < 12 * numbers["single_bytes"]
    assert numbers["two_level_round_trips"] == \
        numbers["single_round_trips"] + 2


@pytest.mark.benchmark(group="ablation-hash")
def test_delete_sha1(benchmark, ablation_tables):
    handle = build_seeded_file(4096, 256, seed="abl-bench-sha1")
    queue = list(range(4096))
    benchmark.pedantic(lambda: handle.scheme.delete(handle.item_id(queue.pop())),
                       rounds=8, iterations=1)


@pytest.mark.benchmark(group="ablation-hash")
def test_delete_sha256(benchmark):
    handle = build_seeded_file(4096, 256, seed="abl-bench-sha256",
                               params=SHA256_PARAMS)
    queue = list(range(4096))
    benchmark.pedantic(lambda: handle.scheme.delete(handle.item_id(queue.pop())),
                       rounds=8, iterations=1)


def test_two_level_sweep_grows_logarithmically(ablation_tables):
    _rows, _store, _two, sweep = ablation_tables
    ms = sorted(sweep)
    # More meta files -> deeper meta tree -> more bytes, but the growth
    # from m=4 to m=256 (64x) stays well under 2x: logarithmic.
    assert sweep[ms[-1]] > sweep[ms[0]]
    assert sweep[ms[-1]] < 2 * sweep[ms[0]]

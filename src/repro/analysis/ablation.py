"""Ablation studies for the design choices DESIGN.md calls out.

Not in the paper -- these quantify the knobs the reproduction exposes:

1. **Chain hash**: SHA-1 (the paper's 160-bit instantiation) vs SHA-256
   (256-bit modulators).  Wider modulators mean proportionally more bytes
   per level and a slower compression function.
2. **Store layout**: dense bytearray vs lazily-seeded store -- setup cost
   versus identical per-operation cost.
3. **Two-level key management** (Section V): a fine-grained deletion
   through the file system costs one deletion in the file tree *plus* an
   assured replace (challenge + ``ReplaceCommit``) in the meta tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.harness import build_dense_file, build_seeded_file, measure_ops
from repro.analysis.render import (format_bytes, format_seconds, render_table)
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.sim.workload import make_items


@dataclass
class HashAblationRow:
    name: str
    modulator_bits: int
    delete_comm_bytes: float
    delete_hashes: float
    delete_seconds: float


def run_hash_ablation(n: int = 4096, item_size: int = 256,
                      samples: int = 5) -> tuple[str, list[HashAblationRow]]:
    """Deletion cost under SHA-1 vs SHA-256 chains."""
    rows = []
    for name, params in (("sha1 (paper)", PAPER_PARAMS),
                         ("sha256", SHA256_PARAMS)):
        handle = build_seeded_file(n, item_size, seed=f"abl-hash-{name}",
                                   params=params)
        collector = measure_ops(handle, "delete", samples,
                                DeterministicRandom(f"abl-{name}"))
        records = collector.records
        rows.append(HashAblationRow(
            name=name,
            modulator_bits=params.modulator_size * 8,
            delete_comm_bytes=sum(r.overhead_bytes for r in records) / len(records),
            delete_hashes=sum(r.hash_calls for r in records) / len(records),
            delete_seconds=sum(r.client_seconds for r in records) / len(records),
        ))
    table = render_table(
        f"Ablation 1 -- chain hash (n={n})",
        ["chain hash", "modulator", "delete comm", "delete hashes",
         "delete client time"],
        [[r.name, f"{r.modulator_bits} bit", format_bytes(r.delete_comm_bytes),
          f"{r.delete_hashes:.0f}", format_seconds(r.delete_seconds)]
         for r in rows])
    return table, rows


def run_store_ablation(n: int = 4096, item_size: int = 64
                       ) -> tuple[str, dict[str, float]]:
    """Setup time of dense outsourcing vs seeded adoption at equal n."""
    start = time.perf_counter()
    dense_handle, _ids = build_dense_file(n, item_size, seed="abl-store")
    dense_setup = time.perf_counter() - start

    start = time.perf_counter()
    lazy_handle = build_seeded_file(n, item_size, seed="abl-store-lazy")
    lazy_setup = time.perf_counter() - start

    def delete_cost(handle) -> float:
        collector = measure_ops(handle, "delete", 5,
                                DeterministicRandom("abl-store-ops"))
        return (sum(r.overhead_bytes for r in collector.records)
                / len(collector.records))

    dense_delete = delete_cost(dense_handle)
    lazy_delete = delete_cost(lazy_handle)

    table = render_table(
        f"Ablation 2 -- store layout (n={n})",
        ["store", "setup time", "delete comm (identical expected)"],
        [["dense (real outsourcing)", format_seconds(dense_setup),
          format_bytes(dense_delete)],
         ["lazily seeded", format_seconds(lazy_setup),
          format_bytes(lazy_delete)]])
    return table, {"dense_setup": dense_setup, "lazy_setup": lazy_setup,
                   "dense_delete": dense_delete, "lazy_delete": lazy_delete}


def run_two_level_sweep(n_items: int = 256,
                        file_counts: tuple[int, ...] = (4, 16, 64, 256),
                        ) -> tuple[str, dict[int, float]]:
    """Two-level deletion cost as the file count m grows.

    The paper's Section V cost argument: a fine-grained deletion is one
    deletion in the file's tree (O(log n)) plus an assured replace in the
    meta tree (O(log m)).  The sweep shows the meta term growing
    logarithmically in m while the file term stays fixed.
    """
    results: dict[int, float] = {}
    for m in file_counts:
        fs = OutsourcedFileSystem(rng=DeterministicRandom(f"2lvl-{m}"))
        for i in range(m - 1):
            fs.create_file(f"g/file-{i:04d}", [b"x"])
        target = fs.create_file("g/target",
                                make_items(n_items, 64,
                                           DeterministicRandom(f"t-{m}")))
        fs.metrics.clear()
        target.delete_record(n_items // 2)
        results[m] = float(sum(r.overhead_bytes for r in fs.metrics.records))
    table = render_table(
        f"Ablation 3b -- two-level deletion vs file count (file n={n_items})",
        ["meta files m", "delete comm (file tree + meta tree)"],
        [[f"{m}", format_bytes(v)] for m, v in sorted(results.items())])
    return table, results


def run_two_level_ablation(n_items: int = 1024, n_files: int = 32
                           ) -> tuple[str, dict[str, float]]:
    """Single-level deletion vs full two-level (Section V) deletion."""
    # Single level: a standalone file of n items.
    handle = build_seeded_file(n_items, 256, seed="abl-2lvl")
    collector = measure_ops(handle, "delete", 5,
                            DeterministicRandom("abl-2lvl-ops"))
    single = collector.records
    single_bytes = sum(r.overhead_bytes for r in single) / len(single)
    single_rt = sum(r.round_trips for r in single) / len(single)

    # Two level: the same deletion through a file system whose meta tree
    # holds n_files master keys.
    fs = OutsourcedFileSystem(rng=DeterministicRandom("abl-fs"))
    target = None
    for i in range(n_files):
        records = make_items(4, 256, DeterministicRandom(f"abl-f{i}"))
        handle_fs = fs.create_file(f"group/file-{i:03d}", records)
        if i == n_files // 2:
            target = handle_fs
    big = fs.create_file("group/big-file",
                         make_items(n_items, 256,
                                    DeterministicRandom("abl-big")))
    fs.metrics.clear()
    big.delete_record(n_items // 2)
    two_level = fs.metrics.records
    two_bytes = sum(r.overhead_bytes for r in two_level)
    two_rt = sum(r.round_trips for r in two_level)

    table = render_table(
        f"Ablation 3 -- two-level key management "
        f"(file n={n_items}, meta m={n_files + 1})",
        ["configuration", "delete comm", "round trips"],
        [["single level (client holds master key)",
          format_bytes(single_bytes), f"{single_rt:.0f}"],
         ["two level (master keys in meta tree)",
          format_bytes(two_bytes), f"{two_rt:.0f}"]])
    return table, {"single_bytes": single_bytes, "two_level_bytes": two_bytes,
                   "single_round_trips": single_rt,
                   "two_level_round_trips": two_rt}

"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py

* Two traced runs with the same seed give identical deterministic counts
  for every op they both completed: wire bytes, round trips and chain
  hash calls per op, WAL and audit appends per op, and the round trips
  of each client call.
* Per traced op, the self times of the spans in the client process add
  up to within ``COVERAGE_TOLERANCE`` of the op's latency (self times
  telescope, so the rest is time outside every timed layer).
* ``BENCHMARK.json`` lists exactly the metrics the code prints.
* In a directory holding only the benchmark, it fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("delete-heavy", "read-mostly", "durable-sqlite")

#: Traced per-op layer self times must sum to at least this share of the
#: per-op latency (median over traced ops of each kind).
COVERAGE_TOLERANCE = 0.05


def _run(workload: str, seed: int, cwd: str = ROOT) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout[-2000:]
    path = os.path.join(cwd, ".perfbench",
                        f"{workload}-seed{seed}-trace1.json")
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_counts(workload):
    first = _run(workload, 11)
    second = _run(workload, 11)
    common = min(len(first["op_counts"]), len(second["op_counts"]))
    assert common >= 100
    assert first["op_counts"][:common] == second["op_counts"][:common]
    coverage = first["self_time_coverage"]
    assert set(coverage) == {"read", "write", "insert", "delete",
                             "delete_many", "read_all"}
    for op, share in coverage.items():
        assert 1 - COVERAGE_TOLERANCE <= share <= 1.0, (op, share)


def test_benchmark_json_matches_code():
    import layers
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delete-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

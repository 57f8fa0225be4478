"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository: the program is
imported from ``src/`` there.  Workloads are ``delete-heavy``,
``read-mostly`` and ``durable-sqlite`` (see ``README.md``).  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it installs the timing shims and reports the
per-layer metrics instead.  A human-readable report comes first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes ``.perfbench/<workload>-seed<N>-trace<T>.json``
with the raw wall times, the calibration series, every op sample and
the per-op counts the determinism test compares.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("delete_ms_p50", "ms"),
    ("delete_ms_p90", "ms"),
    ("delete_many_ms_p50", "ms"),
    ("read_ms_p50", "ms"),
    ("read_ms_p90", "ms"),
    ("write_ms_p50", "ms"),
    ("insert_ms_p50", "ms"),
    ("read_all_ms_p50", "ms"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_user_byte", "B/B"),
)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_metrics(ops: list[str], ms: list[float]) -> dict:
    """p50 of every op and p90 of delete and read, from per-sample ms."""
    by_op: dict[str, list[float]] = {}
    for op, value in zip(ops, ms):
        by_op.setdefault(op, []).append(value)
    out = {}
    for op in ("delete", "delete_many", "read", "write", "insert",
               "read_all"):
        values = by_op.get(op, [0.0])
        out[f"{op}_ms_p50"] = statistics.median(values)
        if op in ("delete", "read"):
            out[f"{op}_ms_p90"] = _p90(values) if len(values) > 1 \
                else values[0]
    return out


def run(args) -> tuple[dict, dict]:
    import calib
    import layers
    import tracing
    from workloads import WORKLOADS, Run

    spec = WORKLOADS[args.workload]
    clock = calib.CalibrationClock()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install_client(recorder)
    state_dir = os.path.join(OUT_DIR, f"{spec.name}-{os.getpid()}")
    shutil.rmtree(state_dir, ignore_errors=True)
    os.makedirs(state_dir)
    run = Run(spec, args.seed, clock, state_dir, recorder)
    try:
        setups = []
        for index in range(1 if args.trace else spec.setups):
            if index:
                run.discard()
                gc.collect()
            setups.append(run.setup(index))
        setup = sorted(setups, key=lambda s: s["setup_s"])[len(setups) // 2]

        fs = run.stack.fs
        records_before = len(fs.metrics.records)
        toggle = None
        view0 = (0.0, 0.0)
        if recorder is not None:
            from repro import obs
            recorder.active = False
            view0 = tracing.view_cache_counts()

            def toggle(on: bool) -> None:
                recorder.active = on
                if on:
                    obs.enable(service="perfbench")
                else:
                    obs.disable()
        run.measure(args.seconds, toggle)
        retries = sum(r.retries for r in fs.metrics.records[records_before:])
        peak_rss_mb = run.peak_rss_mb()
        attempted, failed = run.check()
        run.stack.stop()
        footprint = run.stack.footprint_bytes()
        attempted += len(run.samples)
        failed += sum(1 for s in run.samples if not s.ok)
        if spec.durable:
            attempted += 1
            try:
                found = run.stack.audit_records()
                expected = run.expected_audit_records()
                if found != expected:
                    raise RuntimeError(f"audit chain has {found} records, "
                                       f"expected {expected}")
            except Exception as exc:
                failed += 1
                run.errors.append(f"audit verify: {exc}")

        ops = [s.op for s in run.samples]
        cal_ms = [clock.calibrate(s.start, s.end) * 1e3 for s in run.samples]
        raw_ms = [(s.end - s.start) * 1e3 for s in run.samples]
        e2e = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
        e2e["ops_per_s"] = len(cal_ms) / (sum(cal_ms) / 1e3)
        e2e.update(latency_metrics(ops, cal_ms))
        e2e["wire_bytes_per_op"] = (sum(s.wire_bytes for s in run.samples)
                                    / len(run.samples))
        e2e["peak_rss_mb"] = peak_rss_mb
        e2e["disk_bytes_per_user_byte"] = footprint / run.live_bytes()
        raw = {"setup_s": statistics.median(
            sum(st["end"] - st["start"] for st in s["steps"])
            for s in setups)}
        raw["ops_per_s"] = len(raw_ms) / (sum(raw_ms) / 1e3)
        raw.update(latency_metrics(ops, raw_ms))

        per_layer, counts, coverage = {}, [], {}
        if recorder is not None:
            child, view = layers.load_child(
                os.path.join(state_dir, "server-2.json"))
            setup_child, _ = layers.load_child(
                os.path.join(state_dir, "server-1.json"))
            layers.attribute_by_time(child, run.samples)
            if not spec.durable:
                hits, misses = tracing.view_cache_counts()
                view = (hits - view0[0], misses - view0[1])
            # The first two decks warm the caches; they would bias the
            # untraced side of the ratio.
            warm = 2 * sum(count for _op, count in spec.deck)
            if len(run.samples) < 2 * warm:
                warm = 0
            pairs = list(zip(cal_ms, run.samples))[warm:]
            traced_ms = [m for m, s in pairs if s.traced]
            plain_ms = [m for m, s in pairs if not s.traced]
            overhead = (len(traced_ms) / sum(traced_ms)) / \
                (len(plain_ms) / sum(plain_ms))
            per_layer = layers.compute(run, recorder.spans, child,
                                       setup_child, view, clock, setup,
                                       overhead, retries)
            counts = layers.op_counts(run, recorder.spans, child)
            coverage = layers.coverage(run, recorder.spans)
        detail = {
            "workload": spec.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "end_to_end": e2e, "raw_wall": raw, "per_layer": per_layer,
            "setups": setups, "calibration": clock.series(),
            "samples": [[s.op, s.start, s.end, m, s.traced, s.ok]
                        for s, m in zip(run.samples, cal_ms)],
            "op_counts": counts,
            "self_time_coverage": coverage,
            "errors": run.errors[:50],
        }
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "error_rate": failed / attempted}
        return result, detail
    finally:
        if run.stack is not None:
            run.stack.close()
        shutil.rmtree(state_dir, ignore_errors=True)


def report(result: dict, detail: dict) -> dict:
    """Print the human-readable report; return the metrics object."""
    import layers
    names = layers.PER_LAYER if detail["trace"] else END_TO_END
    source = detail["per_layer"] if detail["trace"] else detail["end_to_end"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']} "
          f"ops={len(detail['samples'])}")
    metrics = {}
    for entry in names:
        name, unit = entry[0], entry[1]
        value = source[name]
        metrics[name] = {"value": value, "unit": unit}
        raw = detail["raw_wall"].get(name) if not detail["trace"] else None
        shown = f"  (raw wall {raw:.4f})" if raw is not None else ""
        print(f"  {name:40s} {value:14.4f} {unit}{shown}")
    print(f"  {'error_rate':40s} {result['error_rate']:14.4f} "
          f"({result['failed']}/{result['attempted']})")
    kernel = detail["calibration"]["kernel_s"]
    print(f"  calibration: {len(kernel)} kernel samples, median "
          f"{statistics.median(kernel) * 1e3:.3f} ms, range "
          f"{min(kernel) * 1e3:.3f}-{max(kernel) * 1e3:.3f} ms, reference "
          f"{detail['calibration']['reference_kernel_s'] * 1e3:.3f} ms")
    for error in detail["errors"][:5]:
        print(f"  error: {error}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from the root of "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # One core for the client and (by inheritance) the server child, so
    # the calibration kernel always runs on the core doing the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, detail = run(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(detail, handle, separators=(",", ":"))
    metrics = report(result, detail)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

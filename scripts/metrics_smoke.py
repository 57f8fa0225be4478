#!/usr/bin/env python
"""CI smoke test for the observability stack.

Starts ``repro-vault serve --durable --audit --trace-export
--metrics-port`` as a subprocess, drives a put and an assured deletion
over real TCP, forces a request-id replay-cache hit with a deliberate
duplicate request, scrapes ``/metrics``, and asserts the WAL-fsync and
replay-cache series are present and non-zero.  It then checks the
operational-evidence surface the same serve produced:

* ``/readyz`` answers 200 while the server is healthy;
* after a clean stop (SIGINT: the shutdown checkpoint seals the WAL into
  ``audit.log``), ``repro-vault audit verify`` walks the sealed archive
  plus the live WAL the deletion extended (and counts at least one
  Delete outcome);
* the span export contains the deletion's ``server.handle`` span.

The evidence -- sealed archive, live WAL, head anchor -- and the span
file are copied into ``smoke-artifacts/`` so CI can upload an
independently verifiable deletion record from every run.

With ``--shards N`` the smoke instead serves the vault as N
consistent-hash shards (``serve --shards N --durable --audit``), drives
routed traffic through ``OutsourcedFileSystem.connect_sharded``, and
asserts the sharded observability contract: ``/readyz`` lists one
``shard-<i>`` probe per shard, the aggregated ``/metrics`` scrape's
per-shard ``repro_shard_requests_total`` series sum to the global
``repro_server_requests_total``, and every shard's audit chain
verifies independently from the live WAL it left behind after a hard
stop (SIGTERM: nothing sealed).

Exits non-zero (with the scrape dumped to stderr) on any failure, so it
can gate CI directly:

    python scripts/metrics_smoke.py
    python scripts/metrics_smoke.py --shards 3
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(workdir: str, *args: str, stdin: str | None = None) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=workdir, env=cli_env(), input=stdin,
        capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        raise SystemExit(f"cli {args} failed:\n{result.stderr}")
    return result.stdout


def read_until(stream, pattern: str, deadline: float) -> re.Match:
    lines = []
    while time.time() < deadline:
        line = stream.readline()
        if not line:
            time.sleep(0.05)
            continue
        lines.append(line)
        match = re.search(pattern, line)
        if match:
            return match
    raise SystemExit(f"server never printed {pattern!r}; saw: {lines}")


def metric_value(text: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name) + re.escape(labels) + r" ([0-9.eE+-]+|\+Inf)$"
    total = 0.0
    found = False
    for line in text.splitlines():
        match = re.match(pattern if labels else
                         re.escape(name) + r"(?:\{[^}]*\})? ([0-9.eE+-]+)$",
                         line)
        if match:
            total += float(match.group(1))
            found = True
    if not found:
        raise SystemExit(f"metric {name}{labels} missing from scrape")
    return total


def sharded_main(shards: int) -> int:
    """Sharded-tier smoke: routed traffic, aggregated scrape, per-shard
    readiness and audit chains."""
    workdir = tempfile.mkdtemp(prefix="repro-smoke-shards-")
    run_cli(workdir, "init")
    run_cli(workdir, "put", "docs/adopted.txt", stdin="alpha\nbeta\n")

    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--shards", str(shards), "--durable", "--audit",
         "--metrics-port", "0"],
        cwd=workdir, env=cli_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.time() + 30
        metrics_match = read_until(serve.stdout,
                                   r"metrics on http://([0-9.]+):(\d+)",
                                   deadline)
        metrics_addr = (metrics_match.group(1), int(metrics_match.group(2)))
        addresses = []
        for shard_id in range(shards):
            match = read_until(
                serve.stdout,
                rf"serving shard {shard_id} on ([0-9.]+):(\d+)", deadline)
            addresses.append((match.group(1), int(match.group(2))))
        read_until(serve.stdout, r"serving vault across", deadline)

        # Routed traffic: files spread across the ring, plus an assured
        # deletion (id bases disjoint from the adopted vault's files).
        sys.path.insert(0, SRC)
        from repro.fs.filesystem import OutsourcedFileSystem

        fs = OutsourcedFileSystem.connect_sharded(
            addresses, meta_id_base=900, file_id_base=5_000_000)
        touched_shards = set()
        for index in range(2 * shards):
            name = f"net/routed-{index}.txt"
            fs.create_file(name, [b"r0", b"r1", b"r2"])
            touched_shards.add(fs.shard_of(name))
        fs.open("net/routed-0.txt").delete_record(1)
        assert fs.open("net/routed-0.txt").read_all() == [b"r0", b"r2"]

        base = f"http://{metrics_addr[0]}:{metrics_addr[1]}"
        with urllib.request.urlopen(base + "/readyz",
                                    timeout=10) as response:
            ready = json.loads(response.read().decode("utf-8"))
            assert response.status == 200, ready
        assert ready["ready"] is True, ready
        expected_probes = {f"shard-{i}" for i in range(shards)}
        assert expected_probes <= set(ready["checks"]), ready

        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")
        try:
            # Each touched shard's labelled series must be present...
            for shard_id in sorted(touched_shards):
                assert metric_value(text, "repro_shard_requests_total",
                                    f'{{shard="{shard_id}"}}') > 0
            # ...and the per-shard series must SUM to the global server
            # request counter: the aggregated scrape loses no traffic.
            shard_total = metric_value(text, "repro_shard_requests_total")
            server_total = metric_value(text, "repro_server_requests_total")
            appends = metric_value(text, "repro_wal_appends_total")
        except SystemExit:
            sys.stderr.write(text)
            raise
        assert shard_total == server_total, (shard_total, server_total)
        assert appends > 0, f"no WAL appends recorded: {appends}"
    finally:
        serve.terminate()
        try:
            serve.wait(timeout=10)
        except subprocess.TimeoutExpired:
            serve.kill()

    # Every shard's audit chain verifies independently; the deletion is
    # recorded on exactly the shard that owns the file.
    deletions = 0
    for shard_id in range(shards):
        shard_dir = os.path.join(workdir, ".repro-vault", "shards",
                                 f"shard-{shard_id}")
        report = json.loads(run_cli(
            workdir, "audit", "verify",
            "--log", os.path.join(shard_dir, "audit.log"),
            "--wal", os.path.join(shard_dir, "shard.wal")))
        assert report["ok"] is True, (shard_id, report)
        deletions += report["deletions"]
    assert deletions >= 1, "deletion not audited on any shard"

    print(f"sharded metrics smoke OK: {shards} shards "
          f"({len(touched_shards)} touched), "
          f"{int(shard_total)} routed requests == {int(server_total)} "
          f"server requests, {int(appends)} WAL appends, "
          f"{deletions} audited deletion(s)")
    return 0


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-smoke-")
    run_cli(workdir, "init")
    run_cli(workdir, "put", "docs/smoke.txt",
            stdin="alpha\nbeta\ngamma\ndelta\n")

    span_path = os.path.join(workdir, "spans.jsonl")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--durable",
         "--audit", "--trace-export", span_path,
         "--metrics-port", "0"],
        cwd=workdir, env=cli_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.time() + 30
        metrics_match = read_until(serve.stdout,
                                   r"metrics on http://([0-9.]+):(\d+)",
                                   deadline)
        serve_match = read_until(serve.stdout,
                                 r"serving vault on ([0-9.]+):(\d+)",
                                 deadline)
        metrics_addr = (metrics_match.group(1), int(metrics_match.group(2)))
        server_addr = (serve_match.group(1), int(serve_match.group(2)))

        # Put and assuredly delete over real TCP.
        sys.path.insert(0, SRC)
        from repro.fs.filesystem import OutsourcedFileSystem
        from repro.protocol import messages as msg
        from repro.protocol.tcp import TcpChannel
        from repro.protocol.wire import WireContext
        from repro.core.params import Params

        fs = OutsourcedFileSystem.connect(server_addr)
        handle = fs.create_file("net/data.txt", [b"r0", b"r1", b"r2"])
        handle.delete_record(1)

        # Force a request-id replay hit: send the same mutating request
        # twice over a raw channel (the second is answered from cache).
        ctx = WireContext(modulator_width=Params().modulator_size)
        with TcpChannel(server_addr, ctx) as channel:
            probe = msg.DeleteFileRequest(file_id=999_999_999,
                                          request_id=0xC0FFEE)
            first = channel.request(probe)
            second = channel.request(probe)
            assert type(first) is type(second), (first, second)

        base = f"http://{metrics_addr[0]}:{metrics_addr[1]}"
        with urllib.request.urlopen(base + "/readyz",
                                    timeout=10) as response:
            ready = json.loads(response.read().decode("utf-8"))
            assert response.status == 200, ready
        assert ready["ready"] is True, ready
        assert "wal" in ready["checks"], ready

        with urllib.request.urlopen(base + "/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")

        try:
            fsyncs = metric_value(text, "repro_wal_appends_total")
            fsync_count = metric_value(text, "repro_wal_fsync_seconds_count")
            hits = metric_value(text, "repro_replay_cache_hits_total",
                                '{cache="request_id"}')
            requests = metric_value(text, "repro_server_requests_total")
        except SystemExit:
            sys.stderr.write(text)
            raise
        assert fsyncs > 0, f"no WAL appends recorded: {fsyncs}"
        assert fsync_count > 0, f"no WAL fsyncs recorded: {fsync_count}"
        assert hits > 0, f"no replay-cache hits recorded: {hits}"
        assert requests > 0, f"no server requests recorded: {requests}"
    finally:
        # A clean stop: the shutdown checkpoint seals the WAL's history
        # into the archive.
        serve.send_signal(signal.SIGINT)
        try:
            serve.wait(timeout=30)
        except subprocess.TimeoutExpired:
            serve.kill()
    assert serve.returncode == 0, f"serve exited with {serve.returncode}"

    # ---- operational evidence, checked after the server is gone -----
    # (the span export flushes per record)

    vault_dir = os.path.join(workdir, ".repro-vault")
    audit_log = os.path.join(vault_dir, "audit.log")
    assert os.path.exists(audit_log), "shutdown sealed no archive"
    report = json.loads(run_cli(workdir, "audit", "verify"))
    assert report["ok"] is True, report
    assert report["records"] > 0, report
    assert report["deletions"] >= 1, f"deletion not audited: {report}"

    with open(span_path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    deletes = [s for s in spans
               if s.get("name") == "server.handle"
               and s.get("type") == "DeleteCommit"]
    assert deletes, f"no server.handle DeleteCommit span exported; " \
                    f"saw {sorted({s.get('name') for s in spans})}"
    assert all(len(s["trace_id"]) == 32 for s in deletes)

    # Leave the evidence behind for CI to upload.
    artifacts = os.path.join(REPO, "smoke-artifacts")
    os.makedirs(artifacts, exist_ok=True)
    for source in (audit_log, audit_log + ".head",
                   os.path.join(vault_dir, "server.wal"), span_path):
        shutil.copy(source, artifacts)

    print(f"metrics smoke OK: {int(requests)} requests, "
          f"{int(fsyncs)} WAL appends, {int(hits)} replay hit(s), "
          f"{report['records']} audit records "
          f"({report['deletions']} deletions), "
          f"{len(spans)} spans exported")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=1,
                        help="smoke the sharded serving tier with N "
                             "shards (default: single-server smoke)")
    cli_args = parser.parse_args()
    if cli_args.shards > 1:
        raise SystemExit(sharded_main(cli_args.shards))
    raise SystemExit(main())

"""Command-line interface: an assured-deletion vault backed by one server.

A small but complete front end over the library, for exploring the system
from a shell.  State is kept in two places, mirroring the two parties:

* the *server directory* (``--server-dir``) holds everything the cloud
  would hold -- ciphertexts and the modulation trees, in plaintext files;
* the *client file* (``--client-file``) holds what the client device
  would hold -- the control keys and the item counter.

Commands::

    repro-vault init
    repro-vault put  <name> < plaintext     # create/replace a file (one record per line)
    repro-vault ls
    repro-vault cat  <name>
    repro-vault get  <name> <position>
    repro-vault set  <name> <position> <value>
    repro-vault add  <name> <value>
    repro-vault rm   <name> <position> ...  # assured record deletion
                                            # (several positions = one batch)
    repro-vault drop <name>                 # assured whole-file deletion
    repro-vault serve --port 9000           # expose the vault over TCP
    repro-vault serve --port 9000 --durable # crash-safe: SQLite engine + WAL
                                            #   (files page in on demand)
    repro-vault compact                     # offline flush + WAL compact
    repro-vault serve --metrics-port 9100   # + /metrics /healthz /readyz
                                            #   /statusz over HTTP
    repro-vault serve --max-conns 64        # bound concurrent connections
    repro-vault serve --durable --audit     # the WAL doubles as the audit chain
    repro-vault serve --shards 4            # consistent-hash sharded tier
                                            #   (one host+WAL+audit per shard)
    repro-vault serve --trace-export spans.jsonl --trace-slow-ms 50
    repro-vault audit verify                # prove the chain untampered
    repro-vault audit tail -n 20            # last audit records
    repro-vault stress --seed ci-42         # seeded concurrency stress run
    repro-vault stress --shards 4           # same run, sharded serving tier
    repro-vault probe <host> <port>         # health-check a served vault
    repro-vault metrics <host> <port>       # scrape a served vault's metrics
    repro-vault trace <name> <position>     # traced read: JSON spans on stdout
    repro-vault trace --follow              # tail the span-export file
    repro-vault stats                       # vault contents summary
    repro-vault stats <host> <port>         # live ops/s + p50/p95 dashboard

``--log-json PATH`` (any command) turns observability on and appends the
structured span/event log to PATH (``-`` streams it to stderr).

``--rpc-timeout`` / ``--rpc-attempts`` / ``--rpc-backoff`` tune the TCP
retry policy used by client-side commands (``probe``): a timed-out
request tears the connection down and retransmits with exponential
backoff, relying on the server's idempotent request-id handling.

Run it as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import sys
import threading

from repro.core.errors import ReproError
from repro.crypto.rng import SystemRandom
from repro.fs.filesystem import OutsourcedFileSystem


class Vault:
    """Durable wrapper around an :class:`OutsourcedFileSystem`.

    Durability is implemented by pickling both sides' state; a production
    deployment would persist the server state server-side, but for a CLI
    the single-process snapshot keeps the tool dependency-free while
    still exercising every protocol path on each command.
    """

    def __init__(self, server_dir: str, client_file: str) -> None:
        self.server_dir = server_dir
        self.client_file = client_file
        self._state_path = os.path.join(server_dir, "vault.state")
        self.fs: OutsourcedFileSystem | None = None

    #: Durable server state ``serve --durable`` leaves in the server
    #: directory; a later serve recovers from whatever it finds there.
    DURABLE_STATE = ("server.img", "server.wal", "state.db", "audit.log",
                     "audit.log.head", "shards")

    def create(self) -> None:
        # Replacing an existing vault would destroy the client's only
        # copy of its keys, and a fresh vault over an old server's
        # durable state would be served that old state by the next
        # ``serve --durable``.
        leftover = [name for name in ("vault.state",) + self.DURABLE_STATE
                    if os.path.exists(os.path.join(self.server_dir, name))]
        if leftover:
            raise ReproError(
                f"{self.server_dir!r} already holds a vault or its durable "
                f"server state ({', '.join(leftover)}); 'init' in a fresh "
                f"--server-dir")
        os.makedirs(self.server_dir, exist_ok=True)
        self.fs = OutsourcedFileSystem(rng=SystemRandom())
        self.save()

    def load(self) -> None:
        if not os.path.exists(self._state_path):
            raise ReproError(
                f"no vault at {self.server_dir!r}; run 'init' first")
        try:
            with open(self._state_path, "rb") as handle:
                fs = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, ImportError,
                AttributeError) as exc:
            raise ReproError(
                f"vault state {self._state_path!r} is unreadable or was "
                f"written by an older version of repro-vault "
                f"({type(exc).__name__}: {exc}); 'init' a new vault in a "
                f"fresh --server-dir"
            ) from exc
        if not isinstance(fs, OutsourcedFileSystem):
            raise ReproError(
                f"vault state {self._state_path!r} does not hold a vault")
        self.fs = fs

    def save(self) -> None:
        # The vault holds the client's only copy of its keys, so a crash
        # mid-save must leave the previous vault intact: write a temp
        # file, make it durable, then atomically rename it over the old.
        from repro.server.wal import fsync_directory
        tmp = self._state_path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(self.fs, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._state_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        fsync_directory(self._state_path)


def _print(value: str) -> None:
    sys.stdout.write(value + "\n")
    # Flushed per line so a parent process driving the CLI through a pipe
    # (the CI metrics smoke test) sees 'serving ...' before blocking.
    sys.stdout.flush()


def cmd_init(vault: Vault, _args) -> int:
    vault.create()
    _print(f"initialised empty vault in {vault.server_dir}")
    return 0


def cmd_put(vault: Vault, args) -> int:
    vault.load()
    records = [line.encode() for line in sys.stdin.read().splitlines()]
    if vault.fs.exists(args.name):
        vault.fs.delete_file(args.name)
    vault.fs.create_file(args.name, records)
    vault.save()
    _print(f"stored {args.name!r}: {len(records)} records")
    return 0


def cmd_ls(vault: Vault, _args) -> int:
    vault.load()
    for name in vault.fs.list_files():
        handle = vault.fs.open(name)
        _print(f"{name}\t{handle.record_count} records\t"
               f"{handle.size_bytes} bytes")
    return 0


def cmd_cat(vault: Vault, args) -> int:
    vault.load()
    for record in vault.fs.open(args.name).read_all():
        _print(record.decode(errors="replace"))
    return 0


def cmd_get(vault: Vault, args) -> int:
    vault.load()
    _print(vault.fs.open(args.name).read_record(args.position)
           .decode(errors="replace"))
    return 0


def cmd_set(vault: Vault, args) -> int:
    vault.load()
    vault.fs.open(args.name).write_record(args.position, args.value.encode())
    vault.save()
    _print(f"updated {args.name!r}[{args.position}]")
    return 0


def cmd_add(vault: Vault, args) -> int:
    vault.load()
    vault.fs.open(args.name).append_record(args.value.encode())
    vault.save()
    _print(f"appended to {args.name!r}")
    return 0


def cmd_rm(vault: Vault, args) -> int:
    vault.load()
    handle = vault.fs.open(args.name)
    if len(args.positions) == 1:
        handle.delete_record(args.positions[0])
    else:
        handle.delete_many(args.positions)
    vault.save()
    shown = ",".join(str(p) for p in args.positions)
    _print(f"assuredly deleted {args.name!r}[{shown}] "
           f"(master + control keys rotated)")
    return 0


def cmd_drop(vault: Vault, args) -> int:
    vault.load()
    vault.fs.delete_file(args.name)
    vault.save()
    _print(f"assuredly deleted file {args.name!r}")
    return 0


def cmd_stats(vault: Vault, args) -> int:
    if args.host is not None:
        # Live dashboard mode: scrape a served vault's /metrics on an
        # interval and print ops/s + delta-derived latency quantiles.
        if args.port is None:
            raise ReproError("stats <host> <port> needs both arguments")
        from repro.obs.statsview import run_stats
        return run_stats(args.host, args.port, interval=args.interval,
                         count=args.count)
    vault.load()
    fs = vault.fs
    stats = {
        "files": len(fs.list_files()),
        "records": sum(fs.open(n).record_count for n in fs.list_files()),
        "control_keys": fs.control_key_count(),
        "client_key_bytes": fs.client_key_bytes(),
    }
    _print(json.dumps(stats, indent=2))
    return 0


def _kept_audit_path(directory: str, wanted: bool):
    """The archive to audit into: asked for, or already kept in
    ``directory`` (a trail that exists is continued, so it stays
    gap-free)."""
    from repro.obs.audit import head_path_for
    path = os.path.join(directory, "audit.log")
    if wanted or os.path.exists(path) or os.path.exists(head_path_for(path)):
        return path
    return None


def cmd_audit(vault: Vault, args) -> int:
    """Verify or tail the tamper-evident deletion audit chain."""
    from repro.obs import audit as audit_mod

    archive = args.log if args.log is not None else \
        os.path.join(vault.server_dir, "audit.log")
    wal_path = args.wal if args.wal is not None else \
        os.path.join(os.path.dirname(archive), "server.wal")
    try:
        if args.audit_command == "verify":
            chain = audit_mod.verify_log(archive, wal_path,
                                         require_head=not args.no_head)
        else:
            records = audit_mod.tail_records(archive, wal_path, args.n)
    except audit_mod.AuditError as exc:
        print(f"audit {args.audit_command} FAILED: {exc}", file=sys.stderr)
        return 1
    if args.audit_command == "verify":
        _print(json.dumps({
            "ok": True,
            "records": len(chain.requests),
            "deletions": chain.deletions,
            "pending": len(chain.pending),
            "head": chain.head,
        }, indent=2))
        return 0
    for record in records:
        _print(json.dumps(record, sort_keys=True))
    return 0


def _retry_policy(args):
    from repro.protocol.tcp import RetryPolicy
    return RetryPolicy(attempts=args.rpc_attempts, timeout=args.rpc_timeout,
                       base_delay=args.rpc_backoff)


def _stop_on_sigterm() -> None:
    """Make SIGTERM take ``serve``'s ctrl-C path (503, checkpoint, exit
    0), also when SIGINT is ignored; a second SIGTERM is ignored."""
    def terminate(_signum, _frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, terminate)


def cmd_serve(vault: Vault, args) -> int:
    vault.load()
    if vault.fs.server is None:
        raise ReproError("this vault was created against an external server")
    if args.durable and args.backend == "memory":
        raise ReproError(
            "--durable keeps server state in the SQLite engine; "
            "--backend memory cannot be durable")
    if args.backend == "sqlite" and not args.durable:
        raise ReproError("--backend sqlite requires --durable")
    if args.audit and not args.durable:
        raise ReproError(
            "--audit requires --durable: the audit chain is the commit "
            "log's own hash chain (serve --durable --audit)")
    from repro.obs.health import HEALTH
    from repro.protocol.host import TcpServerHost

    _stop_on_sigterm()
    metrics_server = None
    if args.metrics_port is not None:
        from repro import obs
        if not obs.is_enabled():
            obs.enable(service="repro-vault")
        metrics_server = obs.start_metrics_server(args.metrics_port)
        _print(f"metrics on http://{metrics_server.address[0]}:"
               f"{metrics_server.address[1]}/metrics")

    if args.trace_export is not None:
        # Spans only exist with observability on; exporting implies it.
        from repro import obs
        from repro.obs import spanexport
        if not obs.is_enabled():
            obs.enable(service="repro-vault")
        spanexport.configure(args.trace_export, sample=args.trace_sample,
                             slow_ms=args.trace_slow_ms)
        _print(f"exporting spans to {args.trace_export} "
               f"(sample={args.trace_sample}, slow_ms={args.trace_slow_ms})")

    if args.shards > 1:
        return _serve_sharded(vault, args, metrics_server)

    server = vault.fs.server
    if args.durable:
        # Crash-safe mode: state lives in the SQLite engine + write-ahead
        # log under the server directory, not in the pickle snapshot.  The
        # first durable serve writes the vault's files into the engine;
        # later ones recover from engine + WAL (surviving kill -9
        # mid-commit), paging files in on demand.
        from repro.server.engine import (SQLiteTreeStore, engine_path,
                                         refuse_image)
        from repro.server.wal import recover_server
        refuse_image(os.path.join(vault.server_dir, "server.img"))
        wal_path = os.path.join(vault.server_dir, "server.wal")
        audit_path = _kept_audit_path(vault.server_dir, args.audit)
        engine_file = engine_path(vault.server_dir)
        fresh = (not os.path.exists(engine_file)
                 and not os.path.exists(wal_path))
        engine = SQLiteTreeStore(engine_file)
        if fresh:
            # Bootstrap: write the vault's files into the engine once
            # (no WAL attached yet, so this is a pure engine flush).
            server.attach_engine(engine)
            server.compact_storage()
        server = recover_server(wal_path, vault.fs.params,
                                engine=engine, cache_nodes=args.cache_nodes,
                                audit_path=audit_path)
        _print(f"durable state: {engine_file} (sqlite engine) + {wal_path}")
        HEALTH.register("wal", server.wal.health)
        rec = server.last_recovery
        _print(f"cold start {rec['load_seconds'] + rec['replay_seconds']:.3f}s"
               f" (state load {rec['load_seconds']:.3f}s + WAL replay of "
               f"{rec['replayed_records']} record(s) "
               f"{rec['replay_seconds']:.3f}s)")
        if server.audit is not None:
            _print(f"audit trail: {wal_path} sealing into {audit_path} "
                   f"(chain at frame {server.audit.seq})")

    with TcpServerHost(server, port=args.port,
                       max_conns=args.max_conns) as host:
        try:
            # A stop signal that lands during this print takes the
            # shutdown path too.
            _print(f"serving vault on {host.address[0]}:{host.address[1]} "
                   f"(ctrl-C to stop)")
            threading.Event().wait()
        except KeyboardInterrupt:
            return 0
        finally:
            # Readiness flips to 503 first so a balancer drains before
            # the checkpoint starts tearing state down.
            HEALTH.set_stopping()
            if args.durable:
                server.compact_storage()
                server.wal.close()
                HEALTH.unregister("wal")
            if metrics_server is not None:
                metrics_server.stop()
    return 0


def _serve_sharded(vault: Vault, args, metrics_server) -> int:
    """Serve the vault as N consistent-hash shards, one host per shard.

    Each shard is an isolated server with its own SQLite engine + WAL
    (``--durable``) and audit chain (``--audit``) under
    ``<server-dir>/shards/shard-<i>/``.  The vault's files are adopted
    onto their ring-assigned shards on first serve; clients connect with
    :meth:`OutsourcedFileSystem.connect_sharded` against the printed
    per-shard addresses (in shard-id order).
    """
    from repro.obs.health import HEALTH
    from repro.server.cluster import ShardCluster

    shard_dir = os.path.join(vault.server_dir, "shards")
    audit = args.durable and _kept_audit_path(
        os.path.join(shard_dir, "shard-0"), args.audit) is not None
    cluster = ShardCluster(
        args.shards, params=vault.fs.params, transport="tcp",
        data_dir=shard_dir, durable=args.durable, audit=audit,
        max_conns=args.max_conns, base_port=args.port,
        storage_backend="sqlite" if args.durable else "memory",
        cache_nodes=args.cache_nodes)
    if args.durable:
        # First durable serve splits the vault's files across the ring
        # and checkpoints each shard; later serves recover every shard
        # independently from its own engine + WAL.
        if not cluster.had_state:
            placed = cluster.adopt_server(vault.fs.server)
            cluster.compact()
            _print(f"bootstrapped {placed} file(s) into {args.shards} "
                   f"durable shards")
        _print(f"durable shard state under {shard_dir}")
    else:
        cluster.adopt_server(vault.fs.server)
    if audit:
        _print(f"audit trails: {shard_dir}/shard-*/shard.wal sealing "
               f"into audit.log")
    cluster.register_health()
    try:
        cluster.start()
        try:
            for unit in cluster.units:
                host, port = unit.address
                _print(f"serving shard {unit.shard_id} on {host}:{port}")
            _print(f"serving vault across {args.shards} shards "
                   f"(ctrl-C to stop)")
            threading.Event().wait()
        except KeyboardInterrupt:
            return 0
    finally:
        # Readiness flips to 503 first so a balancer drains before the
        # per-shard checkpoints start tearing state down.
        HEALTH.set_stopping()
        if args.durable:
            cluster.compact()
        cluster.unregister_health()
        cluster.stop()
        if metrics_server is not None:
            metrics_server.stop()
    return 0


def cmd_compact(vault: Vault, _args) -> int:
    """Offline flush + WAL compaction for a durable vault.

    Opens the SQLite engine and WAL under the server directory (the
    server must not be running), replays outstanding WAL records into
    the engine, flushes, truncates the WAL behind a snapshot marker,
    and runs ``VACUUM`` on the database file.  After this, the next
    ``serve --durable`` cold-starts with an empty replay.
    """
    from repro.server.engine import SQLiteTreeStore, engine_path
    from repro.server.wal import recover_server

    engine_file = engine_path(vault.server_dir)
    if not os.path.exists(engine_file):
        raise ReproError(
            f"no sqlite engine state at {engine_file!r}; serve with "
            f"--durable first")
    wal_path = os.path.join(vault.server_dir, "server.wal")
    engine = SQLiteTreeStore(engine_file)
    try:
        server = recover_server(wal_path, engine=engine,
                                audit_path=_kept_audit_path(
                                    vault.server_dir, False))
        stats = server.compact_storage()
        engine.compact()  # reclaim dead space in the database file
        server.wal.close()
    finally:
        engine.close()
    stats["replayed_records"] = server.last_recovery["replayed_records"]
    stats["seconds"] = round(stats["seconds"], 6)
    _print(json.dumps(stats, indent=2))
    return 0


def cmd_stress(_vault: Vault, args) -> int:
    """Run one seeded concurrency stress iteration and report it.

    Exits 0 when every invariant holds, 1 on a violation (the exception
    names the invariant and the offending file/item).  The run is an
    exact function of ``--seed``, so a failing CI seed replays locally.
    """
    from repro.sim.stress import StressConfig, run_stress

    config = StressConfig(seed=args.seed, workers=args.workers,
                          ops_per_worker=args.ops, readers=args.readers,
                          transport=args.transport, shards=args.shards,
                          backend=args.backend)
    try:
        report = run_stress(config)
    except AssertionError as exc:
        print(f"stress run failed (seed {args.seed!r}): {exc}",
              file=sys.stderr)
        return 1
    _print(json.dumps(report.summary(), indent=2 if args.verbose else None))
    return 0


def cmd_probe(vault: Vault, args) -> int:
    """Round-trip health check against a served vault."""
    import time

    from repro.core.params import Params
    from repro.protocol import messages as msg
    from repro.protocol.tcp import TcpChannel
    from repro.protocol.wire import WireContext

    params = Params()
    ctx = WireContext(modulator_width=params.modulator_size)
    start = time.perf_counter()
    with TcpChannel((args.host, args.port), ctx,
                    retry=_retry_policy(args)) as channel:
        reply = channel.request(msg.AccessRequest(file_id=0, item_id=0))
        elapsed = time.perf_counter() - start
        # An empty vault answers E_UNKNOWN_ITEM/FILE: the server is alive
        # and speaking the protocol either way.
        alive = isinstance(reply, (msg.AccessReply, msg.ErrorReply))
        _print(json.dumps({
            "alive": alive,
            "round_trip_ms": round(elapsed * 1e3, 3),
            "retransmits": channel.counters.retransmits,
            "reply": type(reply).__name__,
        }, indent=2))
    return 0 if alive else 1


def cmd_metrics(_vault: Vault, args) -> int:
    """Scrape a served vault's Prometheus endpoint and print it."""
    import urllib.request

    url = f"http://{args.host}:{args.port}/metrics"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        sys.stdout.write(response.read().decode("utf-8"))
    sys.stdout.flush()
    return 0


def cmd_trace(vault: Vault, args) -> int:
    """Read one record with tracing on; print the span log as JSON lines.

    The spans (one trace id across the whole read, including the
    two-level key fetch) go to stdout; the record's value goes to stderr
    so stdout stays machine-parseable.  ``--follow`` instead tails a
    span-export file written by ``serve --trace-export`` (new spans
    stream out as the server finishes them).
    """
    from repro import obs

    if args.follow:
        import time as _time
        path = args.file or os.path.join(vault.server_dir, "spans.jsonl")
        try:
            with open(path, encoding="utf-8") as handle:
                while True:
                    line = handle.readline()
                    if line:
                        sys.stdout.write(line)
                        sys.stdout.flush()
                    else:
                        _time.sleep(0.2)
        except (KeyboardInterrupt, BrokenPipeError):
            # ctrl-C, or the consumer hung up (`trace --follow | head`)
            return 0
        except FileNotFoundError:
            raise ReproError(
                f"no span-export file at {path!r}; start the server "
                f"with --trace-export") from None

    if args.name is None or args.position is None:
        raise ReproError("trace needs <name> <position> (or --follow)")
    vault.load()
    already_on = obs.is_enabled()
    obs.enable(log_stream=sys.stdout, service="repro-vault")
    try:
        value = vault.fs.open(args.name).read_record(args.position)
    finally:
        if not already_on:
            obs.disable()
    print(value.decode(errors="replace"), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.server.engine import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro-vault",
        description="Assured-deletion vault (ICDCS'14 key modulation)")
    parser.add_argument("--server-dir", default=".repro-vault",
                        help="directory holding the 'cloud' state")
    parser.add_argument("--client-file", default=".repro-keys",
                        help="file holding the client's keys (unused "
                             "placeholder in the single-process CLI)")
    parser.add_argument("--rpc-timeout", type=float, default=30.0,
                        help="per-request TCP timeout in seconds")
    parser.add_argument("--rpc-attempts", type=int, default=4,
                        help="total tries per request (1 = no retry)")
    parser.add_argument("--rpc-backoff", type=float, default=0.05,
                        help="base delay of the exponential retry backoff")
    parser.add_argument("--log-json", metavar="PATH", default=None,
                        help="enable observability and append JSON span/"
                             "event logs to PATH ('-' for stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init").set_defaults(func=cmd_init)
    put = sub.add_parser("put")
    put.add_argument("name")
    put.set_defaults(func=cmd_put)
    sub.add_parser("ls").set_defaults(func=cmd_ls)
    cat = sub.add_parser("cat")
    cat.add_argument("name")
    cat.set_defaults(func=cmd_cat)
    get = sub.add_parser("get")
    get.add_argument("name")
    get.add_argument("position", type=int)
    get.set_defaults(func=cmd_get)
    set_ = sub.add_parser("set")
    set_.add_argument("name")
    set_.add_argument("position", type=int)
    set_.add_argument("value")
    set_.set_defaults(func=cmd_set)
    add = sub.add_parser("add")
    add.add_argument("name")
    add.add_argument("value")
    add.set_defaults(func=cmd_add)
    rm = sub.add_parser("rm")
    rm.add_argument("name")
    rm.add_argument("positions", type=int, nargs="+")
    rm.set_defaults(func=cmd_rm)
    drop = sub.add_parser("drop")
    drop.add_argument("name")
    drop.set_defaults(func=cmd_drop)
    stats_cmd = sub.add_parser(
        "stats", help="vault stats, or a live ops dashboard when given "
                      "a served vault's metrics host/port")
    stats_cmd.add_argument("host", nargs="?", default=None)
    stats_cmd.add_argument("port", nargs="?", type=int, default=None)
    stats_cmd.add_argument("--interval", type=float, default=2.0,
                           help="seconds between dashboard refreshes")
    stats_cmd.add_argument("--count", type=int, default=None,
                           help="stop after this many frames "
                                "(default: run until ctrl-C)")
    stats_cmd.set_defaults(func=cmd_stats)
    audit = sub.add_parser(
        "audit", help="verify or tail the tamper-evident audit chain")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    audit_verify = audit_sub.add_parser("verify")
    audit_verify.add_argument("--log", default=None,
                              help="sealed archive path (default: "
                                   "<server-dir>/audit.log)")
    audit_verify.add_argument("--wal", default=None,
                              help="live commit log (default: server.wal "
                                   "next to the archive)")
    audit_verify.add_argument("--no-head", action="store_true",
                              help="skip the head-anchor check (cannot "
                                   "then detect a truncated tail)")
    audit_verify.set_defaults(func=cmd_audit)
    audit_tail = audit_sub.add_parser("tail")
    audit_tail.add_argument("--log", default=None,
                            help="sealed archive path (default: "
                                 "<server-dir>/audit.log)")
    audit_tail.add_argument("--wal", default=None,
                            help="live commit log (default: server.wal "
                                 "next to the archive)")
    audit_tail.add_argument("-n", type=int, default=10,
                            help="records to show")
    audit_tail.set_defaults(func=cmd_audit)
    serve = sub.add_parser("serve")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--durable", action="store_true",
                       help="serve crash-safe state (SQLite engine + WAL "
                            "under the server directory; files page in "
                            "on demand)")
    serve.add_argument("--backend", choices=BACKENDS, default=None,
                       help="storage engine: 'sqlite' is what --durable "
                            "runs on, 'memory' what serving without it "
                            "does (the default follows --durable)")
    serve.add_argument("--cache-nodes", type=int, default=65536,
                       help="bound on cached tree nodes for non-memory "
                            "backends (0 disables the cache)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also expose Prometheus metrics over HTTP on "
                            "this port (0 = ephemeral)")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve N consistent-hash shards, one host per "
                            "shard on ports --port..--port+N-1 (0 = all "
                            "ephemeral); each shard owns its own WAL, "
                            "engine, and audit chain")
    serve.add_argument("--max-conns", type=int, default=None,
                       help="bound concurrently served TCP connections "
                            "(excess connections are accepted but not read "
                            "until a slot frees)")
    # There is one TCP host, so --async selects nothing.  It
    # still parses because existing launch scripts pass it.
    serve.add_argument("--async", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument("--audit", action="store_true",
                       help="with --durable: write an outcome frame for every "
                            "mutation into the hash-chained WAL, anchor its "
                            "head, and seal compacted history into "
                            "<server-dir>/audit.log")
    serve.add_argument("--trace-export", metavar="PATH", default=None,
                       help="enable observability and export finished "
                            "spans to PATH as JSON lines")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       help="fraction of traces to export (deterministic "
                            "by trace id; default 1.0)")
    serve.add_argument("--trace-slow-ms", type=float, default=None,
                       help="always export spans at least this slow, "
                            "even when sampled out")
    serve.set_defaults(func=cmd_serve)
    sub.add_parser(
        "compact", help="offline flush + WAL compaction for a "
                        "SQLite-backed vault (server must be stopped)"
    ).set_defaults(func=cmd_compact)
    stress = sub.add_parser(
        "stress", help="run one seeded concurrency stress iteration")
    stress.add_argument("--seed", default="cli")
    stress.add_argument("--workers", type=int, default=4)
    stress.add_argument("--ops", type=int, default=16,
                        help="operations per worker thread")
    stress.add_argument("--readers", type=int, default=1,
                        help="keyless foreign-reader threads")
    stress.add_argument("--transport", choices=("loopback", "tcp"),
                        default="loopback")
    stress.add_argument("--shards", type=int, default=1,
                        help="independent server shards behind the "
                             "consistent-hash router")
    stress.add_argument("--backend", choices=BACKENDS, default="memory",
                        help="storage engine behind the stressed shards "
                             "(non-memory adds mid-run WAL compaction)")
    stress.add_argument("-v", "--verbose", action="store_true",
                        help="pretty-print the report")
    stress.set_defaults(func=cmd_stress)
    probe = sub.add_parser("probe")
    probe.add_argument("host")
    probe.add_argument("port", type=int)
    probe.set_defaults(func=cmd_probe)
    metrics = sub.add_parser("metrics")
    metrics.add_argument("host")
    metrics.add_argument("port", type=int)
    metrics.set_defaults(func=cmd_metrics)
    trace = sub.add_parser("trace")
    trace.add_argument("name", nargs="?", default=None)
    trace.add_argument("position", nargs="?", type=int, default=None)
    trace.add_argument("--follow", action="store_true",
                       help="tail a span-export file instead of tracing "
                            "one read")
    trace.add_argument("--file", default=None,
                       help="span-export file to follow (default: "
                            "<server-dir>/spans.jsonl)")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_json is not None:
        from repro import obs
        if args.log_json == "-":
            obs.enable(log_stream=sys.stderr, service="repro-vault")
        else:
            obs.enable(log_path=args.log_json, service="repro-vault")
    vault = Vault(args.server_dir, args.client_file)
    try:
        return args.func(vault, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

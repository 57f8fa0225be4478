"""A horizontally sharded serving tier: N independent server instances.

Each shard is a complete, isolated server unit -- its own
:class:`~repro.server.server.CloudServer` (lock table, replay cache,
node cache), its own write-ahead :class:`~repro.server.wal.CommitLog`,
its own storage engine and audit archive, optionally its own TCP host.
Nothing is shared between shards except the process, so a shard crash,
recovery, or compaction never touches its siblings, and
durable-mutation throughput scales with the number of independent WAL
fsync streams.

File placement is the consistent-hash ring from
:mod:`repro.fs.sharding`: a file id owned by shard ``i`` only ever
appears in shard ``i``'s server, WAL, and audit log (the stress
harness's cross-shard placement invariant).

Observability: every request a shard handles increments
``repro_shard_requests_total{shard=...}`` and refreshes
``repro_shard_files{shard=...}``, so a single aggregated ``/metrics``
scrape exposes per-shard labels next to the global totals;
:meth:`ShardCluster.register_health` registers one readiness probe per
shard, making ``/readyz`` ready only when *all* shards are.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.params import Params
from repro.fs.sharding import DEFAULT_VNODES, HashRing, ShardMap
from repro.obs import runtime as obs
from repro.server.server import CloudServer
from repro.server.wal import CommitLog, recover_server

TRANSPORTS = ("loopback", "tcp")


class _ShardBackend:
    """The addressable unit a host (or loopback channel) serves.

    Delegates to the unit's *current* server -- looked up per request,
    so :meth:`ShardCluster.recover_shard` can swap a recovered server in
    under a live host -- and meters per-shard traffic.
    """

    def __init__(self, unit: "ShardUnit") -> None:
        self._unit = unit
        self._label = str(unit.shard_id)

    @property
    def ctx(self):
        return self._unit.server.ctx

    def handle_bytes(self, data: bytes) -> bytes:
        if not obs.enabled:
            return self._unit.server.handle_bytes(data)
        from repro.obs import instruments as ins
        ins.SHARD_REQUESTS.inc(shard=self._label)
        reply = self._unit.server.handle_bytes(data)
        ins.SHARD_FILES.set(self._unit.server.file_count(),
                            shard=self._label)
        return reply


class ShardUnit:
    """One shard: server + WAL + engine + audit + optional host."""

    def __init__(self, shard_id: int, directory: str) -> None:
        self.shard_id = shard_id
        self.directory = directory
        self.wal_path = os.path.join(directory, "shard.wal")
        self.audit_path = os.path.join(directory, "audit.log")
        self.server: CloudServer | None = None
        self.wal: CommitLog | None = None
        self.audit = None
        self.host = None
        #: Out-of-core storage engine (``storage_backend != "memory"``).
        self.engine = None
        self.engine_path: Optional[str] = None
        self.backend = _ShardBackend(self)

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return None if self.host is None else self.host.address

    def health(self) -> Tuple[bool, str]:
        """Readiness of this shard (the per-shard ``/readyz`` probe)."""
        if self.server is None:
            return False, "shard not started"
        if self.wal is not None:
            ok, detail = self.wal.health()
            return ok, f"wal: {detail}"
        return True, f"{self.server.file_count()} file(s), no wal attached"


class ShardCluster:
    """``shards`` independent server units behind one consistent-hash ring.

    ``transport`` selects how the units are addressed: ``"loopback"``
    leaves them in-process (channels via :meth:`shard_map`), ``"tcp"``
    starts one :class:`~repro.protocol.host.TcpServerHost` per shard
    on :meth:`start`, reached through
    :class:`~repro.protocol.tcp.TcpChannel`.

    Durability modes:

    * ``wal_factory`` given -- each unit gets a fresh server with
      ``wal_factory(wal_path)`` attached (the stress harness and the
      shard-scaling benchmark, which inject their own log subclasses);
      with ``audit`` it is called as ``wal_factory(wal_path,
      archive=audit_path)``;
    * ``durable=True`` -- each unit is rebuilt by
      :func:`~repro.server.wal.recover_server` from its storage engine
      plus WAL (the ``serve --shards N --durable`` path); needs an
      engine ``storage_backend``, and a shard directory still holding
      an earlier version's ``shard.img`` is refused
      (:class:`~repro.core.errors.StorageError`);
    * neither -- plain in-memory servers.

    ``audit=True`` makes each unit's WAL its audit chain (outcome
    frames, head anchor, archive sealed at ``<shard>/audit.log``); it
    needs ``durable`` or ``wal_factory``.

    ``fresh=True`` deletes any existing per-shard state files first
    (stress runs and tests that must not inherit a previous run's log).
    """

    def __init__(self, shards: int, *, params: Params | None = None,
                 transport: str = "loopback",
                 data_dir: str | None = None,
                 durable: bool = False,
                 audit: bool = False,
                 max_conns: int | None = None,
                 base_port: int = 0,
                 vnodes: int = DEFAULT_VNODES,
                 wal_factory: Callable[[str], CommitLog] | None = None,
                 fresh: bool = False,
                 storage_backend: str = "memory",
                 cache_nodes: int = 65536) -> None:
        from repro.server.engine import (BACKENDS, SQLiteTreeStore,
                                         engine_path, refuse_image)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}")
        if durable and wal_factory is not None:
            raise ValueError("durable recovery and wal_factory are "
                             "mutually exclusive")
        if audit and not durable and wal_factory is None:
            raise ValueError("audit needs a WAL: pass durable=True or "
                             "wal_factory")
        if storage_backend not in BACKENDS:
            raise ValueError(f"unknown storage backend {storage_backend!r}")
        if durable and storage_backend == "memory":
            raise ValueError("durable shards keep their state in a storage "
                             "engine: pass an engine storage_backend")
        self.params = params if params is not None else Params()
        self.transport = transport
        self.max_conns = max_conns
        self.base_port = base_port
        self.storage_backend = storage_backend
        self.cache_nodes = cache_nodes
        self.ring = HashRing(range(shards), vnodes=vnodes)
        if data_dir is None:
            import tempfile
            data_dir = tempfile.mkdtemp(prefix="repro-shards-")
        self.data_dir = data_dir
        self.units: List[ShardUnit] = []
        #: Did any shard have on-disk state before this construction?
        #: (``serve`` uses it to decide whether to bootstrap-adopt.)
        self.had_state = False
        self._health_names: List[str] = []
        if durable:  # before any shard opens its logs
            for shard_id in range(shards):
                refuse_image(os.path.join(data_dir, f"shard-{shard_id}",
                                          "shard.img"))
        for shard_id in range(shards):
            directory = os.path.join(data_dir, f"shard-{shard_id}")
            os.makedirs(directory, exist_ok=True)
            unit = ShardUnit(shard_id, directory)
            if storage_backend != "memory":
                unit.engine_path = engine_path(directory)
            if fresh:
                self._wipe(unit)
            if os.path.exists(unit.wal_path) or \
                    (unit.engine_path is not None
                     and os.path.exists(unit.engine_path)):
                self.had_state = True
            if unit.engine_path is not None:
                unit.engine = SQLiteTreeStore(unit.engine_path)
            if durable:
                unit.server = recover_server(
                    unit.wal_path, self.params, engine=unit.engine,
                    cache_nodes=cache_nodes,
                    audit_path=unit.audit_path if audit else None)
                unit.wal = unit.server.wal
                unit.audit = unit.server.audit
            else:
                unit.server = CloudServer(self.params)
                if unit.engine is not None:
                    unit.server.attach_engine(unit.engine,
                                              cache_nodes=cache_nodes)
                if wal_factory is not None:
                    if audit:
                        unit.wal = wal_factory(unit.wal_path,
                                               archive=unit.audit_path)
                    else:
                        unit.wal = wal_factory(unit.wal_path)
                    unit.server.attach_wal(unit.wal)
                if audit:
                    from repro.obs.audit import AuditLog
                    unit.audit = AuditLog(unit.wal)
                    unit.server.attach_audit(unit.audit)
            self.units.append(unit)

    @staticmethod
    def _wipe(unit: ShardUnit) -> None:
        from repro.server.wal import head_path_for
        stale_paths = [unit.wal_path, unit.audit_path,
                       head_path_for(unit.audit_path)]
        if unit.engine_path is not None:
            # SQLite leaves journal/WAL sidecars next to the database.
            stale_paths.extend(unit.engine_path + suffix for suffix in
                               ("", "-journal", "-wal", "-shm"))
        for stale in stale_paths:
            if os.path.exists(stale):
                os.unlink(stale)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardCluster":
        """Start one host per shard (no-op for loopback)."""
        if self.transport == "loopback":
            return self
        from repro.protocol.host import TcpServerHost
        for unit in self.units:
            port = 0 if self.base_port == 0 else \
                self.base_port + unit.shard_id
            unit.host = TcpServerHost(unit.backend, port=port,
                                      max_conns=self.max_conns).start()
        return self

    def stop(self) -> None:
        """Stop hosts and close every shard's logs."""
        for unit in self.units:
            if unit.host is not None:
                unit.host.stop()
                unit.host = None
        for unit in self.units:
            if unit.wal is not None:
                unit.wal.close()
            if unit.engine is not None:
                unit.engine.close()

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, file_id: int) -> int:
        return self.ring.shard_of(file_id)

    def unit_for(self, file_id: int) -> ShardUnit:
        return self.units[self.ring.shard_of(file_id)]

    def server_for(self, file_id: int) -> CloudServer:
        return self.unit_for(file_id).server

    def addresses(self) -> List[Tuple[str, int]]:
        """Per-shard host addresses, indexed by shard id."""
        if any(unit.host is None for unit in self.units):
            raise RuntimeError("cluster is not serving (loopback transport "
                               "or start() not called)")
        return [unit.host.address for unit in self.units]

    def shard_map(self, *, retry=None) -> ShardMap:
        """A routing map for this cluster's transport.

        Channels made from the map are fresh per call, so every client
        (stress tenant, foreign reader) gets its own connections while
        sharing the one deterministic ring.
        """
        ctx = self.units[0].server.ctx
        if self.transport == "loopback":
            backends = [unit.backend for unit in self.units]
            return ShardMap(self.ring, ctx,
                            lambda sid: self._loopback(backends, sid))
        from repro.protocol.tcp import TcpChannel
        addresses = self.addresses()
        return ShardMap(self.ring, ctx,
                        lambda sid: TcpChannel(addresses[sid], ctx,
                                               retry=retry))

    @staticmethod
    def _loopback(backends: Sequence[_ShardBackend], shard_id: int):
        from repro.protocol.channel import LoopbackChannel
        return LoopbackChannel(backends[shard_id])

    # ------------------------------------------------------------------
    # State migration and durability
    # ------------------------------------------------------------------

    def adopt_server(self, source: CloudServer) -> int:
        """Split a single server's files across the ring (bootstrap).

        Moves each per-file state wholesale into its ring-assigned
        shard; returns the number of files placed.  Used when a vault
        built against one embedded server is first served sharded.
        """
        placed = 0
        for file_id in source.file_ids():
            self.server_for(file_id).install_file_state(
                file_id, source.file_state(file_id))
            placed += 1
        return placed

    def compact(self) -> list[dict]:
        """Checkpoint every engine-backed shard; per-shard stats.

        Dirty state flushes to the shard's engine and its WAL is
        compacted (see :meth:`CloudServer.compact_storage`).

        Safe against live traffic: each shard's ``compact_storage``
        holds that shard's registry lock exclusively, so in-flight
        requests on other shards are unaffected and requests on the
        compacting shard simply queue.
        """
        stats = []
        for unit in self.units:
            if unit.engine is not None:
                stats.append(unit.server.compact_storage())
        return stats

    def recover_shard(self, shard_id: int) -> CloudServer:
        """Rebuild one shard from its durable state + WAL (crash recovery).

        The unit's backend resolves the server per request, so a host
        serving this shard picks up the recovered instance immediately;
        other shards are untouched.  An engine-backed shard reopens its
        engine file; recovery replays only the records since its last
        compaction.
        """
        unit = self.units[shard_id]
        if unit.wal is not None:
            unit.wal.close()
        if unit.engine is not None:
            unit.engine.close()
            from repro.server.engine import SQLiteTreeStore
            unit.engine = SQLiteTreeStore(unit.engine_path)
        audit_path = unit.audit_path if unit.audit is not None else None
        unit.server = recover_server(unit.wal_path, self.params,
                                     engine=unit.engine,
                                     cache_nodes=self.cache_nodes,
                                     audit_path=audit_path)
        unit.wal = unit.server.wal
        unit.audit = unit.server.audit
        return unit.server

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def register_health(self) -> None:
        """Register one ``/readyz`` probe per shard: ready iff all are."""
        from repro.obs.health import HEALTH
        for unit in self.units:
            name = f"shard-{unit.shard_id}"
            HEALTH.register(name, unit.health)
            self._health_names.append(name)

    def unregister_health(self) -> None:
        from repro.obs.health import HEALTH
        for name in self._health_names:
            HEALTH.unregister(name)
        self._health_names.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def file_counts(self) -> dict[int, int]:
        """``shard_id -> resident file count`` (placement diagnostics)."""
        return {unit.shard_id: unit.server.file_count()
                for unit in self.units}

    def total_wal_records(self) -> int:
        return sum(unit.wal.appended for unit in self.units
                   if unit.wal is not None)

    def total_audit_records(self) -> int:
        """Outcome frames written by every shard's audit writer."""
        return sum(unit.audit.appended for unit in self.units
                   if unit.audit is not None)

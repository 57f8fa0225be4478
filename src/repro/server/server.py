"""The honest cloud server.

The server stores, per file, a modulation tree (unencrypted, as the paper
prescribes), the item ciphertexts, and a tree version counter used to
detect interleaved updates between a challenge and its commit.  It also
maintains a duplicate-modulator registry implementing the paper's
server-side requirement that "all modulators in the tree should have
different values ... the server should inform the client to re-perform
the operation with a different modulator".

The server never sees any key material: its entire deletion role is to
ship ``MT(k)`` plus the balancing view, XOR the returned deltas into the
cut's child modulators (Eqs. 6-7), and perform the structural moves.
Everything security-critical is the client's verification; a *malicious*
server is modelled separately in :mod:`repro.server.adversary`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.errors import (ProtocolError, ReproError, SimulatedCrash,
                               UnknownItemError)
from repro.core.params import Params
from repro.core.tree import LINK, ModulationTree, WriteLog
from repro.obs import runtime as obs
from repro.obs.trace import current as current_trace
from repro.obs.trace import log_event, span, trace_scope
from repro.protocol import messages as msg
from repro.protocol.wire import WireContext
from repro.server.locks import FileLockTable, RWLock
from repro.server.storage import CiphertextStore, InMemoryCiphertextStore

#: Crash points a test can arm via :meth:`CloudServer.arm_crash`.
CRASH_POINT_BEFORE_APPLY = "before-apply"
CRASH_POINT_AFTER_APPLY = "after-apply"
#: Compaction seams: before the engine flush (everything since the last
#: compaction is lost and replayed), and after it but before the WAL
#: truncate (state flushed twice; replay must be a no-op).
CRASH_POINT_BEFORE_FLUSH = "before-flush"
CRASH_POINT_AFTER_FLUSH = "after-flush"

#: Message types that mutate server state: WAL-logged and idempotent
#: under their ``request_id``.
MUTATING_REQUESTS = (msg.OutsourceRequest, msg.ModifyCommit,
                     msg.DeleteCommit, msg.BatchDeleteCommit,
                     msg.ReplaceCommit, msg.InsertCommit,
                     msg.DeleteFileRequest)

#: Requests that change the *file table* itself: they serialise against
#: everything by taking the registry lock exclusively.
REGISTRY_REQUESTS = (msg.OutsourceRequest, msg.DeleteFileRequest)


@dataclass
class ServerFile:
    """Per-file server state.

    ``replay_cache`` holds the digest of the last applied state-changing
    commit and the Ack it produced: a retransmitted commit (duplicate
    delivery, or a client retrying after a lost Ack) is answered from the
    cache instead of being applied twice or rejected as stale -- standard
    at-most-once execution for a two-phase exchange.
    """

    tree: ModulationTree
    ciphertexts: CiphertextStore
    version: int = 0
    registry: Optional[dict[bytes, int]] = None
    replay_cache: Optional[tuple[bytes, "msg.Ack"]] = None


class CloudServer:
    """Honest server implementing the full message protocol.

    When a :class:`~repro.server.wal.CommitLog` is attached (``wal``
    argument or :meth:`attach_wal`), every mutating request is made
    durable *before* it is applied, so a crash at any point leaves a
    state that recovery (:func:`~repro.server.wal.recover_server`)
    resolves to all-or-nothing.  Mutating requests with a non-zero
    ``request_id`` are idempotent: the reply is cached (and persisted in
    the storage engine), so retransmissions are answered without being
    applied twice.
    """

    #: Bound on the idempotency cache (oldest replies evicted first).
    REPLAY_CACHE_LIMIT = 4096

    #: Bound on each file's view/encode cache (cleared wholesale when hit;
    #: entries are version-keyed, so a full cache means a read-heavy
    #: steady state and the next requests simply rebuild).
    VIEW_CACHE_LIMIT = 4096

    #: ``(seq, audit)`` while :meth:`replay_bytes` re-executes a frame.
    _replaying = None

    #: Serve read replies (access/fetch/challenge views) from the per-file
    #: view cache.  Replies are cached *after* assembly and invalidated
    #: under the file's exclusive lock on every mutation, so a cached
    #: reply is byte-identical to a rebuilt one; flip off to benchmark
    #: the cold path.
    view_cache_enabled = True

    def __init__(self, params: Params | None = None, wal=None,
                 audit=None, engine=None) -> None:
        self.params = params if params is not None else Params()
        self.ctx = WireContext(modulator_width=self.params.modulator_size)
        self._files: dict[int, ServerFile] = {}
        self.wal = wal
        self.audit = None
        #: Out-of-core storage engine (:mod:`repro.server.engine`); when
        #: attached, files are paged in on demand instead of resident.
        self.engine = None
        self._node_cache = None
        #: breakdown of the last ``recover_server`` run (load vs replay
        #: seconds); ``None`` for a server that never recovered.
        self.last_recovery: Optional[dict] = None
        #: request_id -> reply produced when it was first applied.
        self._applied: OrderedDict[int, msg.Message] = OrderedDict()
        self._crash_point: Optional[str] = None
        self._init_locks()
        if audit is not None:
            self.attach_audit(audit)
        if engine is not None:
            self.attach_engine(engine)

    def _init_locks(self) -> None:
        """(Re)create the concurrency-control state.

        Separated from ``__init__`` because lock objects cannot be
        pickled: the CLI's vault snapshot drops them
        and rebuild fresh (necessarily uncontended) locks on load.
        """
        #: Guards the file table: shared by per-file requests, exclusive
        #: for outsourcing and whole-file deletion.
        self._registry_lock = RWLock()
        #: One reader-writer lock per file id, created on first touch.
        self._file_locks = FileLockTable()
        #: Guards the request-id idempotency cache.
        self._applied_mutex = threading.Lock()
        #: file id -> {key: reply} view/encode cache.  Populated by reads
        #: under the file's shared lock, invalidated under its exclusive
        #: lock, so per-file insertions and invalidations never race.
        self._view_caches: dict[int, dict] = {}
        #: Serialises on-demand file materialisation from the engine
        #: (two readers may race to page in the same file).
        self._materialise_lock = threading.Lock()

    #: Attributes recreated by :meth:`_init_locks` instead of pickled
    #: (the view cache holds replies with memoized encodings -- dropping
    #: it keeps the vault snapshot lean and is always safe).
    _UNPICKLED = ("_registry_lock", "_file_locks", "_applied_mutex",
                  "_view_caches", "_materialise_lock")

    def __getstate__(self):
        if self.engine is not None:
            raise TypeError(
                "engine-backed server is not picklable: its durable state "
                "lives in the storage engine (use compact_storage instead "
                "of a pickle snapshot)")
        state = self.__dict__.copy()
        for name in self._UNPICKLED:
            state.pop(name, None)
        # Open log handles cannot travel in a snapshot; a restored server
        # re-attaches its WAL/audit sinks explicitly.
        state["wal"] = None
        state["audit"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._init_locks()

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Start write-ahead logging mutating requests to ``wal``."""
        self.wal = wal

    def attach_engine(self, engine, *, cache_nodes: int = 65536) -> None:
        """Serve files out-of-core from a storage engine.

        Files already stored in ``engine`` are paged in on demand (a
        request materialises only its root-to-leaf paths, cached in a
        bounded LRU of ``cache_nodes`` nodes); files outsourced while
        running stay resident until :meth:`compact_storage` converts
        them.  The engine's persisted replay table is restored so
        retried commits stay exactly-once across restarts.

        Engine-materialised files run without a duplicate-modulator
        registry (building one would read the whole tree, defeating
        lazy paging); with random modulators a collision is a ~2^-160
        event, and freshly outsourced files keep their registry until
        restart.  ``docs/STORAGE.md`` records the tradeoff.

        An engine written with another modulator width is refused
        (:class:`~repro.core.errors.StorageError`).
        """
        from repro.server.paging import NodeCache
        engine.bind_width(self.params.modulator_size)
        self.engine = engine
        self._node_cache = NodeCache(cache_nodes)
        entries = [(request_id, msg.decode_message(self.ctx, blob))
                   for request_id, blob in engine.replay_entries()]
        if entries:
            self.restore_replay_cache(entries)

    def attach_audit(self, audit) -> None:
        """Start writing an outcome frame into the WAL for every mutation.

        ``audit`` is an :class:`~repro.obs.audit.AuditLog` over the
        attached WAL: the audit chain *is* the commit log, so a WAL must
        be attached first.  Every mutating request that reaches its
        handler -- applied or rejected -- gets its outcome written under
        the file's lock, right after its request frame and before the
        next request on that file.
        """
        if self.wal is None or audit.wal is not self.wal:
            raise ReproError("the audit chain lives in the commit log: "
                             "attach a WAL and audit that same log")
        self.audit = audit

    def arm_crash(self, point: str) -> None:
        """Arm a one-shot simulated crash (fault-injection testing)."""
        if point not in (CRASH_POINT_BEFORE_APPLY, CRASH_POINT_AFTER_APPLY,
                         CRASH_POINT_BEFORE_FLUSH, CRASH_POINT_AFTER_FLUSH):
            raise ValueError(f"unknown crash point {point!r}")
        self._crash_point = point

    def disarm_crash(self) -> None:
        """Clear an armed crash point that did not fire."""
        self._crash_point = None

    def replay_bytes(self, data: bytes, seq: int, audit=None) -> None:
        """Re-execute logged request frame ``seq`` (crash recovery).

        The request is not logged again; with ``audit`` given (the
        frame has no outcome yet) its outcome frame is written from this
        replay.  Recovery is single-threaded, so the replay context is a
        plain attribute.
        """
        self._replaying = (seq, audit)
        try:
            self.handle_bytes(data)
        finally:
            self._replaying = None

    def _fire_crash(self, point: str) -> None:
        if self._crash_point == point:
            self._crash_point = None
            raise SimulatedCrash(f"server crashed at {point}")

    def replay_cache_entries(self) -> list[tuple[int, msg.Message]]:
        """Idempotency cache in eviction order (what compaction persists)."""
        with self._applied_mutex:
            return list(self._applied.items())

    def restore_replay_cache(self,
                             entries: Sequence[tuple[int, msg.Message]]) -> None:
        """Reinstall a persisted idempotency cache (recovery path)."""
        with self._applied_mutex:
            self._applied = OrderedDict(entries)

    def _remember_applied(self, request_id: int, reply: msg.Message) -> None:
        with self._applied_mutex:
            self._applied[request_id] = reply
            while len(self._applied) > self.REPLAY_CACHE_LIMIT:
                self._applied.popitem(last=False)
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.REPLAY_CACHE_SIZE.set(len(self._applied))

    # ------------------------------------------------------------------
    # Transport entry points
    # ------------------------------------------------------------------

    def handle_bytes(self, data: bytes) -> bytes:
        """Decode a request, dispatch it, and encode the reply.

        A trace context arriving in the request's telemetry trailer is
        adopted for the duration of the dispatch, so server-side spans
        (handler, WAL append, fsync) and events (replay-cache hits)
        carry the client's ``trace_id``.
        """
        request = msg.decode_message(self.ctx, data)
        if obs.enabled:
            with trace_scope(msg.get_trace(request)):
                reply = self.handle(request)
        else:
            reply = self.handle(request)
        return msg.encode_message(self.ctx, reply)

    def handle(self, request: msg.Message) -> msg.Message:
        """Dispatch one decoded request to its handler."""
        if obs.enabled:
            return self._handle_observed(request)
        return self._dispatch(request)

    def _handle_observed(self, request: msg.Message) -> msg.Message:
        import time as _time

        from repro.obs import instruments as ins
        mtype = type(request).__name__
        ins.SERVER_REQUESTS.inc(type=mtype)
        with span("server.handle", type=mtype) as sp:
            start = _time.perf_counter()
            reply = self._dispatch(request)
            ins.SERVER_HANDLE_SECONDS.observe(
                _time.perf_counter() - start, type=mtype)
            if isinstance(reply, msg.ErrorReply):
                ins.SERVER_ERRORS.inc(type=mtype, code=str(reply.code))
                sp.annotate(error_code=reply.code)
            file_id = getattr(request, "file_id", None)
            if file_id is not None:
                state = self._files.get(file_id)
                if state is not None:
                    ins.TREE_VERSION.set(state.version,
                                         file_id=str(file_id))
            return reply

    def _dispatch(self, request: msg.Message) -> msg.Message:
        handlers = {
            msg.OutsourceRequest: self._on_outsource,
            msg.AccessRequest: self._on_access,
            msg.ModifyCommit: self._on_modify,
            msg.DeleteRequest: self._on_delete_request,
            msg.DeleteCommit: self._on_delete_commit,
            msg.BatchDeleteRequest: self._on_batch_delete_request,
            msg.BatchDeleteCommit: self._on_batch_delete_commit,
            msg.ReplaceCommit: self._on_replace_commit,
            msg.InsertRequest: self._on_insert_request,
            msg.InsertCommit: self._on_insert_commit,
            msg.FetchFileRequest: self._on_fetch_file,
            msg.DeleteFileRequest: self._on_delete_file,
        }
        handler = handlers.get(type(request))
        if handler is None:
            return msg.ErrorReply(code=msg.E_BAD_REQUEST,
                                  detail=f"unsupported request "
                                         f"{type(request).__name__}")
        mutating = isinstance(request, MUTATING_REQUESTS)
        request_id = getattr(request, "request_id", 0) if mutating else 0
        replay = self._replaying
        if request_id:
            with self._applied_mutex:
                cached = self._applied.get(request_id)
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.REPLAY_LOOKUPS.inc(cache="request_id")
                if cached is not None:
                    ins.REPLAY_HITS.inc(cache="request_id")
                    log_event("server.replay_cache_hit",
                              cache="request_id", request_id=request_id,
                              type=type(request).__name__)
            if cached is not None:
                if replay is not None and replay[1] is not None:
                    # A replayed frame whose effect the engine
                    # already holds: its versions are no longer known.
                    self._emit_audit(replay[1], replay[0], request,
                                     cached, None, None)
                return cached  # retransmission: answer, do not re-apply
        try:
            with self._lock_scope(request, mutating):
                audit, seq = None, 0
                if mutating:
                    if replay is not None:
                        seq, audit = replay
                    else:
                        audit = self.audit
                        if self.wal is not None:
                            # Durable before applied: the encode is
                            # deterministic, so the log holds exactly
                            # the bytes the wire carried.  Appending
                            # under the per-file lock keeps WAL order
                            # identical to apply order for each file.
                            seq = self.wal.append(
                                msg.encode_message(self.ctx, request))
                    self._fire_crash(CRASH_POINT_BEFORE_APPLY)
                version_before = None
                if audit is not None:
                    version_before = self._version_of(request)
                # Handler failures are converted to ErrorReply HERE,
                # inside the lock scope, so the outcome frame of a
                # rejected mutation is written in apply order too (the
                # WAL already holds the request either way).
                try:
                    reply = handler(request)
                except SimulatedCrash:
                    raise
                except UnknownItemError as exc:
                    reply = msg.ErrorReply(code=msg.E_UNKNOWN_ITEM,
                                           detail=str(exc),
                                           request_id=request_id)
                except ReproError as exc:
                    reply = msg.ErrorReply(code=msg.E_BAD_REQUEST,
                                           detail=str(exc),
                                           request_id=request_id)
                else:
                    if mutating:
                        self._fire_crash(CRASH_POINT_AFTER_APPLY)
                if audit is not None:
                    self._emit_audit(audit, seq, request, reply,
                                     version_before,
                                     self._version_of(request))
        except SimulatedCrash:
            raise
        except UnknownItemError as exc:
            reply = msg.ErrorReply(code=msg.E_UNKNOWN_ITEM, detail=str(exc),
                                   request_id=request_id)
        except ReproError as exc:
            reply = msg.ErrorReply(code=msg.E_BAD_REQUEST, detail=str(exc),
                                   request_id=request_id)
        if request_id:
            self._remember_applied(request_id, reply)
        return reply

    # ------------------------------------------------------------------
    # Audit trail
    # ------------------------------------------------------------------

    def _version_of(self, request: msg.Message) -> Optional[int]:
        file_id = getattr(request, "file_id", None)
        if file_id is None:
            return None
        state = self._files.get(file_id)
        if state is None and self.engine is not None:
            state = self._materialise(file_id)
        return None if state is None else state.version

    def _emit_audit(self, audit, seq: int, request: msg.Message,
                    reply: msg.Message, version_before: Optional[int],
                    version_after: Optional[int]) -> None:
        """Write the outcome frame of request frame ``seq`` (file lock
        held).

        Runs under the same lock scope as the apply, so a file's outcome
        frames follow its request frames in apply order -- the property
        the stress harness verifies.
        """
        items: list[int] = []
        item_id = getattr(request, "item_id", None)
        if item_id is not None:
            items.append(item_id)
        items.extend(getattr(request, "item_ids", ()))
        error = isinstance(reply, msg.ErrorReply)
        context = current_trace()
        record = {
            "req": seq,
            "op": type(request).__name__,
            "request_id": getattr(request, "request_id", 0),
            "trace_id": None if context is None else context.trace_id_hex,
            "file_id": getattr(request, "file_id", None),
            "items": items,
            "version_before": version_before,
            "version_after": version_after,
            "ok": not error,
            "code": reply.code if error else None,
        }
        audit.append(record)

    # ------------------------------------------------------------------
    # Concurrency control
    # ------------------------------------------------------------------

    @contextmanager
    def _lock_scope(self, request: msg.Message, mutating: bool):
        """Hold the locks one request needs, per the documented hierarchy.

        Registry-changing requests (outsource, whole-file delete) take
        the registry lock exclusively and therefore run alone.  Every
        other per-file request takes the registry lock shared plus its
        file's lock -- shared for pure reads (access, fetch, delete/
        insert/batch challenges), exclusive for commits -- so reads of
        one vault run in parallel while its mutations serialise.  See
        ``docs/CONCURRENCY.md``.
        """
        if isinstance(request, REGISTRY_REQUESTS):
            with self._registry_lock.exclusive(scope="registry"):
                self._view_caches.pop(getattr(request, "file_id", None), None)
                yield
            return
        file_id = getattr(request, "file_id", None)
        if file_id is None:
            yield
            return
        file_lock = self._file_locks.lock(file_id)
        with self._registry_lock.shared(scope="registry"):
            if not obs.enabled:
                if mutating:
                    with file_lock.exclusive():
                        self._view_caches.pop(file_id, None)
                        yield
                else:
                    with file_lock.shared():
                        yield
                return
            from repro.obs import instruments as ins
            ins.INFLIGHT_REQUESTS.inc(file_id=str(file_id))
            try:
                if mutating:
                    with file_lock.exclusive():
                        self._view_caches.pop(file_id, None)
                        yield
                else:
                    with file_lock.shared():
                        yield
            finally:
                ins.INFLIGHT_REQUESTS.dec(file_id=str(file_id))

    # ------------------------------------------------------------------
    # File adoption (used directly by benchmarks with lazy stores)
    # ------------------------------------------------------------------

    def adopt_file(self, file_id: int, tree: ModulationTree,
                   ciphertexts: CiphertextStore, *,
                   build_registry: Optional[bool] = None) -> None:
        """Install a pre-built file, bypassing the outsourcing message.

        ``build_registry`` defaults to the deployment parameter; pass
        ``False`` for benchmark-scale lazily-seeded trees.
        """
        if build_registry is None:
            build_registry = self.params.enforce_unique_modulators
        registry = None
        if build_registry:
            registry = {}
            for _kind, _slot, value in tree.iter_modulators():
                registry[value] = registry.get(value, 0) + 1
            if any(count > 1 for count in registry.values()):
                raise ReproError("tree contains duplicate modulators")
        self._files[file_id] = ServerFile(tree=tree, ciphertexts=ciphertexts,
                                          registry=registry)
        self._view_caches.pop(file_id, None)

    def _state(self, file_id: int) -> ServerFile:
        """Handler-internal state lookup (keeps the view cache intact).

        With an engine attached, a file absent from the resident table
        is materialised lazily: paged stores are installed that fetch
        nodes from the engine on demand, so this is O(1) regardless of
        file size -- the actual node reads happen as the handler walks
        its root-to-leaf paths.
        """
        state = self._files.get(file_id)
        if state is None and self.engine is not None:
            state = self._materialise(file_id)
        if state is None:
            raise UnknownItemError(f"unknown file id {file_id}")
        return state

    def _materialise(self, file_id: int) -> Optional[ServerFile]:
        """Page a file in from the engine (None if the engine lacks it)."""
        with self._materialise_lock:
            state = self._files.get(file_id)
            if state is not None:
                return state  # lost the race; the winner's state stands
            meta = self.engine.get_meta(file_id)
            if meta is None:
                return None
            from repro.server.paging import (PagedCiphertextStore,
                                             PagedItemMap,
                                             PagedModulatorStore)
            store = PagedModulatorStore(self.engine, file_id,
                                        self.params.modulator_size,
                                        self._node_cache)
            tree = ModulationTree.wrap(store, meta.n_leaves,
                                       PagedItemMap(self.engine, file_id))
            state = ServerFile(tree=tree,
                               ciphertexts=PagedCiphertextStore(self.engine,
                                                                file_id),
                               version=meta.version, registry=None)
            self._files[file_id] = state
            return state

    def file_state(self, file_id: int) -> ServerFile:
        """Direct state access (benchmarks, adversary subclasses, tests).

        Callers taking this door may mutate the state behind the
        protocol's back, so the file's view cache is dropped up front --
        correctness over warmth for out-of-band access.
        """
        self._view_caches.pop(file_id, None)
        return self._state(file_id)

    def install_file_state(self, file_id: int, state: ServerFile) -> None:
        """Install a complete per-file state wholesale.

        The shard-migration door: :meth:`adopt_file` rebuilds a file from
        its parts (resetting version and replay cache), whereas this
        moves an existing :class:`ServerFile` -- version, registry, and
        commit replay cache included -- between server instances.
        """
        self._files[file_id] = state
        self._view_caches.pop(file_id, None)

    def has_file(self, file_id: int) -> bool:
        if file_id in self._files:
            return True
        return (self.engine is not None
                and self.engine.get_meta(file_id) is not None)

    def file_ids(self) -> list[int]:
        """Ids of every file currently stored (sorted)."""
        if self.engine is None:
            return sorted(self._files)
        ids = set(self._files)
        ids.update(self.engine.file_ids())
        return sorted(ids)

    def file_count(self) -> int:
        """Number of files currently stored (cheap, for gauges)."""
        if self.engine is None:
            return len(self._files)
        return len(self.file_ids())

    # ------------------------------------------------------------------
    # Registry helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _registry_apply(registry: dict[bytes, int], log: WriteLog) -> bool:
        """Fold a write log into the registry; True if it stays duplicate-free."""
        ok = True
        for _kind, _slot, old, new in log:
            if old is not None:
                count = registry.get(old, 0) - 1
                if count <= 0:
                    registry.pop(old, None)
                else:
                    registry[old] = count
            if new is not None:
                count = registry.get(new, 0) + 1
                registry[new] = count
                if count > 1:
                    ok = False
        return ok

    @staticmethod
    def _registry_revert(registry: dict[bytes, int], log: WriteLog) -> None:
        """Undo a previous :meth:`_registry_apply` for the same log."""
        for _kind, _slot, old, new in reversed(log):
            if new is not None:
                count = registry.get(new, 0) - 1
                if count <= 0:
                    registry.pop(new, None)
                else:
                    registry[new] = count
            if old is not None:
                registry[old] = registry.get(old, 0) + 1

    def _replay_digest(self, request: msg.Message) -> bytes:
        return hashlib.sha1(msg.encode_message(self.ctx, request)).digest()

    def _check_replay(self, state: ServerFile,
                      request: msg.Message) -> Optional[msg.Ack]:
        """Return the cached Ack if this exact commit was already applied."""
        if state.replay_cache is None:
            return None
        digest, ack = state.replay_cache
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.REPLAY_LOOKUPS.inc(cache="commit_digest")
        if digest == self._replay_digest(request):
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.REPLAY_HITS.inc(cache="commit_digest")
                log_event("server.replay_cache_hit", cache="commit_digest",
                          type=type(request).__name__)
            return ack
        return None

    def _remember_commit(self, state: ServerFile, request: msg.Message,
                         ack: msg.Ack) -> None:
        state.replay_cache = (self._replay_digest(request), ack)

    def _fresh_values_clash(self, state: ServerFile,
                            values: list[Optional[bytes]]) -> bool:
        """Pre-check client-chosen modulators against the registry."""
        if state.registry is None:
            return False
        present = [v for v in values if v is not None]
        if len(set(present)) != len(present):
            return True
        return any(v in state.registry for v in present)

    # ------------------------------------------------------------------
    # View/encode cache (read-path fast path)
    # ------------------------------------------------------------------

    def _cached_reply(self, file_id: int, key: tuple, build) -> msg.Message:
        """Serve a read reply from the file's view cache, building on miss.

        Keys embed the tree version as belt-and-suspenders, but the real
        coherence guarantee is the invalidation in :meth:`_lock_scope`:
        every mutating request (including modify, which does *not* bump
        the version) drops the file's whole cache under the exclusive
        lock before it applies.  Cached replies are flagged so
        :func:`~repro.protocol.messages.encode_message` memoizes their
        body -- a warm read costs one dict lookup and one join.
        """
        if not self.view_cache_enabled:
            return build()
        cache = self._view_caches.get(file_id)
        if cache is None:
            cache = self._view_caches.setdefault(file_id, {})
        reply = cache.get(key)
        hit = reply is not None
        if not hit:
            reply = build()
            object.__setattr__(reply, "_cache_encoding", True)
            if len(cache) >= self.VIEW_CACHE_LIMIT:
                cache.clear()
            cache[key] = reply
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.SERVER_VIEW_CACHE.inc(outcome="hit" if hit else "miss")
        return reply

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _on_outsource(self, request: msg.OutsourceRequest) -> msg.Message:
        n = len(request.item_ids)
        if len(request.ciphertexts) != n:
            raise ReproError("one ciphertext per item required")
        if len(request.links) != max(0, 2 * n - 2):
            raise ReproError("wrong number of link modulators")
        if len(request.leaves) != n:
            raise ReproError("wrong number of leaf modulators")

        from repro.core.modstore import DenseModulatorStore
        store = DenseModulatorStore(self.params.modulator_size)
        for i, link in enumerate(request.links):
            store.set_link(2 + i, link)
        for i, leaf in enumerate(request.leaves):
            store.set_leaf(n + i, leaf)
        tree = ModulationTree.adopt(store, n, list(request.item_ids))

        ciphertexts = InMemoryCiphertextStore()
        for item_id, ciphertext in zip(request.item_ids, request.ciphertexts):
            ciphertexts.put(item_id, ciphertext)

        try:
            self.adopt_file(request.file_id, tree, ciphertexts)
        except ReproError:
            return msg.ErrorReply(code=msg.E_DUPLICATE_MODULATOR,
                                  detail="outsourced tree has duplicate "
                                         "modulators; re-randomise and retry")
        return msg.Ack(tree_version=0)

    def _on_access(self, request: msg.AccessRequest) -> msg.Message:
        state = self._state(request.file_id)

        def build() -> msg.Message:
            slot = state.tree.slot_of_item(request.item_id)
            return msg.AccessReply(
                path=state.tree.path_view(slot),
                ciphertext=state.ciphertexts.get(request.item_id),
                tree_version=state.version)
        return self._cached_reply(request.file_id,
                                  ("access", request.item_id, state.version),
                                  build)

    def _on_modify(self, request: msg.ModifyCommit) -> msg.Message:
        state = self._state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since access")
        state.tree.slot_of_item(request.item_id)  # existence check
        state.ciphertexts.put(request.item_id, request.ciphertext)
        return msg.Ack(tree_version=state.version)

    def _on_delete_request(self, request: msg.DeleteRequest) -> msg.Message:
        state = self._state(request.file_id)

        def build() -> msg.Message:
            slot = state.tree.slot_of_item(request.item_id)
            return msg.DeleteChallenge(
                mt=state.tree.mt_view(slot),
                ciphertext=state.ciphertexts.get(request.item_id),
                balance=state.tree.balance_view(),
                tree_version=state.version,
            )
        return self._cached_reply(request.file_id,
                                  ("delete", request.item_id, state.version),
                                  build)

    @staticmethod
    def _checked_cut(tree: ModulationTree, item_id: int,
                     cut_slots: Sequence[int]) -> int:
        """The item's leaf slot, once ``cut_slots`` is checked as its cut."""
        slot = tree.slot_of_item(item_id)
        expected_cut = tuple(s ^ 1 for s in tree.path_slots(slot)[1:])
        if tuple(cut_slots) != expected_cut:
            raise ReproError("cut slots do not match the item's path")
        return slot

    def _apply_deltas(self, state: ServerFile, cut_slots: Sequence[int],
                      deltas: Sequence[bytes]) -> Optional[msg.ErrorReply]:
        """XOR the deltas into the cut; roll back and refuse on a duplicate."""
        tree = state.tree
        delta_log = tree.apply_deltas(list(cut_slots), list(deltas))
        if state.registry is not None and \
                not self._registry_apply(state.registry, delta_log):
            self._registry_revert(state.registry, delta_log)
            tree.rollback(delta_log)
            return msg.ErrorReply(code=msg.E_DUPLICATE_MODULATOR,
                                  detail="delta application produced a "
                                         "duplicate; retry with a new key")
        return None

    def _on_delete_commit(self, request: msg.DeleteCommit) -> msg.Message:
        state = self._state(request.file_id)
        replayed = self._check_replay(state, request)
        if replayed is not None:
            return replayed
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        tree = state.tree
        slot = self._checked_cut(tree, request.item_id, request.cut_slots)

        if self._fresh_values_clash(state, [request.x_s_prime,
                                            request.dest_link,
                                            request.dest_leaf]):
            return msg.ErrorReply(code=msg.E_DUPLICATE_MODULATOR,
                                  detail="balancing modulators collide; retry "
                                         "with fresh randomness")

        error = self._apply_deltas(state, request.cut_slots, request.deltas)
        if error is not None:
            return error

        structure_log = tree.delete_leaf(slot, request.x_s_prime,
                                         request.dest_link, request.dest_leaf)
        if state.registry is not None:
            self._registry_apply(state.registry, structure_log)
        state.ciphertexts.delete(request.item_id)
        state.version += 1
        ack = msg.Ack(tree_version=state.version)
        self._remember_commit(state, request, ack)
        return ack

    def _on_batch_delete_request(self,
                                 request: msg.BatchDeleteRequest) -> msg.Message:
        state = self._state(request.file_id)
        if not request.item_ids:
            raise ReproError("empty batch")
        if len(set(request.item_ids)) != len(request.item_ids):
            raise ReproError("batch item ids must be distinct")
        def build() -> msg.Message:
            tree = state.tree
            view = tree.batch_view(tree.slots_of_items(request.item_ids))
            ciphertexts = tuple(state.ciphertexts.get_many(request.item_ids))
            return msg.BatchDeleteReply(n_leaves=view.n_leaves,
                                        target_slots=view.target_slots,
                                        links=view.links,
                                        leaf_mods=view.leaf_mods,
                                        ciphertexts=ciphertexts,
                                        tree_version=state.version)
        return self._cached_reply(request.file_id,
                                  ("batch", request.item_ids, state.version),
                                  build)

    @staticmethod
    def _validate_batch_moves(tree: ModulationTree,
                              item_ids: Sequence[int],
                              slots: Sequence[int],
                              moves: Sequence["msg.BalanceMove"]) -> list[int]:
        """Dry-run the batch's ``delete_leaf`` sequence without mutating.

        Replays the exact argument-shape checks and item relocations of
        :meth:`~repro.core.tree.ModulationTree.delete_leaf` for every move
        so the real applications below cannot fail halfway through -- the
        batch commit stays all-or-nothing.  ``slots`` are the items' leaf
        slots before the first move; returns each move's target slot at
        the time it applies.
        """
        current = dict(zip(item_ids, slots))
        owner = {slot: item_id for item_id, slot in current.items()}
        m = tree.leaf_count
        targets = []
        for item_id, move in zip(item_ids, moves):
            if m < 1:
                raise ReproError("more deletions than leaves")
            slot_k = current[item_id]
            targets.append(slot_k)
            if not m <= slot_k <= 2 * m - 1:
                raise ReproError(f"slot {slot_k} is not a leaf of the "
                                 f"current tree")
            owner.pop(slot_k, None)
            if m == 1:
                if (move.x_s_prime is not None or move.dest_link is not None
                        or move.dest_leaf is not None):
                    raise ReproError("last-leaf move carries no modulators")
                m = 0
                continue
            t_slot, s_slot, p_slot = 2 * m - 1, 2 * m - 2, m - 1
            if move.x_s_prime is None:
                raise ReproError("balancing value x_s' required for n >= 2")
            if s_slot in owner:
                moved = owner.pop(s_slot)
                owner[p_slot] = moved
                current[moved] = p_slot
            if slot_k == t_slot:
                if move.dest_link is not None or move.dest_leaf is not None:
                    raise ReproError("k == t move carries only x_s'")
            else:
                if move.dest_leaf is None:
                    raise ReproError("balancing value x_t' required when "
                                     "k != t")
                dest = p_slot if slot_k == s_slot else slot_k
                if dest == p_slot or dest == 1:
                    if move.dest_link is not None:
                        raise ReproError("dest link must be omitted when t "
                                         "inherits a slot's link")
                elif move.dest_link is None:
                    raise ReproError("fresh link modulator required")
                if t_slot in owner:
                    moved = owner.pop(t_slot)
                    owner[dest] = moved
                    current[moved] = dest
            m -= 1
        return targets

    def _on_batch_delete_commit(self,
                                request: msg.BatchDeleteCommit) -> msg.Message:
        state = self._state(request.file_id)
        replayed = self._check_replay(state, request)
        if replayed is not None:
            return replayed
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since batch view")
        tree = state.tree
        item_ids = request.item_ids
        if not item_ids:
            raise ReproError("empty batch")
        if len(set(item_ids)) != len(item_ids):
            raise ReproError("batch item ids must be distinct")
        if len(request.moves) != len(item_ids):
            raise ReproError("one rebalancing move per deleted item required")
        slots = tree.slots_of_items(item_ids)

        # The cut is derived, not trusted: same canonical order as the
        # client's compute_deltas_multi.
        cut_slots = ModulationTree.union_cut_slots(slots)
        if len(request.deltas) != len(cut_slots):
            raise ReproError("one delta per union-cut node required")

        fresh = [value for move in request.moves
                 for value in (move.x_s_prime, move.dest_link, move.dest_leaf)]
        if self._fresh_values_clash(state, fresh):
            return msg.ErrorReply(code=msg.E_DUPLICATE_MODULATOR,
                                  detail="balancing modulators collide; retry "
                                         "with fresh randomness")

        targets = self._validate_batch_moves(tree, item_ids, slots,
                                             request.moves)

        error = self._apply_deltas(state, cut_slots, request.deltas)
        if error is not None:
            return error

        for item_id, slot, move in zip(item_ids, targets, request.moves):
            structure_log = tree.delete_leaf(slot, move.x_s_prime,
                                             move.dest_link, move.dest_leaf)
            if state.registry is not None:
                self._registry_apply(state.registry, structure_log)
            state.ciphertexts.delete(item_id)
        state.version += 1
        ack = msg.Ack(tree_version=state.version)
        self._remember_commit(state, request, ack)
        return ack

    def _on_replace_commit(self, request: msg.ReplaceCommit) -> msg.Message:
        """Deltas as for a deletion, then a fresh record in the same leaf.

        No balancing and no split: the slot is re-pointed from the old
        item id to ``new_item_id`` and the old ciphertext is dropped.
        """
        state = self._state(request.file_id)
        replayed = self._check_replay(state, request)
        if replayed is not None:
            return replayed
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        tree = state.tree
        self._checked_cut(tree, request.item_id, request.cut_slots)
        if tree.has_item(request.new_item_id):
            raise ReproError(f"item id {request.new_item_id} already present")

        error = self._apply_deltas(state, request.cut_slots, request.deltas)
        if error is not None:
            return error

        tree.replace_item(request.item_id, request.new_item_id)
        state.ciphertexts.delete(request.item_id)
        state.ciphertexts.put(request.new_item_id, request.ciphertext)
        state.version += 1
        ack = msg.Ack(tree_version=state.version, item_id=request.new_item_id)
        self._remember_commit(state, request, ack)
        return ack

    def _on_insert_request(self, request: msg.InsertRequest) -> msg.Message:
        state = self._state(request.file_id)

        def build() -> msg.Message:
            return msg.InsertChallenge(path=state.tree.insert_view(),
                                       tree_version=state.version)
        return self._cached_reply(request.file_id,
                                  ("insert", state.version), build)

    def _on_insert_commit(self, request: msg.InsertCommit) -> msg.Message:
        state = self._state(request.file_id)
        replayed = self._check_replay(state, request)
        if replayed is not None:
            return replayed
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        if self._fresh_values_clash(state, [request.t_new_link,
                                            request.t_new_leaf,
                                            request.e_link, request.e_leaf]):
            return msg.ErrorReply(code=msg.E_DUPLICATE_MODULATOR,
                                  detail="insertion modulators collide; retry "
                                         "with fresh randomness")
        log = state.tree.insert_leaf(request.item_id, request.t_new_link,
                                     request.t_new_leaf, request.e_link,
                                     request.e_leaf)
        if state.registry is not None:
            self._registry_apply(state.registry, log)
        state.ciphertexts.put(request.item_id, request.ciphertext)
        state.version += 1
        ack = msg.Ack(tree_version=state.version, item_id=request.item_id)
        self._remember_commit(state, request, ack)
        return ack

    def _on_fetch_file(self, request: msg.FetchFileRequest) -> msg.Message:
        state = self._state(request.file_id)

        def build() -> msg.Message:
            tree = state.tree
            n = tree.leaf_count
            links, leaves = tree.modulator_values()
            item_ids = tree.item_ids()
            ciphertexts = tuple(state.ciphertexts.get_many(item_ids))
            return msg.FetchFileReply(n_leaves=n, item_ids=tuple(item_ids),
                                      links=tuple(links), leaves=tuple(leaves),
                                      ciphertexts=ciphertexts,
                                      tree_version=state.version)
        return self._cached_reply(request.file_id, ("fetch", state.version),
                                  build)

    def _on_delete_file(self, request: msg.DeleteFileRequest) -> msg.Message:
        self._files.pop(request.file_id, None)
        if self.engine is not None:
            self.engine.drop_file(request.file_id)
            self._node_cache.purge_file(request.file_id)
        # Runs under the exclusive registry lock, so nobody holds (or can
        # be acquiring) this file's lock while it is dropped.
        self._file_locks.discard(request.file_id)
        return msg.Ack()

    # ------------------------------------------------------------------
    # Checkpointing (storage engine + WAL compaction)
    # ------------------------------------------------------------------

    def compact_storage(self) -> dict:
        """Flush dirty state to the engine, then compact the WAL.

        The server's checkpoint: only state touched since the last
        compaction is written (dirty overlays of paged files; full
        conversion for files outsourced while running), followed by
        the persisted replay table, one engine ``flush`` (the
        durability barrier), and a WAL ``compact`` that truncates
        replayed history behind a snapshot marker.

        Runs under the exclusive registry lock -- the same stop-the-
        world discipline outsourcing uses -- so no mutation can land
        between the engine flush and the WAL truncate and fall through
        the crack.  Crash safety around the two seams:

        * before the engine flush: the engine still holds the previous
          snapshot and the WAL still holds everything since; replay
          rebuilds the lost overlays.
        * after the flush, before the truncate: the WAL's records are
          already reflected in the engine; replaying them is a no-op
          (request-id replay table hits, stale-version rejections, and
          idempotent re-applies -- see ``docs/STORAGE.md``).

        A checkpoint that fails before its flush commits (an engine
        error, or :class:`~repro.core.errors.ProtocolError` for a tree
        entry without its ciphertext) rolls the engine back: the file
        keeps the previous snapshot, and the running server keeps its
        dirty overlays and unconverted files for the next attempt.
        """
        if self.engine is None:
            raise ReproError("no storage engine attached")
        import time as _time
        start = _time.perf_counter()
        stats = {"files_flushed": 0, "files_converted": 0,
                 "dirty_records": 0}
        with self._registry_lock.exclusive(scope="registry"):
            self._fire_crash(CRASH_POINT_BEFORE_FLUSH)
            if self.wal is not None:
                # Outcome frames durable before the engine absorbs
                # their requests (replay could no longer re-derive them).
                self.wal.sync()
            # Commit what requests staged (file drops), so a rollback
            # below discards only this checkpoint's writes.
            self.engine.flush()
            done = []
            try:
                for file_id, state in sorted(self._files.items()):
                    done.append(self._flush_file(file_id, state, stats))
                self.engine.set_replay_entries(
                    (request_id, msg.encode_message(self.ctx, reply))
                    for request_id, reply in self.replay_cache_entries())
                self.engine.flush()
            except BaseException:
                self.engine.rollback()
                raise
            for finish in done:
                finish()
            self._fire_crash(CRASH_POINT_AFTER_FLUSH)
            if self.wal is not None:
                marker = (f"snapshot files={self.file_count()} "
                          f"dirty={stats['dirty_records']}").encode()
                self.wal.compact(marker)
        stats["seconds"] = _time.perf_counter() - start
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.STORAGE_FLUSHES.inc()
            ins.STORAGE_FLUSH_SECONDS.observe(stats["seconds"])
            ins.STORAGE_DIRTY_FLUSHED.inc(stats["dirty_records"])
            log_event("server.compact_storage", **stats)
        return stats

    def _flush_file(self, file_id: int, state: ServerFile,
                    stats: dict) -> Callable[[], None]:
        """Stage one resident file's writes in the engine (registry lock
        held); returns what to run once they are committed."""
        from repro.server.engine import FileMeta
        from repro.server.paging import PagedModulatorStore
        tree = state.tree
        if isinstance(tree.store, PagedModulatorStore):
            overlays = (tree.store, tree._map,  # noqa: SLF001
                        state.ciphertexts)
            dirty = sum(overlay.flush_to_engine() for overlay in overlays)
            self.engine.set_meta(FileMeta(file_id, state.version,
                                          tree.leaf_count))
            stats["files_flushed"] += 1
            stats["dirty_records"] += dirty

            def finish() -> None:
                for overlay in overlays:
                    overlay.mark_clean()
            return finish
        # A file outsourced (or installed) while running: write it out
        # wholesale and, once that commits, swap in the paged
        # representation, keeping the version, registry, and commit
        # replay cache.  drop_file first clears any stale rows from a
        # previous incarnation of the id.
        from repro.server.engine import KIND_LEAF, KIND_LINK
        from repro.server.paging import PagedCiphertextStore, PagedItemMap
        item_ids = tree.item_ids()
        try:
            ciphertexts = state.ciphertexts.get_many(item_ids)
        except UnknownItemError as exc:
            # A tree entry without its ciphertext is corruption; a
            # silently smaller engine file would *look* like a clean
            # deletion on reload.  Refuse before staging the file.
            raise ProtocolError(f"file {file_id}: a tree entry has no "
                                f"ciphertext ({exc}); state is corrupt") \
                from None
        self.engine.drop_file(file_id)
        self.engine.write_nodes(file_id, (
            (KIND_LINK if kind == LINK else KIND_LEAF, slot, value)
            for kind, slot, value in tree.iter_modulators()))
        self.engine.write_items(file_id, [
            (item_id, tree.slot_of_item(item_id)) for item_id in item_ids])
        self.engine.write_ciphertexts(file_id, zip(item_ids, ciphertexts))
        self.engine.set_meta(FileMeta(file_id, state.version,
                                      tree.leaf_count))
        stats["files_converted"] += 1
        stats["dirty_records"] += tree.modulator_count() + 2 * len(item_ids)

        def finish() -> None:
            self._node_cache.purge_file(file_id)
            store = PagedModulatorStore(self.engine, file_id,
                                        self.params.modulator_size,
                                        self._node_cache)
            state.tree = ModulationTree.wrap(
                store, tree.leaf_count, PagedItemMap(self.engine, file_id))
            state.ciphertexts = PagedCiphertextStore(self.engine, file_id)
            self._view_caches.pop(file_id, None)
        return finish

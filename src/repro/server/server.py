"""The honest cloud server.

The server stores, per file, a modulation tree (unencrypted, as the paper
prescribes), the item ciphertexts, and a tree version counter used to
detect interleaved updates between a challenge and its commit.  It keeps
no table of modulator values: the paper's rule that all modulators in a
tree differ is enforced by the client, which refuses any view holding a
duplicate (:func:`repro.core.ops.verify_distinct_modulators`); random
modulators collide with negligible probability (``docs/SECURITY.md``).

The server never sees any key material: its entire deletion role is to
ship ``MT(k)`` plus the balancing view, XOR the returned deltas into the
cut's child modulators (Eqs. 6-7), and perform the structural moves.
Everything security-critical is the client's verification; a *malicious*
server is modelled separately in :mod:`repro.server.adversary`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.errors import (ProtocolError, ReproError, SimulatedCrash,
                               UnknownItemError)
from repro.core.params import Params
from repro.core.tree import LINK, ModulationTree
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

#: Request type -> handler method name, resolved with ``getattr`` per
#: request so that a subclass's override of a handler applies.
_HANDLERS = {
    msg.OutsourceRequest: "_on_outsource",
    msg.AccessRequest: "_on_access",
    msg.ModifyCommit: "_on_modify",
    msg.DeleteRequest: "_on_delete_request",
    msg.DeleteCommit: "_on_delete_commit",
    msg.BatchDeleteRequest: "_on_batch_delete_request",
    msg.BatchDeleteCommit: "_on_batch_delete_commit",
    msg.ReplaceCommit: "_on_replace_commit",
    msg.InsertRequest: "_on_insert_request",
    msg.InsertCommit: "_on_insert_commit",
    msg.FetchFileRequest: "_on_fetch_file",
    msg.DeleteFileRequest: "_on_delete_file",
}


def _error_reply(exc: ReproError, request_id: int) -> msg.ErrorReply:
    """The reply to a request refused with ``exc``."""
    code = (msg.E_UNKNOWN_ITEM if isinstance(exc, UnknownItemError)
            else msg.E_BAD_REQUEST)
    return msg.ErrorReply(code=code, detail=str(exc), request_id=request_id)


@dataclass
class ServerFile:
    """Per-file server state: the tree, the ciphertexts and the version."""

    tree: ModulationTree
    ciphertexts: CiphertextStore
    version: int = 0


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

    #: ``(seq, audit)`` while :meth:`replay_bytes` re-executes a frame.
    _replaying = None

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
        #: Serialises on-demand file materialisation from the engine
        #: (two readers may race to page in the same file).
        self._materialise_lock = threading.Lock()

    #: Attributes recreated by :meth:`_init_locks` instead of pickled.
    _UNPICKLED = ("_registry_lock", "_file_locks", "_applied_mutex",
                  "_materialise_lock")

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
        them.  The engine's persisted replay table is restored, so the
        retransmissions it holds are answered across restarts.  Paged and
        resident files obey the same modulator rules (the collision
        bound is in ``docs/SECURITY.md``).

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
        """Reinstall a persisted idempotency cache (recovery path); only
        the newest :attr:`REPLAY_CACHE_LIMIT` entries are kept."""
        with self._applied_mutex:
            self._applied = OrderedDict(entries[-self.REPLAY_CACHE_LIMIT:])

    def _lookup_applied(self, request: msg.Message) -> Optional[msg.Message]:
        """The reply recorded for ``request``'s id, if it was handled."""
        request_id = request.request_id
        with self._applied_mutex:
            cached = self._applied.get(request_id)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.REPLAY_LOOKUPS.inc(cache="request_id")
            if cached is not None:
                ins.REPLAY_HITS.inc(cache="request_id")
                log_event("server.replay_cache_hit", cache="request_id",
                          request_id=request_id,
                          type=type(request).__name__)
        return cached

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
        file_id = getattr(request, "file_id", None)
        with span("server.handle", type=mtype) as sp:
            start = _time.perf_counter()
            if file_id is None:
                reply = self._dispatch(request)
            else:
                ins.INFLIGHT_REQUESTS.inc(file_id=str(file_id))
                try:
                    reply = self._dispatch(request)
                finally:
                    ins.INFLIGHT_REQUESTS.dec(file_id=str(file_id))
            ins.SERVER_HANDLE_SECONDS.observe(
                _time.perf_counter() - start, type=mtype)
            if isinstance(reply, msg.ErrorReply):
                ins.SERVER_ERRORS.inc(type=mtype, code=str(reply.code))
                sp.annotate(error_code=reply.code)
            if file_id is not None:
                state = self._files.get(file_id)
                if state is not None:
                    ins.TREE_VERSION.set(state.version,
                                         file_id=str(file_id))
            return reply

    def _dispatch(self, request: msg.Message) -> msg.Message:
        name = _HANDLERS.get(type(request))
        if name is None:
            return msg.ErrorReply(code=msg.E_BAD_REQUEST,
                                  detail=f"unsupported request "
                                         f"{type(request).__name__}")
        handler = getattr(self, name)
        mutating = isinstance(request, MUTATING_REQUESTS)
        request_id = getattr(request, "request_id", 0) if mutating else 0
        replay = self._replaying
        locks = self._lock_scope(request, mutating)
        taken = 0
        try:
            for lock, exclusive, scope in locks:
                lock.acquire(exclusive, scope)
                taken += 1
            # Looked up under the request's lock, so a duplicate that
            # queued behind its original finds the original's reply
            # and is never logged or applied a second time.
            cached = self._lookup_applied(request) if request_id else None
            if cached is not None:
                if replay is not None and replay[1] is not None:
                    # A replayed frame whose effect the engine
                    # already holds: its versions are no longer known.
                    self._emit_audit(replay[1], replay[0], request,
                                     cached, None, None)
                return cached  # retransmission: answer, do not re-apply
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
            # with the request's locks held, so the outcome frame of a
            # rejected mutation is written in apply order too (the
            # WAL already holds the request either way).
            try:
                reply = handler(request)
                applied = mutating
            except SimulatedCrash:
                raise
            except ReproError as exc:
                reply, applied = _error_reply(exc, request_id), False
            # Recorded before the after-apply crash point, so a
            # resend after that crash is answered, not re-applied.
            if request_id:
                self._remember_applied(request_id, reply)
            if applied:
                self._fire_crash(CRASH_POINT_AFTER_APPLY)
            if audit is not None:
                self._emit_audit(audit, seq, request, reply,
                                 version_before,
                                 self._version_of(request))
        except SimulatedCrash:
            raise
        except ReproError as exc:
            reply = _error_reply(exc, request_id)
        finally:
            for lock, exclusive, _scope in reversed(locks[:taken]):
                lock.release(exclusive)
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

        Runs under the same locks as the apply, so a file's outcome
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

    def _lock_scope(self, request: msg.Message, mutating: bool
                    ) -> tuple[tuple[RWLock, bool, str], ...]:
        """The ``(lock, exclusive, scope)`` holds one request needs, in
        the documented hierarchy order.

        Registry-changing requests (outsource, whole-file delete) take
        the registry lock exclusively and therefore run alone.  Every
        other per-file request takes the registry lock shared plus its
        file's lock -- shared for pure reads (access, fetch, delete/
        insert/batch challenges), exclusive for commits -- so reads of
        one vault run in parallel while its mutations serialise.  See
        ``docs/CONCURRENCY.md``.
        """
        if isinstance(request, REGISTRY_REQUESTS):
            return ((self._registry_lock, True, "registry"),)
        file_id = getattr(request, "file_id", None)
        if file_id is None:
            return ()
        return ((self._registry_lock, False, "registry"),
                (self._file_locks.lock(file_id), mutating, "file"))

    # ------------------------------------------------------------------
    # File adoption (used directly by benchmarks with lazy stores)
    # ------------------------------------------------------------------

    def adopt_file(self, file_id: int, tree: ModulationTree,
                   ciphertexts: CiphertextStore) -> None:
        """Install a pre-built file, bypassing the outsourcing message."""
        self._files[file_id] = ServerFile(tree=tree, ciphertexts=ciphertexts)

    def file_state(self, file_id: int) -> ServerFile:
        """A file's state: the handlers' lookup, and the door benchmarks,
        adversary subclasses and tests take to the state directly.

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
                               version=meta.version)
            self._files[file_id] = state
            return state

    def install_file_state(self, file_id: int, state: ServerFile) -> None:
        """Install a complete per-file state wholesale.

        The shard-migration door: :meth:`adopt_file` rebuilds a file from
        its parts (resetting its version), whereas this moves an
        existing :class:`ServerFile`, version included, between server
        instances.  Request-id replies stay behind; a resend after the
        move is settled by the client from the tree.
        """
        self._files[file_id] = state

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

        self.adopt_file(request.file_id, tree, ciphertexts)
        return msg.Ack(tree_version=0)

    def _on_access(self, request: msg.AccessRequest) -> msg.Message:
        state = self.file_state(request.file_id)
        slot = state.tree.slot_of_item(request.item_id)
        return msg.AccessReply(
            path=state.tree.path_view(slot),
            ciphertext=state.ciphertexts.get(request.item_id),
            tree_version=state.version)

    def _on_modify(self, request: msg.ModifyCommit) -> msg.Message:
        state = self.file_state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since access")
        state.tree.slot_of_item(request.item_id)  # existence check
        state.ciphertexts.put(request.item_id, request.ciphertext)
        return msg.Ack(tree_version=state.version)

    def _on_delete_request(self, request: msg.DeleteRequest) -> msg.Message:
        state = self.file_state(request.file_id)
        slot = state.tree.slot_of_item(request.item_id)
        return msg.DeleteChallenge(
            mt=state.tree.mt_view(slot),
            ciphertext=state.ciphertexts.get(request.item_id),
            balance=state.tree.balance_view(),
            tree_version=state.version,
        )

    @staticmethod
    def _checked_cut(tree: ModulationTree, item_id: int,
                     cut_slots: Sequence[int]) -> int:
        """The item's leaf slot, once ``cut_slots`` is checked as its cut."""
        slot = tree.slot_of_item(item_id)
        expected_cut = tuple(s ^ 1 for s in tree.path_slots(slot)[1:])
        if tuple(cut_slots) != expected_cut:
            raise ReproError("cut slots do not match the item's path")
        return slot

    def _on_delete_commit(self, request: msg.DeleteCommit) -> msg.Message:
        state = self.file_state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        slot = self._checked_cut(state.tree, request.item_id,
                                 request.cut_slots)
        # The commit carries its one move's fields itself.
        return self._commit_deletion(state, (request.item_id,), [slot],
                                     request.cut_slots, request.deltas,
                                     (request,))

    def _on_batch_delete_request(self,
                                 request: msg.BatchDeleteRequest) -> msg.Message:
        state = self.file_state(request.file_id)
        if not request.item_ids:
            raise ReproError("empty batch")
        if len(set(request.item_ids)) != len(request.item_ids):
            raise ReproError("batch item ids must be distinct")
        tree = state.tree
        view = tree.batch_view(tree.slots_of_items(request.item_ids))
        ciphertexts = tuple(state.ciphertexts.get_many(request.item_ids))
        return msg.BatchDeleteReply(n_leaves=view.n_leaves,
                                    target_slots=view.target_slots,
                                    links=view.links,
                                    leaf_mods=view.leaf_mods,
                                    ciphertexts=ciphertexts,
                                    tree_version=state.version)

    def _on_batch_delete_commit(self,
                                request: msg.BatchDeleteCommit) -> msg.Message:
        state = self.file_state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since batch view")
        item_ids = request.item_ids
        if not item_ids:
            raise ReproError("empty batch")
        if len(set(item_ids)) != len(item_ids):
            raise ReproError("batch item ids must be distinct")
        if len(request.moves) != len(item_ids):
            raise ReproError("one rebalancing move per deleted item required")
        slots = state.tree.slots_of_items(item_ids)
        # The cut is derived, not trusted: same canonical order as the
        # client's compute_deltas_multi.
        return self._commit_deletion(state, item_ids, slots,
                                     ModulationTree.union_cut_slots(slots),
                                     request.deltas, request.moves)

    @staticmethod
    def _commit_deletion(state: ServerFile, item_ids: Sequence[int],
                         slots: Sequence[int], cut_slots: Sequence[int],
                         deltas: Sequence[bytes],
                         moves: Sequence) -> msg.Ack:
        """Delete ``item_ids`` in order: check the whole commit, then apply.

        ``slots`` are the items' leaf slots and ``cut_slots`` their
        checked cut.  Every balancing move is dry-run
        (:meth:`~repro.core.tree.ModulationTree.check_deletions`) before
        the deltas touch the tree, so a refused commit changes nothing
        -- Theorem 1 (no other item's key changes) needs exactly that.
        """
        tree = state.tree
        targets = tree.check_deletions(slots, moves)
        tree.apply_deltas(cut_slots, deltas)
        for item_id, slot, move in zip(item_ids, targets, moves):
            tree.delete_leaf(slot, move.x_s_prime, move.dest_link,
                             move.dest_leaf)
            state.ciphertexts.delete(item_id)
        state.version += 1
        return msg.Ack(tree_version=state.version)

    def _on_replace_commit(self, request: msg.ReplaceCommit) -> msg.Message:
        """Deltas as for a deletion, then a fresh record in the same leaf.

        No balancing and no split: the slot is re-pointed from the old
        item id to ``new_item_id`` and the old ciphertext is dropped.
        """
        state = self.file_state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        tree = state.tree
        self._checked_cut(tree, request.item_id, request.cut_slots)
        if tree.has_item(request.new_item_id):
            raise ReproError(f"item id {request.new_item_id} already present")
        tree.apply_deltas(request.cut_slots, request.deltas)
        tree.replace_item(request.item_id, request.new_item_id)
        state.ciphertexts.delete(request.item_id)
        state.ciphertexts.put(request.new_item_id, request.ciphertext)
        state.version += 1
        return msg.Ack(tree_version=state.version, item_id=request.new_item_id)

    def _on_insert_request(self, request: msg.InsertRequest) -> msg.Message:
        state = self.file_state(request.file_id)
        return msg.InsertChallenge(path=state.tree.insert_view(),
                                   tree_version=state.version)

    def _on_insert_commit(self, request: msg.InsertCommit) -> msg.Message:
        state = self.file_state(request.file_id)
        if request.tree_version != state.version:
            return msg.ErrorReply(code=msg.E_STALE_STATE,
                                  detail="tree changed since challenge")
        state.tree.insert_leaf(request.item_id, request.t_new_link,
                               request.t_new_leaf, request.e_link,
                               request.e_leaf)
        state.ciphertexts.put(request.item_id, request.ciphertext)
        state.version += 1
        return msg.Ack(tree_version=state.version, item_id=request.item_id)

    def _on_fetch_file(self, request: msg.FetchFileRequest) -> msg.Message:
        state = self.file_state(request.file_id)
        tree = state.tree
        links, leaves = tree.modulator_values()
        item_ids = tree.item_ids()
        ciphertexts = tuple(state.ciphertexts.get_many(item_ids))
        return msg.FetchFileReply(n_leaves=tree.leaf_count,
                                  item_ids=tuple(item_ids),
                                  links=tuple(links), leaves=tuple(leaves),
                                  ciphertexts=ciphertexts,
                                  tree_version=state.version)

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
        registry = self._registry_lock
        registry.acquire(True, "registry")
        try:
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
        finally:
            registry.release(True)
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
        # representation, keeping the version.  drop_file first
        # clears any stale rows from a previous incarnation of the id.
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
        return finish

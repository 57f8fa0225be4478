"""A multi-file outsourced file system with outsourced master keys.

This is the deployment shape Section V describes: many files, each with
its own modulation tree and master key; the master keys live in meta
modulation trees on the server; the client keeps one control key per
*group* of files.  Groups default to the first path component of the
file name (a directory), mirroring the paper's "divide the master keys of
all files into groups based on the directory structure".

Every data-plane byte and hash flows through the same metered client as
the single-file scheme, so file-system operations show up in the metrics
with their full two-level cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.client.client import AssuredDeletionClient
from repro.core.errors import ReproError, StaleStateError, UnknownItemError
from repro.core.meta import MetaKeyManager
from repro.core.params import Params
from repro.crypto.rng import RandomSource, SystemRandom
from repro.fs.indexing import ItemIndex, Located
from repro.obs import runtime as obs
from repro.obs.trace import span
from repro.protocol.channel import Channel, LoopbackChannel
from repro.server.server import CloudServer
from repro.sim.metrics import MetricsCollector


def _traced_fs(op: str):
    """Wrap a file-level operation in a span named ``fs.<op>``.

    The span carries the file name, so a two-level operation (data tree
    plus meta tree) shows up as one ``fs.*`` root over its ``client.*``
    and ``rpc.request`` children.  No-op while observability is off.
    """
    def decorate(fn):
        name = "fs." + op

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not obs.enabled:
                return fn(self, *args, **kwargs)
            with span(name, file=self.name):
                return fn(self, *args, **kwargs)
        return wrapper
    return decorate


def directory_group(name: str) -> str:
    """Default grouping policy: the first path component."""
    name = name.strip("/")
    if "/" in name:
        return name.split("/", 1)[0]
    return ""


@dataclass
class FileRecord:
    """Client-side bookkeeping for one outsourced file."""

    name: str
    file_id: int
    group: str
    index: ItemIndex = field(default_factory=ItemIndex)


class _OpenedReplace:
    """Key source of a record deletion: opening the meta-tree replacement
    yields the master key (the client calls it in the flight of its own
    challenge), and the ticket waits here for the replacement commit."""

    def __init__(self, meta: MetaKeyManager, file_id: int) -> None:
        self._meta = meta
        self._file_id = file_id
        self._ticket = None

    def __call__(self) -> bytes:
        self._ticket, key = self._meta.open_replace(self._file_id)
        return key

    def commit(self, new_master_key: bytes) -> None:
        self._meta.replace_master_key(self._file_id, new_master_key,
                                      self._ticket)


class OutsourcedFile:
    """Handle for record-level operations on one outsourced file.

    Every record op is two-level (Section V): its client op is handed a
    key source, so the meta-tree request and the data tree's first
    request go out in one flight (``docs/PROTOCOL.md``, "Flights").
    """

    def __init__(self, fs: "OutsourcedFileSystem", record: FileRecord) -> None:
        self._fs = fs
        self._record = record

    @property
    def name(self) -> str:
        return self._record.name

    @property
    def file_id(self) -> int:
        return self._record.file_id

    @property
    def record_count(self) -> int:
        return len(self._record.index)

    @property
    def size_bytes(self) -> int:
        return self._record.index.total_size

    def _meta(self) -> MetaKeyManager:
        return self._fs._group_manager(self._record.group)

    def _master_key(self):
        """Key source for a record op: the client fetches the master key
        through the meta tree in one flight with its own first request."""
        return functools.partial(self._meta().master_key,
                                 self._record.file_id)

    @_traced_fs("read_record")
    def read_record(self, position: int) -> bytes:
        """Read the record at logical ``position``."""
        item_id = self._record.index.item_id_at(position)
        return self._fs.client.access(self._record.file_id,
                                      self._master_key(), item_id)

    @_traced_fs("write_record")
    def write_record(self, position: int, data: bytes) -> None:
        """Replace the record at logical ``position`` (same data key)."""
        item_id = self._record.index.item_id_at(position)
        self._fs.client.modify(self._record.file_id, self._master_key(),
                               item_id, data)
        self._record.index.update_size(position, len(data))

    @_traced_fs("insert_record")
    def insert_record(self, position: int, data: bytes) -> int:
        """Insert a new record before logical ``position``; returns its id."""
        item_id = self._fs.client.insert(self._record.file_id,
                                         self._master_key(), data)
        self._record.index.insert(position, item_id, len(data))
        return item_id

    def append_record(self, data: bytes) -> int:
        """Append a record at the end of the file; returns its id."""
        return self.insert_record(len(self._record.index), data)

    @_traced_fs("delete_record")
    def delete_record(self, position: int) -> None:
        """Assuredly delete the record at logical ``position``.

        Two steps, as Section V prescribes: delete the item's data key
        from the file's modulation tree (rotating the file's master key),
        then assuredly replace the master key in the meta tree.  Four
        messages in three flights: the meta challenge (which also yields
        the current master key) together with the data challenge, the
        data commit, and one meta ``ReplaceCommit``.  After a failure in
        transit, :meth:`resume_delete` finishes the job.
        """
        item_id = self._record.index.item_id_at(position)
        opened = _OpenedReplace(self._meta(), self._record.file_id)
        new_key = self._fs.client.delete(self._record.file_id, opened,
                                         item_id)
        opened.commit(new_key)
        self._record.index.remove(position)

    @_traced_fs("resume_delete")
    def resume_delete(self, position: int) -> None:
        """Finalise a :meth:`delete_record` whose commit failed in transit.

        If the data-tree commit is journalled, it is replayed
        byte-for-byte (if it already applied, the replay cache or the
        tree says so) and the master key is then replaced in the meta
        tree; a replay refused as stale, with the tree showing the
        commit unapplied, runs :meth:`delete_record` afresh.  Otherwise
        the journalled meta ``ReplaceCommit`` is replayed.  Either way
        the record is deleted exactly once.
        """
        item_id = self._record.index.item_id_at(position)
        client = self._fs.client
        self._resume(
            [position],
            client.pending_commit(self.file_id, item_id) is not None,
            lambda: client.resume_delete(self.file_id, item_id),
            lambda: self.delete_record(position))

    @_traced_fs("resume_delete_many")
    def resume_delete_many(self, positions: Sequence[int]) -> None:
        """Finalise a batched deletion whose commit raised or lost its Ack.

        Same recovery as :meth:`resume_delete`, for :meth:`delete_many`.
        Per-shard recovery for a cross-shard fan-out: each file resumes
        against its own shard independently.
        """
        positions = list(positions)
        item_ids = tuple(self._record.index.item_id_at(position)
                         for position in positions)
        client = self._fs.client
        self._resume(
            positions,
            (self.file_id, item_ids) in client.pending_batch_deletes(),
            lambda: client.resume_delete_many(self.file_id, item_ids),
            lambda: self.delete_many(positions))

    def _resume(self, positions: Sequence[int], journalled: bool,
                resend: Callable[[], bytes],
                redo: Callable[[], None]) -> None:
        """Finish a record deletion: with the data-tree commit
        ``journalled``, ``resend`` it and replace the master key in the
        meta tree with the key it returns; otherwise resume the meta
        ``ReplaceCommit``.  Then drop ``positions`` from the index.

        A resend refused as stale, which the tree shows unapplied, can
        never apply (the tree moved on under the old key, e.g. by an
        insert), so ``redo`` runs the deletion again from a fresh
        challenge.  That is safe: the fresh challenge must decrypt-verify
        under the meta tree's current key before its commit overwrites
        the journal entry.  If the journalled commit did apply, the
        victims are gone or open only under the journalled key, so the
        challenge raises (:class:`~repro.core.errors.UnknownItemError`
        or :class:`~repro.core.errors.IntegrityError`) and that key stays
        journalled."""
        meta = self._meta()
        if journalled:
            try:
                new_key = resend()
            except StaleStateError:
                redo()
                return
            meta.replace_master_key(self.file_id, new_key)
        else:
            meta.resume_replace(self.file_id)
        # Highest first, so earlier removals don't shift the later ones.
        for position in sorted(positions, reverse=True):
            self._record.index.remove(position)

    @_traced_fs("delete_many")
    def delete_many(self, positions: Sequence[int]) -> None:
        """Assuredly delete the records at several logical positions.

        One batched exchange replaces per-record deletions: the file's
        master key rotates once and the meta tree is updated once, so a
        retention sweep over a file costs four messages in three flights
        end to end, as one :meth:`delete_record` does.
        """
        positions = list(positions)
        if not positions:
            return
        if len(set(positions)) != len(positions):
            raise ReproError("positions must be distinct")
        item_ids = [self._record.index.item_id_at(position)
                    for position in positions]
        opened = _OpenedReplace(self._meta(), self._record.file_id)
        new_key = self._fs.client.delete_many(self._record.file_id, opened,
                                              item_ids)
        opened.commit(new_key)
        # Remove positions highest-first so earlier removals don't shift
        # the later ones.
        for position in sorted(positions, reverse=True):
            self._record.index.remove(position)

    def locate(self, offset: int) -> Located:
        """Resolve a byte offset to its record (paper footnote 2)."""
        return self._record.index.locate(offset)

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at byte ``offset``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        pieces = []
        remaining = length
        while remaining > 0:
            try:
                located = self.locate(offset)
            except IndexError:
                break  # reading past end-of-file returns a short result
            data = self.read_record(located.position)
            chunk = data[located.offset_in_item:
                         located.offset_in_item + remaining]
            if not chunk:
                break
            pieces.append(chunk)
            offset += len(chunk)
            remaining -= len(chunk)
        return b"".join(pieces)

    def delete_at(self, offset: int) -> None:
        """Assuredly delete the record containing byte ``offset``."""
        self.delete_record(self.locate(offset).position)

    @_traced_fs("read_all")
    def read_all(self) -> list[bytes]:
        """Fetch the whole file, in logical record order."""
        key = self._meta().master_key(self._record.file_id)
        by_id = self._fs.client.fetch_file(self._record.file_id, key)
        return [by_id[item_id] for item_id, _size in
                self._record.index.records()]


class OutsourcedFileSystem:
    """Named files over one cloud server, with grouped control keys."""

    #: Meta files occupy ids below this; data files above it.
    _DATA_FILE_BASE = 1_000_000

    def __init__(self, channel: Channel | None = None,
                 params: Params | None = None,
                 rng: RandomSource | None = None,
                 metrics: MetricsCollector | None = None,
                 group_of: Callable[[str], str] = directory_group,
                 meta_id_base: int = 1,
                 file_id_base: int | None = None) -> None:
        """``meta_id_base``/``file_id_base`` partition the server's file-id
        space between tenants: several OutsourcedFileSystems sharing one
        server (the concurrency stress harness, a multi-client deployment)
        pass disjoint bases so their meta and data trees never collide."""
        self.params = params if params is not None else Params()
        if channel is None:
            self.server: Optional[CloudServer] = CloudServer(self.params)
            channel = LoopbackChannel(self.server)
        else:
            self.server = None
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.client = AssuredDeletionClient(
            channel, self.params,
            rng=rng if rng is not None else SystemRandom(),
            metrics=self.metrics, store_keys=False)
        self._group_of = group_of
        self._groups: dict[str, MetaKeyManager] = {}
        self._files: dict[str, FileRecord] = {}
        if file_id_base is None:
            file_id_base = self._DATA_FILE_BASE
        if not 1 <= meta_id_base < file_id_base:
            raise ReproError("meta_id_base must be >= 1 and below "
                             "file_id_base")
        self._next_meta_id = meta_id_base
        self._next_file_id = file_id_base

    @classmethod
    def connect(cls, address: tuple[str, int],
                params: Params | None = None,
                rng: RandomSource | None = None,
                metrics: MetricsCollector | None = None,
                group_of: Callable[[str], str] = directory_group,
                retry: "RetryPolicy | None" = None) -> "OutsourcedFileSystem":
        """Open a file system against a remote TCP server.

        ``retry`` configures the transport's per-request timeout and
        exponential-backoff retransmits (safe: mutating requests carry
        idempotent request ids the server dedupes on).
        """
        from repro.protocol.tcp import RetryPolicy, TcpChannel
        from repro.protocol.wire import WireContext
        params = params if params is not None else Params()
        channel = TcpChannel(
            address, WireContext(modulator_width=params.modulator_size),
            retry=retry if retry is not None else RetryPolicy())
        return cls(channel, params=params, rng=rng, metrics=metrics,
                   group_of=group_of)

    @classmethod
    def connect_sharded(cls, addresses: Sequence[tuple[str, int]],
                        params: Params | None = None,
                        rng: RandomSource | None = None,
                        metrics: MetricsCollector | None = None,
                        group_of: Callable[[str], str] = directory_group,
                        retry: "RetryPolicy | None" = None,
                        vnodes: int | None = None,
                        meta_id_base: int = 1,
                        file_id_base: int | None = None,
                        ) -> "OutsourcedFileSystem":
        """Open a file system against a sharded serving tier.

        ``addresses`` lists one host per shard, indexed by shard id (the
        order ``serve --shards N`` prints them).  Every file resolves to
        its shard transparently through the consistent-hash ring; the
        client sees one logical server.  ``meta_id_base``/
        ``file_id_base`` partition the id space exactly as in the
        constructor (several clients sharing one cluster pass disjoint
        bases).
        """
        from repro.fs.sharding import (DEFAULT_VNODES, ShardMap,
                                       ShardRoutingChannel)
        from repro.protocol.wire import WireContext
        params = params if params is not None else Params()
        ctx = WireContext(modulator_width=params.modulator_size)
        vnodes = vnodes if vnodes is not None else DEFAULT_VNODES
        shard_map = ShardMap.tcp(addresses, ctx, retry=retry, vnodes=vnodes)
        return cls(ShardRoutingChannel(shard_map), params=params, rng=rng,
                   metrics=metrics, group_of=group_of,
                   meta_id_base=meta_id_base, file_id_base=file_id_base)

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    @property
    def router(self):
        """The routing channel, or ``None`` against a single server."""
        from repro.fs.sharding import ShardRoutingChannel
        channel = self.client.channel
        return channel if isinstance(channel, ShardRoutingChannel) else None

    def shard_of(self, name: str) -> Optional[int]:
        """Which shard holds ``name``'s data tree (``None`` unsharded)."""
        record = self._files.get(name)
        if record is None:
            raise UnknownItemError(f"no such file {name!r}")
        router = self.router
        return None if router is None else router.shard_of(record.file_id)

    def delete_records(self, batches: Mapping[str, Sequence[int]]) -> dict:
        """Assuredly delete records from several files in one fan-out.

        ``batches`` maps file names to logical positions.  Files are
        grouped by owning shard and each file's deletion commits
        atomically against its own shard (one batched two-phase
        exchange + one meta-tree key replacement); shard groups execute
        in deterministic order (shard id, then name) and the replies are
        merged into ``{shard_id: ShardOutcome}``.

        A partial failure raises :class:`ShardFanoutError` carrying the
        per-shard outcomes: committed files stay committed (per-shard
        atomicity), and each failed file recovers independently through
        the client's deletion journal
        (:meth:`OutsourcedFile.resume_delete_many`) once its shard is
        reachable again.
        """
        from repro.fs.sharding import ShardFanoutError, ShardOutcome
        plan: dict[Optional[int], list[tuple[str, list[int]]]] = {}
        for name, positions in batches.items():
            if name not in self._files:
                raise UnknownItemError(f"no such file {name!r}")
            plan.setdefault(self.shard_of(name), []).append(
                (name, list(positions)))
        outcomes: dict[Optional[int], ShardOutcome] = {}
        failed = False
        order = sorted(plan, key=lambda s: -1 if s is None else s)
        for shard_id in order:
            outcome = ShardOutcome(shard_id=shard_id)
            for name, positions in sorted(plan[shard_id]):
                try:
                    self.open(name).delete_many(positions)
                except Exception as exc:
                    outcome.failed[name] = \
                        f"{type(exc).__name__}: {exc}"
                    failed = True
                else:
                    outcome.committed.append(name)
            outcomes[shard_id] = outcome
        if failed:
            raise ShardFanoutError(outcomes)
        return outcomes

    # ------------------------------------------------------------------
    # Groups
    # ------------------------------------------------------------------

    def _group_manager(self, group: str) -> MetaKeyManager:
        manager = self._groups.get(group)
        if manager is None:
            meta_id = self._next_meta_id
            self._next_meta_id += 1
            manager = MetaKeyManager(self.client, meta_id,
                                     control_key_name=f"control:{group}")
            manager.initialize()
            self._groups[group] = manager
        return manager

    def group_manager_of(self, name: str) -> MetaKeyManager:
        """The meta-key manager holding ``name``'s master key."""
        record = self._files.get(name)
        group = record.group if record is not None else self._group_of(name)
        return self._group_manager(group)

    def control_key_count(self) -> int:
        """How many keys the client actually stores (Section V's point)."""
        return len(self._groups)

    def client_key_bytes(self) -> int:
        """Total client key storage in bytes."""
        return self.client.keystore.key_bytes_stored()

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------

    def create_file(self, name: str,
                    records: Sequence[bytes] = ()) -> OutsourcedFile:
        """Outsource ``records`` as a new named file."""
        if not obs.enabled:
            return self._create_file(name, records)
        with span("fs.create_file", file=name, records=len(records)):
            return self._create_file(name, records)

    def _create_file(self, name: str,
                     records: Sequence[bytes]) -> OutsourcedFile:
        if name in self._files:
            raise ReproError(f"file {name!r} already exists")
        group = self._group_of(name)
        manager = self._group_manager(group)

        file_id = self._next_file_id
        self._next_file_id += 1
        master_key = self.client.outsource(file_id, list(records))
        item_ids = self.client.item_ids_of(len(records))
        manager.register(file_id, master_key)

        record = FileRecord(name=name, file_id=file_id, group=group)
        for item_id, data in zip(item_ids, records):
            record.index.append(item_id, len(data))
        self._files[name] = record
        return OutsourcedFile(self, record)

    def open(self, name: str) -> OutsourcedFile:
        record = self._files.get(name)
        if record is None:
            raise UnknownItemError(f"no such file {name!r}")
        return OutsourcedFile(self, record)

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def delete_file(self, name: str) -> None:
        """Assured whole-file deletion: shred its master key in the meta tree."""
        if not obs.enabled:
            return self._delete_file(name)
        with span("fs.delete_file", file=name):
            return self._delete_file(name)

    def _delete_file(self, name: str) -> None:
        # The name stays bound until every step is acknowledged, so a
        # call that failed in transit can be repeated until it succeeds.
        record = self._files.get(name)
        if record is None:
            raise UnknownItemError(f"no such file {name!r}")
        manager = self._group_manager(record.group)
        if manager.manages(record.file_id):
            manager.remove(record.file_id)
        self.client.delete_file_state(record.file_id)
        del self._files[name]

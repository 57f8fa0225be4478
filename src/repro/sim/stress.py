"""Deterministically-seeded concurrency stress harness.

Runs ``workers`` client threads against a shard cluster of ``shards``
independent server instances (one by default) -- over loopback
channels, or a TCP host per shard reached through untagged or pipelined
channels -- each thread driving its own
:class:`~repro.fs.filesystem.OutsourcedFileSystem` tenant (disjoint
file-id space, own keys) through a randomized mix of put / read / modify
/ insert / delete / batch-delete / drop operations, while optional
*foreign reader* threads hammer raw ``AccessRequest``/``FetchFileRequest``
messages at every file id the tenants publish.  That shape maximises
contention on exactly the structures the per-vault locking protects: the
file registry (concurrent outsource/drop), per-file locks (reads racing
commits), the shared WAL append path, and the replay cache.

Everything random derives from ``StressConfig.seed``: per-worker op
sequences, record contents, and client randomness (modulators, request
ids) are exact functions of the seed, so a failing run reproduces by
seed alone (thread *interleavings* still vary -- the invariants below
must hold for every interleaving).

After the workers join, the harness verifies linearizability-style
invariants:

1. **version accounting** -- every surviving tree's version equals the
   number of version-bumping commits the model applied to it (and the
   server holds exactly the files the model says survive);
2. **distinct modulators** -- every live tree on every shard holds
   pairwise-distinct modulator values, as the paper requires (the
   server keeps no table of them; the client refuses any view that
   breaks the rule, and this is where a collision is detected);
3. **surviving data decrypts** -- every live file reads back equal to
   the model, through the full two-level key derivation under the final
   master/control keys;
4. **cross-shard placement** -- every live file lives on exactly the
   shard the consistent-hash ring assigns it, and on no other (requests
   were routed correctly and no state leaked between shards);
5. **Theorem 2** -- every deleted item resists the paper's full recovery
   procedure at both levels: the data-tree attack (every historical
   server state plus the final master keys) fails on deleted records,
   and the meta-tree attack (every historical meta state plus the seized
   control keys) fails on shredded master keys -- while live items and
   live master keys remain recoverable (soundness controls);
6. **WAL replay** -- re-executing each shard's write-ahead log from an
   empty server (or, for engine-backed runs, from a copy of the engine
   snapshot plus the WAL tail left by mid-run compaction) reproduces
   that shard's exact per-file state, byte for byte (modulators, item
   maps, ciphertexts, versions);
7. **audit chain** -- each shard's commit log is its audit chain: the
   sealed archive plus the live log verify end to end (CRC frames, hash
   chain across every compaction, head anchor); every request frame
   has exactly one outcome frame, and a file's outcomes follow its
   requests in order (matching the decoded request where the payload
   is still live); and a file's consecutive successful outcomes chain
   ``version_after`` to ``version_before`` -- the evidence trail matches
   what was actually committed.

With ``backend`` set to ``sqlite``, every shard pages its
files from a storage engine and a compactor thread races
``compact_storage`` (flush + WAL truncation) against the workers.

Any violation raises :class:`InvariantViolation` naming the invariant.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.fs.sharding import ShardRoutingChannel
from repro.obs import audit as audit_mod
from repro.protocol import messages as msg
from repro.server.cluster import TRANSPORTS, ShardCluster
from repro.server.engine import BACKENDS, SQLiteTreeStore
from repro.server.server import CloudServer
from repro.server.wal import CommitLog, recover_server
from repro.sim.threat import Adversary, snapshot_file

#: Version bumps per model operation (data tree, meta tree).  A record
#: deletion rotates the data tree once and assuredly replaces the master
#: key in the meta tree (one ``ReplaceCommit``); see
#: :meth:`repro.core.meta.MetaKeyManager.replace_master_key`.
_BUMPS = {
    "create": (0, 1),        # register = one meta insert
    "read": (0, 0),
    "read_all": (0, 0),
    "modify": (0, 0),        # same data key, no version bump
    "insert": (1, 0),
    "delete": (1, 1),
    "batch_delete": (1, 1),
    "drop": (0, 1),          # remove = one meta delete
}


class InvariantViolation(AssertionError):
    """A stress-run invariant did not hold."""


@dataclass(frozen=True)
class StressConfig:
    """Knobs for one seeded stress run (all derived state is a function
    of ``seed``)."""

    seed: str = "stress"
    workers: int = 4
    ops_per_worker: int = 16
    files_per_worker: int = 2
    min_records: int = 3
    max_records: int = 8
    transport: str = "loopback"  # "loopback" | "tcp"
    #: Independent server shards behind the consistent-hash router.
    #: Every transport routes through the ring even at ``shards=1``,
    #: so the op mix is identical across shard counts for one seed.
    shards: int = 1
    readers: int = 1
    verify_theorem2: bool = True
    wal_dir: str | None = None
    #: ``memory`` keeps each shard's state in its server; ``sqlite``
    #: puts a SQLite engine behind every shard and runs a compactor
    #: thread that repeatedly flushes dirty state and truncates each
    #: shard's WAL *while the workers mutate*, so the
    #: invariants below also prove compaction is correctness-invisible
    #: (engine snapshot + WAL tail always reproduces live state).
    backend: str = "memory"

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.workers < 1 or self.ops_per_worker < 1:
            raise ValueError("workers and ops_per_worker must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not 1 <= self.min_records <= self.max_records:
            raise ValueError("need 1 <= min_records <= max_records")


@dataclass
class StressReport:
    """What one run did and verified."""

    config: StressConfig
    ops: dict[str, int] = field(default_factory=dict)
    foreign_reads: int = 0
    files_created: int = 0
    files_dropped: int = 0
    items_deleted: int = 0
    invariants: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    wal_records: int = 0
    audit_records: int = 0
    wal_compactions: int = 0

    def summary(self) -> dict:
        return {
            "seed": self.config.seed,
            "transport": self.config.transport,
            "backend": self.config.backend,
            "shards": self.config.shards,
            "workers": self.config.workers,
            "ops": dict(sorted(self.ops.items())),
            "foreign_reads": self.foreign_reads,
            "files_created": self.files_created,
            "files_dropped": self.files_dropped,
            "items_deleted": self.items_deleted,
            "wal_records": self.wal_records,
            "audit_records": self.audit_records,
            "wal_compactions": self.wal_compactions,
            "invariants": self.invariants,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


class _Tenant:
    """One worker thread's world: a file system plus its model."""

    #: Meta-id head-room per tenant (one group per tenant in practice).
    _META_STRIDE = 1_000
    _FILE_STRIDE = 1_000_000

    def __init__(self, index: int, config: StressConfig,
                 cluster: ShardCluster, channel) -> None:
        self.index = index
        self.config = config
        self.cluster = cluster
        self.ops = random.Random(f"{config.seed}/ops/{index}")
        self.fs = OutsourcedFileSystem(
            channel=channel,
            rng=DeterministicRandom(f"{config.seed}/client/{index}"),
            meta_id_base=1 + index * self._META_STRIDE,
            file_id_base=self._FILE_STRIDE * (index + 1))
        #: name -> list of current plaintext records (the model).
        self.model: dict[str, list[bytes]] = {}
        #: file name -> server file id.
        self.file_ids: dict[str, int] = {}
        #: file id -> expected tree version (data and meta files alike).
        self.expected_version: dict[int, int] = {}
        #: data file id -> the Theorem-2 adversary watching it.
        self.adversaries: dict[int, Adversary] = {}
        #: meta file id -> the adversary watching the meta tree.
        self.meta_adversaries: dict[int, Adversary] = {}
        #: meta file id -> meta item ids whose master keys were shredded.
        self.meta_killed: dict[int, list[int]] = {}
        #: data file id -> [(item_id, plaintext)] assuredly deleted.
        self.killed: dict[int, list[tuple[int, bytes]]] = {}
        #: file ids of dropped (whole-file-deleted) files.
        self.dropped: list[int] = []
        self.counts: dict[str, int] = {}
        self.error: BaseException | None = None
        self._record_serial = 0

    # -- model bookkeeping ---------------------------------------------

    def _manager(self, name: str):
        return self.fs.group_manager_of(name)

    def _bump(self, op: str, name: str) -> None:
        data_bump, meta_bump = _BUMPS[op]
        file_id = self.file_ids[name]
        self.expected_version[file_id] = (
            self.expected_version.get(file_id, 0) + data_bump)
        meta_id = self._manager(name).meta_file_id
        self.expected_version[meta_id] = (
            self.expected_version.get(meta_id, 0) + meta_bump)
        self.counts[op] = self.counts.get(op, 0) + 1

    def _observe(self, name: str, meta: bool = False,
                 data: bool = True) -> None:
        """Give the adversaries the server state after an operation (the
        threat model's continuous server compromise)."""
        if not self.config.verify_theorem2:
            return
        if data:
            file_id = self.file_ids.get(name)
            if file_id is not None and file_id in self.adversaries:
                self.adversaries[file_id].observe(snapshot_file(
                    self.cluster.server_for(file_id), file_id))
        if meta:
            meta_id = self._manager(name).meta_file_id
            adversary = self.meta_adversaries.get(meta_id)
            if adversary is None:
                adversary = Adversary(params=self.fs.params)
                self.meta_adversaries[meta_id] = adversary
            adversary.observe(snapshot_file(
                self.cluster.server_for(meta_id), meta_id))

    def _note_meta_replacement(self, name: str, old_meta_item: int) -> None:
        """A master-key record was assuredly deleted from the meta tree."""
        meta_id = self._manager(name).meta_file_id
        self.meta_killed.setdefault(meta_id, []).append(old_meta_item)

    def _fresh_record(self) -> bytes:
        self._record_serial += 1
        return (f"t{self.index}-r{self._record_serial}-"
                f"{self.ops.getrandbits(32):08x}").encode()

    # -- operations -----------------------------------------------------

    def _op_create(self) -> None:
        name = f"f{self.index}-{len(self.file_ids) + len(self.dropped)}"
        records = [self._fresh_record() for _ in range(
            self.ops.randint(self.config.min_records,
                             self.config.max_records))]
        handle = self.fs.create_file(name, records)
        self.model[name] = list(records)
        self.file_ids[name] = handle.file_id
        self.expected_version[handle.file_id] = 0
        self.killed.setdefault(handle.file_id, [])
        if self.config.verify_theorem2:
            self.adversaries[handle.file_id] = Adversary(
                params=self.fs.params)
        self._bump("create", name)
        self._observe(name, meta=True)

    def _op_read(self, name: str) -> None:
        position = self.ops.randrange(len(self.model[name]))
        data = self.fs.open(name).read_record(position)
        if data != self.model[name][position]:
            raise InvariantViolation(
                f"read returned {data!r}, model has "
                f"{self.model[name][position]!r}")
        self._bump("read", name)

    def _op_read_all(self, name: str) -> None:
        data = self.fs.open(name).read_all()
        if data != self.model[name]:
            raise InvariantViolation(f"read_all mismatch on {name!r}")
        self._bump("read_all", name)

    def _op_modify(self, name: str) -> None:
        position = self.ops.randrange(len(self.model[name]))
        value = self._fresh_record()
        self.fs.open(name).write_record(position, value)
        self.model[name][position] = value
        self._bump("modify", name)
        self._observe(name)

    def _op_insert(self, name: str) -> None:
        value = self._fresh_record()
        self.fs.open(name).append_record(value)
        self.model[name].append(value)
        self._bump("insert", name)
        self._observe(name)

    def _delete_positions(self, name: str, positions: list[int]) -> None:
        handle = self.fs.open(name)
        file_id = self.file_ids[name]
        index = handle._record.index
        for position in positions:
            self.killed[file_id].append((index.item_id_at(position),
                                         self.model[name][position]))
        old_meta_item = self._manager(name).meta_item_of(file_id)
        if len(positions) == 1:
            handle.delete_record(positions[0])
        else:
            handle.delete_many(positions)
        self._note_meta_replacement(name, old_meta_item)
        for position in sorted(positions, reverse=True):
            del self.model[name][position]

    def _op_delete(self, name: str) -> None:
        self._delete_positions(name, [self.ops.randrange(
            len(self.model[name]))])
        self._bump("delete", name)
        self._observe(name, meta=True)

    def _op_batch_delete(self, name: str) -> None:
        count = min(len(self.model[name]), self.ops.randint(2, 3))
        positions = self.ops.sample(range(len(self.model[name])), count)
        self._delete_positions(name, positions)
        self._bump("batch_delete", name)
        self._observe(name, meta=True)

    def _op_drop(self, name: str) -> None:
        file_id = self.file_ids[name]
        index = self.fs.open(name)._record.index
        for position, value in enumerate(self.model[name]):
            self.killed[file_id].append((index.item_id_at(position), value))
        old_meta_item = self._manager(name).meta_item_of(file_id)
        # Final pre-drop snapshot: the adversary holds the last state in
        # which the file's ciphertexts still existed.
        self._observe(name, meta=True)
        self._bump("drop", name)  # account before the entries vanish
        self.fs.delete_file(name)
        self._note_meta_replacement(name, old_meta_item)
        self._observe(name, meta=True, data=False)  # post-drop meta state
        self.dropped.append(file_id)
        del self.model[name]
        del self.file_ids[name]
        self.expected_version.pop(file_id, None)

    # -- the seeded run -------------------------------------------------

    def run(self, published: list[int], publish_lock: threading.Lock) -> None:
        try:
            for _ in range(self.config.files_per_worker):
                self._op_create()
            with publish_lock:
                published.extend(self.file_ids.values())
            for _ in range(self.config.ops_per_worker):
                self._step()
        except BaseException as exc:  # surfaced by the harness
            self.error = exc

    def _step(self) -> None:
        names = [n for n in self.model if self.model[n]]
        if not names:
            self._op_create()
            return
        name = self.ops.choice(sorted(names))
        roll = self.ops.random()
        if roll < 0.30:
            self._op_read(name)
        elif roll < 0.40:
            self._op_read_all(name)
        elif roll < 0.55:
            self._op_modify(name)
        elif roll < 0.67:
            self._op_insert(name)
        elif roll < 0.82:
            self._op_delete(name)
        elif roll < 0.92 and len(self.model[name]) >= 2:
            self._op_batch_delete(name)
        elif roll < 0.97 and len(self.model) > 1:
            self._op_drop(name)
        else:
            self._op_insert(name)


def _foreign_reader(index: int, seed: str, make_channel, published: list[int],
                    publish_lock: threading.Lock, stop: threading.Event,
                    counts: list[int], errors: list[BaseException]) -> None:
    """Hammer raw read requests at other tenants' files.

    The reader holds no keys, so it can only exercise the server's shared
    locks and wire paths; any reply -- data or error -- is acceptable, a
    transport failure is not.
    """
    rng = random.Random(f"{seed}/reader/{index}")
    channel = make_channel()
    done = 0
    try:
        while not stop.is_set():
            with publish_lock:
                targets = list(published)
            if not targets:
                time.sleep(0.001)
                continue
            file_id = rng.choice(targets)
            if rng.random() < 0.5:
                reply = channel.request(msg.AccessRequest(
                    file_id=file_id, item_id=rng.randrange(1, 64)))
            else:
                reply = channel.request(msg.FetchFileRequest(file_id=file_id))
            if not isinstance(reply, (msg.AccessReply, msg.FetchFileReply,
                                      msg.ErrorReply)):
                raise InvariantViolation(
                    f"foreign read got {type(reply).__name__}")
            done += 1
    except BaseException as exc:
        errors.append(exc)
    finally:
        counts[index] = done
        close = getattr(channel, "close", None)
        if close is not None:
            close()


def _file_fingerprint(server: CloudServer, file_id: int):
    """Everything the server holds for one file, in canonical form."""
    state = server.file_state(file_id)
    tree = state.tree
    item_ids = tree.item_ids()
    return (
        state.version,
        tree.leaf_count,
        tuple(tree.iter_modulators()),
        tuple(sorted((iid, tree.slot_of_item(iid)) for iid in item_ids)),
        tuple(sorted((iid, state.ciphertexts.get(iid)) for iid in item_ids)),
    )


def run_stress(config: StressConfig) -> StressReport:
    """Run one seeded stress iteration and verify every invariant.

    Returns the :class:`StressReport` on success; raises
    :class:`InvariantViolation` (or the first worker exception) on
    failure.
    """
    report = StressReport(config=config)
    start = time.perf_counter()

    # Every shard is an isolated server + WAL-as-audit-chain; routing to
    # it goes through the consistent-hash ring regardless of transport.
    # Concurrent mutators coalesce into shared fsyncs, with the usual
    # per-shard WAL-replay invariant still checked at the end.
    wal_dir = config.wal_dir or tempfile.mkdtemp(prefix="repro-stress-")
    cluster = ShardCluster(
        config.shards, transport=config.transport, data_dir=wal_dir,
        fresh=True, audit=True, storage_backend=config.backend,
        wal_factory=CommitLog)

    channels = []
    try:
        cluster.start()
        shard_map = cluster.shard_map()

        def make_channel():
            channel = ShardRoutingChannel(shard_map)
            channels.append(channel)
            return channel

        tenants = [_Tenant(i, config, cluster, make_channel())
                   for i in range(config.workers)]
        published: list[int] = []
        publish_lock = threading.Lock()
        stop = threading.Event()
        reader_counts = [0] * config.readers
        reader_errors: list[BaseException] = []

        threads = [threading.Thread(target=tenant.run,
                                    args=(published, publish_lock),
                                    name=f"stress-worker-{tenant.index}")
                   for tenant in tenants]
        readers = [threading.Thread(target=_foreign_reader,
                                    args=(i, config.seed, make_channel,
                                          published, publish_lock, stop,
                                          reader_counts, reader_errors),
                                    name=f"stress-reader-{i}")
                   for i in range(config.readers)]
        compactor = None
        compactor_errors: list[BaseException] = []
        if config.backend != "memory":
            # Repeatedly flush + WAL-compact every shard while the
            # workers mutate; the end-of-run invariants then prove the
            # engine snapshot + remaining WAL tail still reproduce the
            # live state exactly, whatever the interleaving.
            def _compact_loop() -> None:
                try:
                    while not stop.wait(0.02):
                        cluster.compact()
                except BaseException as exc:
                    compactor_errors.append(exc)
            compactor = threading.Thread(target=_compact_loop,
                                         name="stress-compactor")
        for thread in threads + readers + ([compactor] if compactor else []):
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        for thread in readers + ([compactor] if compactor else []):
            thread.join()

        for tenant in tenants:
            if tenant.error is not None:
                raise tenant.error
        if reader_errors:
            raise reader_errors[0]
        if compactor_errors:
            raise compactor_errors[0]

        _verify(cluster, tenants, report)

        for tenant in tenants:
            for count_op, count in tenant.counts.items():
                report.ops[count_op] = report.ops.get(count_op, 0) + count
            report.files_dropped += len(tenant.dropped)
            report.items_deleted += sum(len(v) for v in
                                        tenant.killed.values())
        report.files_created = report.ops.get("create", 0)
        report.foreign_reads = sum(reader_counts)
        report.wal_records = cluster.total_wal_records()
        report.audit_records = cluster.total_audit_records()
        report.wal_compactions = sum(
            unit.wal.compactions for unit in cluster.units
            if unit.wal is not None)
        report.elapsed_seconds = time.perf_counter() - start
        return report
    finally:
        for channel in channels:
            channel.close()
        cluster.stop()


def _verify(cluster: ShardCluster, tenants: list[_Tenant],
            report: StressReport) -> None:
    # 1. The cluster holds exactly the surviving files, at the exact
    #    versions the model predicts -- and no file id is resident on
    #    more than one shard.
    expected: dict[int, int] = {}
    for tenant in tenants:
        overlap = expected.keys() & tenant.expected_version.keys()
        if overlap:
            raise InvariantViolation(f"tenants shared file ids {overlap}")
        expected.update(tenant.expected_version)
    placement: dict[int, int] = {}
    for unit in cluster.units:
        for file_id in unit.server.file_ids():
            if file_id in placement:
                raise InvariantViolation(
                    f"file {file_id} resident on shards "
                    f"{placement[file_id]} and {unit.shard_id}")
            placement[file_id] = unit.shard_id
    live = set(placement)
    if live != set(expected):
        raise InvariantViolation(
            f"cluster holds files {sorted(live)}, model expects "
            f"{sorted(expected)}")
    for file_id, version in expected.items():
        actual = cluster.server_for(file_id).file_state(file_id).version
        if actual != version:
            raise InvariantViolation(
                f"file {file_id}: version {actual}, expected {version} "
                f"(lost or doubled commits)")
    report.invariants.append("version-accounting")

    # 2. Every live tree holds pairwise-distinct modulators.  The
    #    fingerprints are taken once, here, and reused by the WAL-replay
    #    comparison (6); nothing below mutates server state.
    fingerprints = {}
    for unit in cluster.units:
        for file_id in unit.server.file_ids():
            fingerprint = _file_fingerprint(unit.server, file_id)
            values = [value for _kind, _slot, value in fingerprint[2]]
            if len(set(values)) != len(values):
                raise InvariantViolation(
                    f"distinct-modulators: shard {unit.shard_id} file "
                    f"{file_id} holds a modulator value twice")
            fingerprints[file_id] = fingerprint
    report.invariants.append("distinct-modulators")

    # 3. Every surviving record decrypts to the model's plaintext under
    #    the final keys.
    for tenant in tenants:
        for name, records in tenant.model.items():
            data = tenant.fs.open(name).read_all()
            if data != records:
                raise InvariantViolation(
                    f"tenant {tenant.index} file {name!r}: surviving "
                    f"content diverged from the model")
    report.invariants.append("surviving-data-decrypts")

    # 4. Consistent-hash placement: every live file sits on exactly the
    #    shard the ring assigns it (routing never strayed, and no state
    #    migrated or leaked between shards).  Trivially true at
    #    shards=1, but checked unconditionally so the invariant list is
    #    identical across shard counts.
    for file_id in sorted(live):
        owner = cluster.shard_of(file_id)
        if placement[file_id] != owner:
            raise InvariantViolation(
                f"file {file_id} resident on shard {placement[file_id]}, "
                f"ring assigns shard {owner}")
    report.invariants.append("cross-shard-placement")

    # 5. Theorem 2 at both levels: deleted records and shredded master
    #    keys resist the recovery procedure; live ones fall to it (the
    #    soundness control that keeps the negative result meaningful).
    if all(tenant.config.verify_theorem2 for tenant in tenants):
        for tenant in tenants:
            _verify_theorem2(tenant)
        report.invariants.append("theorem2-deleted-unrecoverable")

    # 6. Replaying each shard's WAL from an empty server reproduces that
    #    shard's live state exactly -- and only that shard's files (a
    #    file's commits never land in a sibling's log).  Engine-backed
    #    shards recover from a *copy* of the engine file plus the WAL,
    #    exactly as a post-crash restart would: the engine snapshot (as
    #    of whatever mid-run compaction last ran) plus the WAL tail must
    #    still rebuild the live state byte for byte.  Copying mid-test
    #    is safe because the engine file only mutates inside
    #    ``compact_storage`` and the compactor thread has quiesced.
    for unit in cluster.units:
        unit.wal.sync()  # unsynced outcome frames land
    for unit in cluster.units:
        shard_live = {file_id for file_id, shard_id in placement.items()
                      if shard_id == unit.shard_id}
        tmp_engine = None
        if unit.engine is not None:
            copy_dir = tempfile.mkdtemp(prefix="repro-stress-verify-")
            wal_copy = os.path.join(copy_dir, "wal")
            engine_copy = os.path.join(
                copy_dir, os.path.basename(unit.engine_path))
            shutil.copy(unit.wal_path, wal_copy)
            shutil.copy(unit.engine_path, engine_copy)
            tmp_engine = SQLiteTreeStore(engine_copy)
            recovered = recover_server(wal_copy, engine=tmp_engine)
        else:
            recovered = recover_server(unit.wal_path)
        recovered_live = set(recovered.file_ids())
        if recovered_live != shard_live:
            raise InvariantViolation(
                f"shard {unit.shard_id}: WAL replay rebuilt files "
                f"{sorted(recovered_live)}, live shard has "
                f"{sorted(shard_live)}")
        for file_id in sorted(shard_live):
            if _file_fingerprint(recovered, file_id) != \
                    fingerprints[file_id]:
                raise InvariantViolation(
                    f"shard {unit.shard_id}: WAL replay diverged on "
                    f"file {file_id}")
        recovered.wal.close()
        if tmp_engine is not None:
            tmp_engine.close()
    report.invariants.append("wal-replay-reproduces-state")

    # 7. Each shard's commit log verifies as an audit chain (archive
    #    plus live log), every request frame carries exactly one outcome
    #    frame in per-file order, and a file's successful outcomes chain
    #    their versions.
    for unit in cluster.units:
        _verify_audit_chain(unit)
    report.invariants.append("audit-chain-matches-history")


def _verify_audit_chain(unit) -> None:
    shard = f"shard {unit.shard_id}"
    try:
        chain = audit_mod.verify_log(unit.audit_path, unit.wal_path)
    except audit_mod.AuditError as exc:
        raise InvariantViolation(f"{shard}: audit chain failed to verify: "
                                 f"{exc}")
    if chain.pending:
        raise InvariantViolation(
            f"{shard}: request frames {chain.pending[:5]} have no outcome "
            f"frame -- a mutation escaped the trail")
    last_request: dict[int, int] = {}
    last_version: dict[int, object] = {}
    for record in chain.records:
        file_id = record["file_id"]
        if record["req"] <= last_request.get(file_id, 0):
            raise InvariantViolation(
                f"{shard}: file {file_id}: outcome frame {record['seq']} "
                f"is out of its requests' order")
        last_request[file_id] = record["req"]
        payload = chain.requests[record["req"]]
        if payload is not None:
            request = msg.decode_message(unit.server.ctx, payload)
            if (type(request).__name__, request.file_id,
                    getattr(request, "request_id", 0)) != \
                    (record["op"], file_id, record["request_id"]):
                raise InvariantViolation(
                    f"{shard}: outcome frame {record['seq']} does not "
                    f"describe its request frame {record['req']}")
        if not record["ok"]:
            continue
        if file_id in last_version and \
                last_version[file_id] != record["version_before"]:
            raise InvariantViolation(
                f"{shard}: file {file_id}: outcome frame {record['seq']} "
                f"starts at version {record['version_before']}, the "
                f"previous one ended at {last_version[file_id]}")
        last_version[file_id] = record["version_after"]


def _verify_theorem2(tenant: _Tenant) -> None:
    """Both levels of the paper's deletion argument, per tenant.

    Data level: an adversary with every historical state of a data tree
    plus the file's FINAL master key cannot recover deleted records.
    Meta level: an adversary with every historical state of the meta tree
    plus the seized device (all final control keys) cannot recover a
    shredded master key record.  Soundness controls assert the same
    attacks succeed against live records and live master keys.
    """
    seized = tenant.fs.client.keystore.seize()

    # -- data trees of surviving files ---------------------------------
    for name, file_id in tenant.file_ids.items():
        adversary = tenant.adversaries.get(file_id)
        if adversary is None:
            continue
        adversary.seized_keys = list(seized.values())
        adversary.seized_keys.append(
            tenant._manager(name).master_key(file_id))
        adversary.observe(snapshot_file(
            tenant.cluster.server_for(file_id), file_id))
        for item_id, _plaintext in tenant.killed.get(file_id, ()):
            if adversary.try_recover(item_id) is not None:
                raise InvariantViolation(
                    f"Theorem 2 violated: deleted item {item_id} of "
                    f"file {name!r} was recovered")
        if tenant.model[name]:
            # Soundness control: a live record must fall to the attack
            # (any historical version of it counts as recovery).
            live_item = tenant.fs.open(name)._record.index.item_id_at(0)
            if adversary.try_recover(live_item) is None:
                raise InvariantViolation(
                    f"soundness control failed: live item {live_item} of "
                    f"{name!r} did not recover (the Theorem-2 check "
                    f"would be vacuous)")

    # -- data trees of dropped files: only historical snapshots remain --
    for file_id in tenant.dropped:
        adversary = tenant.adversaries.get(file_id)
        if adversary is None:
            continue
        adversary.seized_keys = list(seized.values())
        for item_id, _plaintext in tenant.killed.get(file_id, ()):
            if adversary.try_recover(item_id) is not None:
                raise InvariantViolation(
                    f"Theorem 2 violated: item {item_id} of dropped "
                    f"file {file_id} was recovered")

    # -- the meta trees: shredded master-key records stay dead ----------
    for meta_id, adversary in tenant.meta_adversaries.items():
        adversary.seized_keys = list(seized.values())
        adversary.observe(snapshot_file(
            tenant.cluster.server_for(meta_id), meta_id))
        for meta_item in tenant.meta_killed.get(meta_id, ()):
            if adversary.try_recover(meta_item) is not None:
                raise InvariantViolation(
                    f"Theorem 2 violated: shredded master-key record "
                    f"{meta_item} of meta file {meta_id} was recovered")
        live_files = [fid for name, fid in tenant.file_ids.items()
                      if tenant._manager(name).meta_file_id == meta_id]
        if live_files:
            name = next(n for n, fid in tenant.file_ids.items()
                        if fid == live_files[0])
            live_meta_item = tenant._manager(name).meta_item_of(
                live_files[0])
            if adversary.try_recover(live_meta_item) is None:
                raise InvariantViolation(
                    f"soundness control failed: live master-key record "
                    f"{live_meta_item} of meta file {meta_id} did not "
                    f"recover")

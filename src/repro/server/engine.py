"""Out-of-core storage engines: the ``TreeStore`` backend family.

The in-memory server keeps every modulator, item mapping, and ciphertext
of every file resident.  A :class:`TreeStore` engine moves that state
out-of-core: the server materialises only the root-to-leaf paths a
request touches (see :mod:`repro.server.paging`) and flushes dirty nodes
back at compaction time, so resident memory is O(active working set)
instead of O(n).

One engine implements the interface: :class:`SQLiteTreeStore`, a
single-file SQLite schema with per-file node, item, and ciphertext
tables.  A server without an engine keeps its state resident; it is the
twin-world reference the engine is tested against.  The node table's
primary key ``(file_id, kind, slot)`` *is* the ``(file_id, node_path)``
index: a heap slot number encodes the root path bit-by-bit (see
:meth:`repro.core.tree.ModulationTree.slot_path`), so a root-to-leaf
path is one ``slot IN (...)`` statement per node kind, and a whole file
is one ordered range scan per kind over that clustered key.  Dirty state
accumulates in one transaction per flush; a crash rolls it back via
SQLite's journal.

Addressing
----------

Tree nodes are addressed ``(file_id, kind, slot)`` with ``kind`` one of
:data:`KIND_LINK` / :data:`KIND_LEAF` -- the same slot numbering the
:class:`~repro.core.modstore.ModulatorStore` interface uses.  Items map
bidirectionally (``item_id <-> slot``); ciphertexts are keyed by item
id; per-file metadata is ``(version, n_leaves)``.  The request-id replay
table persists the idempotency cache so retried commits stay
exactly-once across an engine-backed restart.

Opening fails closed
--------------------

An engine file is untrusted input to the server that opens it.  A file
that is not a SQLite database, or whose tables and indexes are not
exactly this schema's, raises :class:`~repro.core.errors.StorageError`
at open -- never a raw ``sqlite3`` error on some later request -- and
open writes nothing to a file it refuses.  The file records the
modulator width it was written with (a file from before the width was
recorded has it read off its stored modulators); attaching it to a
server with other parameters (:meth:`TreeStore.bind_width`) raises the
same error instead of serving 20-byte modulators as 32-byte ones.
Damage that open cannot see fails closed on the read that reaches it:
a node or ciphertext value that is not a blob raises the same error
rather than being handed to the chain, the codec or a client.

Bulk reads
----------

Beside the point reads, every engine answers a multi-key read
(``get_nodes`` / ``get_slots`` / ``get_ciphertexts``, one statement
whatever the key count) and a slot-ordered range read (``scan_nodes`` /
``scan_items``).  Range reads return ``(slot, value)`` pairs for the
rows that exist: a caller bounds the range by the tree's current ``n``
(a deletion leaves stale rows past ``2n``, since engine stores never
truncate) and merges its dirty overlay before checking the range is
complete.  Ids cross the ``_s64``/``_u64`` mapping, so no caller may
rely on item-id order from SQL -- only slot order is meaningful.

Write batches
-------------

``write_nodes`` / ``write_items`` / ``write_ciphertexts`` stage changes;
``flush`` is the durability barrier.  Between the two, reads observe the
staged values (same-process read-your-writes); after a crash, everything
since the last ``flush`` is gone -- the contract the server's
``compact_storage`` relies on when it truncates the WAL only after
``flush`` returns.

``write_items`` applies in two passes (all old mappings removed before
any new mapping lands) so a batch that moves item A onto the slot item B
just vacated cannot corrupt the reverse index regardless of entry order.
"""

from __future__ import annotations

import _thread
import abc
import functools
import json
import os
import sqlite3
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.errors import StorageError

#: Node kinds (the engine-level encoding of tree.LINK / tree.LEAF).
KIND_LINK = 0
KIND_LEAF = 1

#: The ``--backend`` vocabulary: ``memory`` keeps a server's state in
#: the :class:`~repro.server.server.CloudServer` itself, with no engine;
#: ``sqlite`` keeps it in a :class:`SQLiteTreeStore`.
BACKENDS = ("memory", "sqlite")


@dataclass
class FileMeta:
    """Per-file engine metadata: tree version and shape."""

    file_id: int
    version: int
    n_leaves: int


class TreeStore(abc.ABC):
    """Out-of-core storage for modulation trees, items, and ciphertexts."""

    # -- per-file metadata ---------------------------------------------

    @abc.abstractmethod
    def get_meta(self, file_id: int) -> Optional[FileMeta]:
        """Return the file's metadata, or ``None`` if unknown."""

    @abc.abstractmethod
    def set_meta(self, meta: FileMeta) -> None:
        """Create or update a file's metadata."""

    @abc.abstractmethod
    def drop_file(self, file_id: int) -> None:
        """Discard every record of ``file_id`` (idempotent)."""

    @abc.abstractmethod
    def file_ids(self) -> list[int]:
        """Ids of every stored file (sorted)."""

    # -- tree nodes -----------------------------------------------------

    @abc.abstractmethod
    def get_node(self, file_id: int, kind: int, slot: int) -> bytes:
        """Return one modulator value (raises ``KeyError`` if absent)."""

    @abc.abstractmethod
    def get_nodes(self, file_id: int, kind: int,
                  slots: Sequence[int]) -> list[bytes]:
        """Values of ``slots``, in the given order (``KeyError`` if any
        is absent)."""

    @abc.abstractmethod
    def scan_nodes(self, file_id: int, kind: int, lo: int,
                   hi: int) -> list[tuple[int, bytes]]:
        """Stored ``(slot, value)`` pairs with ``lo <= slot < hi``, in
        slot order (absent slots are simply missing)."""

    @abc.abstractmethod
    def write_nodes(self, file_id: int,
                    entries: Iterable[tuple[int, int, Optional[bytes]]]) -> None:
        """Stage ``(kind, slot, value)`` writes; ``value=None`` deletes."""

    # -- item map -------------------------------------------------------

    @abc.abstractmethod
    def get_slot(self, file_id: int, item_id: int) -> Optional[int]:
        """Leaf slot of ``item_id``, or ``None`` if the item is unknown."""

    @abc.abstractmethod
    def get_item(self, file_id: int, slot: int) -> Optional[int]:
        """Item id at leaf ``slot``, or ``None`` if the slot is empty."""

    @abc.abstractmethod
    def get_slots(self, file_id: int,
                  item_ids: Sequence[int]) -> list[Optional[int]]:
        """Leaf slot of each item, in the given order (``None`` if unknown)."""

    @abc.abstractmethod
    def scan_items(self, file_id: int, lo: int,
                   hi: int) -> list[tuple[int, int]]:
        """``(slot, item_id)`` of occupied slots ``lo <= slot < hi``, in
        slot order."""

    @abc.abstractmethod
    def write_items(self, file_id: int,
                    entries: Iterable[tuple[int, Optional[int]]]) -> None:
        """Stage ``(item_id, slot)`` mappings; ``slot=None`` removes."""

    # -- ciphertexts ----------------------------------------------------

    @abc.abstractmethod
    def get_ciphertext(self, file_id: int, item_id: int) -> bytes:
        """Return one ciphertext (raises ``KeyError`` if absent)."""

    @abc.abstractmethod
    def get_ciphertexts(self, file_id: int,
                        item_ids: Sequence[int]) -> list[bytes]:
        """Ciphertexts of ``item_ids``, in the given order (``KeyError``
        if any is absent)."""

    @abc.abstractmethod
    def write_ciphertexts(self, file_id: int,
                          entries: Iterable[tuple[int, Optional[bytes]]]) -> None:
        """Stage ``(item_id, ciphertext)`` writes; ``None`` deletes."""

    # -- replay table ---------------------------------------------------

    @abc.abstractmethod
    def replay_entries(self) -> list[tuple[int, bytes]]:
        """Persisted ``(request_id, encoded reply)`` idempotency entries."""

    @abc.abstractmethod
    def set_replay_entries(self,
                           entries: Iterable[tuple[int, bytes]]) -> None:
        """Replace the persisted idempotency table (eviction order kept)."""

    # -- parameters -----------------------------------------------------

    @abc.abstractmethod
    def bind_width(self, width: int) -> None:
        """Refuse an engine whose trees hold modulators of another width
        than ``width`` (``StorageError``)."""

    # -- lifecycle ------------------------------------------------------

    @abc.abstractmethod
    def flush(self) -> None:
        """Durability barrier: staged writes survive a crash after this."""

    @abc.abstractmethod
    def rollback(self) -> None:
        """Discard the writes staged since the last ``flush``."""

    @abc.abstractmethod
    def compact(self) -> None:
        """Reclaim dead space."""

    @abc.abstractmethod
    def close(self) -> None:
        """Flush and release resources."""


# ---------------------------------------------------------------------
# SQLite engine
# ---------------------------------------------------------------------

_SCHEMA = """
CREATE TABLE IF NOT EXISTS files (
    file_id  INTEGER PRIMARY KEY,
    version  INTEGER NOT NULL,
    n_leaves INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    file_id INTEGER NOT NULL,
    kind    INTEGER NOT NULL,
    slot    INTEGER NOT NULL,
    value   BLOB NOT NULL,
    PRIMARY KEY (file_id, kind, slot)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS items (
    file_id INTEGER NOT NULL,
    item_id INTEGER NOT NULL,
    slot    INTEGER NOT NULL,
    PRIMARY KEY (file_id, item_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS items_by_slot ON items (file_id, slot);
CREATE TABLE IF NOT EXISTS ciphertexts (
    file_id INTEGER NOT NULL,
    item_id INTEGER NOT NULL,
    value   BLOB NOT NULL,
    PRIMARY KEY (file_id, item_id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS replay (
    seq        INTEGER PRIMARY KEY,
    request_id INTEGER NOT NULL,
    reply      BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS params (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

#: The schema objects an engine file must hold, as ``sqlite_master``
#: stores them.  ``CREATE ... IF NOT EXISTS`` keeps a same-named object
#: of another shape, so open compares against this.
_SCHEMA_OBJECTS = "SELECT type, name, sql FROM sqlite_master " \
    "WHERE name NOT LIKE 'sqlite_%' ORDER BY name"


@functools.lru_cache(maxsize=None)
def _expected_schema() -> tuple:
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(_SCHEMA)
        return tuple(conn.execute(_SCHEMA_OBJECTS))
    finally:
        conn.close()


def _s64(value: int) -> int:
    """Map a u64 id into SQLite's signed 64-bit INTEGER range.

    File, item, and request ids are uniform 64-bit values, so the top
    bit is set half the time; storing them raw overflows SQLite's
    signed INTEGER.  The two's-complement reinterpretation is a
    bijection, so keys stay unique and point lookups exact.
    """
    return value - 0x1_0000_0000_0000_0000 \
        if value >= 0x8000_0000_0000_0000 else value


def _u64(value: int) -> int:
    """Inverse of :func:`_s64`."""
    return value & 0xFFFF_FFFF_FFFF_FFFF


#: ``IN`` operand of a multi-key read.  The keys travel as one JSON
#: array parameter, so any key count is one statement with one fixed
#: text (no per-count prepared statement, no host-variable limit).
_IN_KEYS = "IN (SELECT value FROM json_each(?))"


class _EngineLock(_thread.RLock):
    """The engine's lock; an SQLite error raised under it leaves as a
    :class:`StorageError` (damage on a page that open does not read
    surfaces on a later request), and so does the ``TypeError`` or
    ``ValueError`` of a wrong-typed column (damage inside a row that
    SQLite's page checks accept)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
        if exc_type is not None and issubclass(
                exc_type, (sqlite3.Error, TypeError, ValueError)):
            raise StorageError(f"{self.path!r}: {exc}") from exc


class SQLiteTreeStore(TreeStore):
    """Single-file SQLite engine.

    The ``nodes`` primary key ``(file_id, kind, slot)`` doubles as the
    ``(file_id, node_path)`` index -- slot numbers *are* root-path
    encodings.  All staged writes ride one transaction committed by
    ``flush`` (rollback-journal crash safety); reads on the same
    connection observe the staged state, giving the engine contract's
    read-your-writes without extra buffering.  Ids are stored via the
    :func:`_s64` two's-complement mapping (they are u64 on the wire).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = _EngineLock(path)
        self._connect()

    def _connect(self) -> None:
        self._in_txn = False
        expected = _expected_schema()
        # Files written before the modulator width was recorded lack
        # ``params``; they open, and ``bind_width`` reads their width
        # off the stored modulators.
        unversioned = tuple(obj for obj in expected if obj[1] != "params")
        conn = None
        try:
            conn = sqlite3.connect(self.path, check_same_thread=False,
                                   isolation_level=None)
            # Nothing is written before the file is known to be ours.
            found = tuple(conn.execute(_SCHEMA_OBJECTS))
            if found in (expected, unversioned):
                # Read each table's root page: a schema row pointing at
                # a damaged page fails here, not on the first request.
                for kind, name, _sql in found:
                    if kind == "table":
                        conn.execute(
                            f"SELECT * FROM {name} LIMIT 1").fetchall()
            elif found:
                conn.close()
                raise StorageError(f"{self.path!r} is not a storage engine "
                                   f"file of this schema")
            conn.execute("PRAGMA journal_mode=DELETE").fetchone()
            conn.execute("PRAGMA synchronous=FULL")
            if found != expected:
                # One transaction: a crash cannot leave half a schema.
                conn.executescript("BEGIN;" + _SCHEMA + "COMMIT;")
        except (sqlite3.Error, UnicodeDecodeError) as exc:
            # (A damaged schema can make even SQLite's error text
            # undecodable.)
            if conn is not None:
                conn.close()
            raise StorageError(f"{self.path!r} is not a storage engine "
                               f"file: {exc}") from None
        self._conn = conn

    def bind_width(self, width: int) -> None:
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT value FROM params WHERE name='modulator_width'"
                ).fetchone()
                recorded = row is not None
                if not recorded:
                    # The stored modulators tell the width of a file
                    # written before it was recorded (an empty one
                    # takes any).
                    row = self._conn.execute(
                        "SELECT length(value) FROM nodes "
                        "WHERE value IS NOT NULL LIMIT 1").fetchone()
                stored = width if row is None else row[0]
                if stored == width and not recorded:
                    # Outside a transaction this commits at once, so the
                    # file names its width from its first attach on.
                    self._conn.execute(
                        "INSERT INTO params VALUES ('modulator_width', ?)",
                        (width,))
            except sqlite3.Error as exc:
                raise StorageError(f"{self.path!r}: cannot read the "
                                   f"modulator width: {exc}") from None
        if stored != width:
            raise StorageError(
                f"the storage engine holds {stored}-byte modulators, the "
                f"server's parameters expect {width}")

    def _begin(self) -> None:
        if not self._in_txn:
            self._conn.execute("BEGIN")
            self._in_txn = True

    def get_meta(self, file_id: int) -> Optional[FileMeta]:
        with self._lock:
            row = self._conn.execute(
                "SELECT version, n_leaves FROM files WHERE file_id=?",
                (_s64(file_id),)).fetchone()
        return None if row is None else FileMeta(file_id, row[0], row[1])

    def set_meta(self, meta: FileMeta) -> None:
        with self._lock:
            self._begin()
            self._conn.execute(
                "INSERT OR REPLACE INTO files VALUES (?,?,?)",
                (_s64(meta.file_id), meta.version, meta.n_leaves))

    def drop_file(self, file_id: int) -> None:
        with self._lock:
            self._begin()
            for table in ("files", "nodes", "items", "ciphertexts"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE file_id=?",
                    (_s64(file_id),))

    def file_ids(self) -> list[int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT file_id FROM files").fetchall()
            return sorted(_u64(row[0]) for row in rows)

    def get_node(self, file_id: int, kind: int, slot: int) -> bytes:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM nodes WHERE file_id=? AND kind=? AND slot=?",
                (_s64(file_id), kind, slot)).fetchone()
        if row is None:
            raise KeyError((file_id, kind, slot))
        if type(row[0]) is not bytes:
            raise self._wrong_type("nodes", row[0])
        return row[0]

    def get_nodes(self, file_id, kind, slots) -> list[bytes]:
        if not slots:
            return []
        with self._lock:
            found = dict(self._conn.execute(
                f"SELECT slot, value FROM nodes WHERE file_id=? AND kind=? "
                f"AND slot {_IN_KEYS}",
                (_s64(file_id), kind, json.dumps(list(slots)))))
        for value in found.values():
            if type(value) is not bytes:
                raise self._wrong_type("nodes", value)
        try:
            return [found[slot] for slot in slots]
        except KeyError as exc:
            raise KeyError((file_id, kind, exc.args[0])) from None

    def scan_nodes(self, file_id, kind, lo, hi) -> list[tuple[int, bytes]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT slot, value FROM nodes WHERE file_id=? AND kind=? "
                "AND slot>=? AND slot<? ORDER BY slot",
                (_s64(file_id), kind, lo, hi)).fetchall()
        for _slot, value in rows:
            if type(value) is not bytes:
                raise self._wrong_type("nodes", value)
        return rows

    def write_nodes(self, file_id, entries) -> None:
        fid = _s64(file_id)
        removes, writes = [], []
        for kind, slot, value in entries:
            if value is None:
                removes.append((fid, kind, slot))
            else:
                writes.append((fid, kind, slot, bytes(value)))
        with self._lock:
            self._begin()
            if removes:
                self._conn.executemany(
                    "DELETE FROM nodes WHERE file_id=? AND kind=? AND slot=?",
                    removes)
            if writes:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO nodes VALUES (?,?,?,?)", writes)

    def get_slot(self, file_id: int, item_id: int) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT slot FROM items WHERE file_id=? AND item_id=?",
                (_s64(file_id), _s64(item_id))).fetchone()
        return None if row is None else row[0]

    def get_item(self, file_id: int, slot: int) -> Optional[int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT item_id FROM items WHERE file_id=? AND slot=?",
                (_s64(file_id), slot)).fetchone()
            return None if row is None else _u64(row[0])

    def get_slots(self, file_id, item_ids) -> list[Optional[int]]:
        if not item_ids:
            return []
        keys = [_s64(item_id) for item_id in item_ids]
        with self._lock:
            found = dict(self._conn.execute(
                f"SELECT item_id, slot FROM items WHERE file_id=? "
                f"AND item_id {_IN_KEYS}", (_s64(file_id), json.dumps(keys))))
        return [found.get(key) for key in keys]

    def scan_items(self, file_id, lo, hi) -> list[tuple[int, int]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT slot, item_id FROM items WHERE file_id=? "
                "AND slot>=? AND slot<? ORDER BY slot",
                (_s64(file_id), lo, hi)).fetchall()
            return [(slot, _u64(item_id)) for slot, item_id in rows]

    def write_items(self, file_id, entries) -> None:
        pairs = list(entries)
        with self._lock:
            self._begin()
            # Two passes: every touched item's old row goes first, so a
            # move onto a just-vacated slot is order-independent.
            fid = _s64(file_id)
            self._conn.executemany(
                "DELETE FROM items WHERE file_id=? AND item_id=?",
                [(fid, _s64(item_id)) for item_id, _slot in pairs])
            self._conn.executemany(
                "INSERT INTO items VALUES (?,?,?)",
                [(fid, _s64(item_id), slot) for item_id, slot in pairs
                 if slot is not None])

    def get_ciphertext(self, file_id: int, item_id: int) -> bytes:
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM ciphertexts WHERE file_id=? AND item_id=?",
                (_s64(file_id), _s64(item_id))).fetchone()
            if row is None:
                raise self._missing_ciphertext(file_id, _s64(item_id), True)
        if type(row[0]) is not bytes:
            raise self._wrong_type("ciphertexts", row[0])
        return row[0]

    def get_ciphertexts(self, file_id, item_ids) -> list[bytes]:
        if not item_ids:
            return []
        keys = [_s64(item_id) for item_id in item_ids]
        with self._lock:
            found = dict(self._conn.execute(
                f"SELECT item_id, value FROM ciphertexts WHERE file_id=? "
                f"AND item_id {_IN_KEYS}", (_s64(file_id), json.dumps(keys))))
            for value in found.values():
                if type(value) is not bytes:
                    raise self._wrong_type("ciphertexts", value)
            try:
                return [found[key] for key in keys]
            except KeyError as exc:
                raise self._missing_ciphertext(
                    file_id, exc.args[0], found.keys() <= set(keys)) \
                    from None

    def _wrong_type(self, table: str, value) -> StorageError:
        """Damage inside a row that SQLite's page checks accept: a value
        column that holds no blob."""
        return StorageError(f"{self.path!r}: a {table}.value column holds "
                            f"{type(value).__name__}, not bytes")

    def _missing_ciphertext(self, file_id: int, key: int,
                            keys_intact: bool) -> Exception:
        """An absent row (lock held): only items the item map holds are
        asked for, so a mapped one, or a changed key, is damage."""
        if keys_intact and self._conn.execute(
                "SELECT 1 FROM items WHERE file_id=? AND item_id=?",
                (_s64(file_id), key)).fetchone() is None:
            return KeyError((file_id, _u64(key)))
        return StorageError(f"{self.path!r}: file {file_id}: the ciphertext "
                            f"row of item {_u64(key)} is damaged")

    def write_ciphertexts(self, file_id, entries) -> None:
        fid = _s64(file_id)
        removes, writes = [], []
        for item_id, value in entries:
            if value is None:
                removes.append((fid, _s64(item_id)))
            else:
                writes.append((fid, _s64(item_id), bytes(value)))
        with self._lock:
            self._begin()
            if removes:
                self._conn.executemany(
                    "DELETE FROM ciphertexts WHERE file_id=? AND item_id=?",
                    removes)
            if writes:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO ciphertexts VALUES (?,?,?)",
                    writes)

    def replay_entries(self) -> list[tuple[int, bytes]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT request_id, reply FROM replay ORDER BY seq").fetchall()
            return [(_u64(row[0]), row[1]) for row in rows]

    def set_replay_entries(self, entries) -> None:
        with self._lock:
            self._begin()
            self._conn.execute("DELETE FROM replay")
            self._conn.executemany(
                "INSERT INTO replay VALUES (?,?,?)",
                [(seq, _s64(rid), bytes(blob))
                 for seq, (rid, blob) in enumerate(entries)])

    def flush(self) -> None:
        with self._lock:
            if self._in_txn:
                self._conn.execute("COMMIT")
                self._in_txn = False

    def rollback(self) -> None:
        with self._lock:
            if self._in_txn:
                self._in_txn = False
                self._conn.execute("ROLLBACK")

    def compact(self) -> None:
        with self._lock:
            self.flush()
            self._conn.execute("VACUUM")

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.close()

    def __getstate__(self):
        self.flush()
        return {"path": self.path}

    def __setstate__(self, state) -> None:
        self.path = state["path"]
        self._lock = _EngineLock(self.path)
        self._connect()


def engine_path(state_dir: str) -> str:
    """The engine file under a server's state dir."""
    return os.path.join(state_dir, "state.db")


def refuse_image(path: str) -> None:
    """Fail closed on a whole-state checkpoint image left at ``path``.

    Earlier versions checkpointed a memory-backed durable server into
    one image file (``server.img``, per shard ``shard.img``) and reset
    the WAL behind it.  This version keeps durable state only in the
    engine, so serving such a directory would start from an empty
    engine and silently drop every commit the image holds.
    """
    if os.path.exists(path):
        raise StorageError(
            f"{path!r} is a checkpoint image of an earlier version, which "
            f"this version no longer reads; serving its directory would "
            f"drop every commit in it (use a fresh state directory)")

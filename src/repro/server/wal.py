"""Write-ahead commit log: crash-safe server state and the audit chain.

The paper's assurance argument (Theorem 2) implicitly assumes the server
state the client verified against is the state that survives.  In a real
deployment the server process can die at any instruction -- between
receiving a commit and applying it, between applying it and replying --
so every mutating request is made durable *before* it is applied:

1. the encoded request bytes are appended to the commit log and fsync'd;
2. the request is applied to the in-memory state;
3. the reply is sent.

Recovery (:func:`recover_server`) loads the last checkpoint image written
by :func:`repro.server.persistence.save_server` and re-executes every
logged request through the ordinary message handlers.  Because mutating
requests carry idempotent ``request_id``\\ s, a record that is also
reflected in the checkpoint (crash between checkpoint write and log
reset) is answered from the server's replay cache instead of being
applied twice, and a client retrying an un-acknowledged commit after the
restart converges to exactly-once application.

The same log is the tamper-evident deletion audit chain: every frame is
SHA-256 chained onto its predecessor, so the commit log *is* the
evidence of what the server applied (see :mod:`repro.obs.audit`).

Log file format (format version 2, all integers big-endian)::

    header  magic "RWAL" | u16 format version
    frame   u32 kind << 29 | payload length
            u32 CRC-32 of (that word ‖ payload)
            payload bytes

Frame kinds:

* ``request`` (0) -- the encoded mutating request, replayed by recovery;
* ``outcome`` (1) -- ``u64 seq of the request`` ‖ canonical JSON of
  what applying it did (op, ids, versions, ok/code), written after the
  apply under the same lock and *not* separately fsync'd;
* ``marker`` (4) -- first frame after a compaction: ``u64 seq`` ‖
  ``32-byte hash`` of the frame it continues the chain from ‖ ``u64``
  size of the sealed archive ‖ free text;
* ``digest`` (2) -- only in the sealed archive: the SHA-256 of a request
  payload that compaction dropped.

Frame ``i``'s chain hash is ``hᵢ = SHA-256(hᵢ₋₁ ‖ kind ‖
SHA-256(payload))`` with ``h₀`` all zeros (or the marker's base); a
digest frame links as the request it stands for, so sealing never
changes a hash.  Frame sequence numbers are positions in that chain and
survive compaction.

A torn tail frame -- the ``kill -9`` landed mid-``write`` -- fails the
length or CRC check; :class:`CommitLog` truncates it away on open, which
is exactly the all-or-nothing outcome the client's retry expects (the
commit was never acknowledged, so re-sending it applies it once).

Evidence mode
-------------

Opened with ``archive=PATH`` the log also keeps:

* a **head anchor** at ``PATH.head``: a fixed-layout two-slot record of
  (origin seq, head seq, head hash), overwritten in place with
  ``pwrite`` + ``fdatasync`` once per fsync batch, so an acknowledged
  request is durable *and* anchored.  A torn slot write leaves the
  other slot intact; opening a log whose valid frames stop short of the
  anchored seq (or disagree with its hash) raises
  :class:`~repro.core.errors.AuditError` instead of truncating history.
* a **sealed archive** at ``PATH``: ``compact``/``reset`` append the
  truncated prefix there -- request payloads as digests, outcome and
  marker frames whole -- before swapping the log, and the new log's
  marker records the archive's size and final hash.  A crash between
  the two leaves archive bytes past the recorded size, which the next
  seal cuts off.

Without an archive, compaction discards the chain with the history and
the next log starts from genesis.

Two failure modes beyond the torn tail are handled explicitly:

* **Failed append** (disk full, I/O error): the write may have left a
  torn frame *mid*-file; if later appends succeeded after it, the
  stop-at-first-bad-frame scan would silently discard them on the next
  open.  The log therefore tracks its last durable offset and, on an
  append failure, truncates back to it (rewriting the unsynced outcome
  frames written since) before accepting anything else; if even that
  repair fails the log **fails closed** (every further append raises)
  rather than acknowledge commits it may lose.
* **Lost directory entry**: file data is fsync'd but a freshly created
  file's *name* lives in the directory, which has its own durability.
  Log creation and reset fsync the parent directory (POSIX only; no-op
  elsewhere) so a crash cannot forget the log file itself.

Group commit
------------

With ``group_commit=True`` concurrent appenders enqueue their frames
and a single committer thread (started lazily on the first grouped
append) coalesces the queue into ONE ``write`` + ONE ``fsync``; every
``append`` still blocks until *its* frame is durable.  Batching is
natural: while one fsync is in flight, new appenders pile up in the
queue and the committer takes them all on its next pass.  Appenders
wait only on their own entry's event -- never on the commit lock -- so
a committed append returns immediately even while the next batch's
fsync is in flight (a leader-follower scheme where followers re-take
the lock convoys exactly there).  Outcome frames ride the same queue
without waiting; a batch of outcomes alone is written, not fsync'd.
``group_max_batch`` bounds one batch; ``group_max_wait`` optionally
lets the committer linger to fill it.  The observable durability
contract is identical to per-append fsync -- ``append`` returning means
the request survives a crash -- only the fsyncs-per-request ratio
changes.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
import zlib
from typing import Optional

from repro.core.errors import AuditError, ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import log_event, span

_MAGIC = b"RWAL"
_FORMAT_VERSION = 2
LOG_HEADER = _MAGIC + struct.pack(">H", _FORMAT_VERSION)
_FRAME = struct.Struct(">II")
_WORD = struct.Struct(">I")
_KIND_SHIFT = 29
_MAX_PAYLOAD = (1 << _KIND_SHIFT) - 1

KIND_REQUEST = 0
KIND_OUTCOME = 1
KIND_DIGEST = 2
KIND_MARKER = 4
KIND_NAMES = {KIND_REQUEST: "request", KIND_OUTCOME: "outcome",
              KIND_DIGEST: "digest", KIND_MARKER: "marker"}

#: The sealed archive: the same frames behind its own header.
ARCHIVE_HEADER = b"RAUD" + struct.pack(">H", 1)

#: Chain hash before the first frame.
GENESIS = bytes(32)

_MARKER_BASE = struct.Struct(">Q32sQ")
_OUTCOME_REQ = struct.Struct(">Q")

_HEAD_HEADER = b"RHED" + struct.pack(">H", 1)
_HEAD_SLOT = struct.Struct(">QQ32sI")
_HEAD_SIZE = len(_HEAD_HEADER) + 2 * _HEAD_SLOT.size

#: Default number of WAL records after which callers should checkpoint.
CHECKPOINT_INTERVAL = 256

_fdatasync = getattr(os, "fdatasync", os.fsync)


def fsync_directory(path: str) -> None:
    """Best-effort fsync of ``path``'s parent directory.

    On POSIX a newly created (or truncated-and-recreated) file is only
    crash-durable once the directory holding its name is synced too.
    Elsewhere (or when the directory cannot be opened) this is a no-op:
    the platforms without ``O_DIRECTORY`` semantics do not expose the
    failure mode either.
    """
    if os.name != "posix":
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------
# Frames and the chain
# ---------------------------------------------------------------------

def link(prev: bytes, kind: int, payload: bytes) -> bytes:
    """Chain hash of a frame: ``SHA-256(prev ‖ kind ‖ SHA-256(payload))``.

    A digest frame already holds ``SHA-256(payload)`` of the request it
    replaced and links exactly as that request did.
    """
    if kind == KIND_DIGEST:
        kind, digest = KIND_REQUEST, payload
    else:
        digest = hashlib.sha256(payload).digest()
    return hashlib.sha256(prev + bytes((kind,)) + digest).digest()


def encode_frame(kind: int, payload: bytes) -> bytes:
    if len(payload) > _MAX_PAYLOAD:
        raise ValueError("frame payload too large")
    word = _WORD.pack(kind << _KIND_SHIFT | len(payload))
    return word + _WORD.pack(zlib.crc32(payload, zlib.crc32(word))) + payload


def split_frames(data: bytes, pos: int) -> tuple[list, int]:
    """Parse CRC-valid frames from ``pos``: ``([(offset, kind, payload)],
    end of the last valid frame)``.  Parsing stops at the first torn or
    corrupt frame; a CRC-valid frame of unknown kind raises."""
    frames = list(iter_frames(data, pos))
    if frames:
        offset, _kind, payload = frames[-1]
        pos = offset + _FRAME.size + len(payload)
    return frames, pos


def iter_frames(data, pos: int):
    """:func:`split_frames` one frame at a time (payloads are slices of
    ``data``: zero-copy over a ``memoryview``)."""
    size = len(data)
    while pos + _FRAME.size <= size:
        word, crc = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + (word & _MAX_PAYLOAD)
        if end > size:
            break
        payload = data[pos + _FRAME.size:end]
        if zlib.crc32(payload, zlib.crc32(data[pos:pos + 4])) != crc:
            break
        kind = word >> _KIND_SHIFT
        if kind not in KIND_NAMES:
            raise ProtocolError(f"frame at byte {pos} has unknown kind "
                                f"{kind}")
        yield pos, kind, payload
        pos = end


def encode_marker(seq: int, digest: bytes, archive_size: int,
                  text: bytes) -> bytes:
    return _MARKER_BASE.pack(seq, digest, archive_size) + text


def decode_marker(payload: bytes) -> tuple[int, bytes, int, bytes]:
    """``(base seq, base hash, archive size, text)`` of a marker."""
    if len(payload) < _MARKER_BASE.size:
        raise ProtocolError("snapshot marker frame is too short")
    seq, digest, archive_size = _MARKER_BASE.unpack_from(payload)
    return seq, digest, archive_size, payload[_MARKER_BASE.size:]


def encode_outcome(request_seq: int, document: bytes) -> bytes:
    return _OUTCOME_REQ.pack(request_seq) + document


def decode_outcome(payload: bytes) -> tuple[int, bytes]:
    """``(seq of the request frame, JSON document)`` of an outcome."""
    if len(payload) < _OUTCOME_REQ.size:
        raise ProtocolError("outcome frame is too short")
    return _OUTCOME_REQ.unpack_from(payload)[0], payload[_OUTCOME_REQ.size:]


def check_header(data: bytes, header: bytes, what: str, path: str) -> None:
    """Refuse a file that is not ``what`` at ``header``'s format version."""
    if data[:4] != header[:4] or len(data) < len(header):
        raise ProtocolError(f"{path!r} is not {what}")
    version = struct.unpack(">H", data[4:6])[0]
    expected = struct.unpack(">H", header[4:6])[0]
    if version != expected:
        raise ProtocolError(
            f"{path!r} is {what} format version {version}; this build "
            f"reads version {expected} only (re-create the vault with "
            f"'init' in a fresh --server-dir)")


# ---------------------------------------------------------------------
# Head anchor
# ---------------------------------------------------------------------

def head_path_for(archive_path: str) -> str:
    """The head anchor kept next to an archive."""
    return archive_path + ".head"


def _head_slots(path: str) -> Optional[list[tuple[int, int, int, bytes]]]:
    """Valid ``(seq, slot, origin, hash)`` slots, or None without a file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    if len(data) != _HEAD_SIZE or not data.startswith(_HEAD_HEADER):
        raise AuditError(f"audit head {path!r} is not a head anchor")
    slots = []
    for index in range(2):
        offset = len(_HEAD_HEADER) + index * _HEAD_SLOT.size
        origin, seq, digest, crc = _HEAD_SLOT.unpack_from(data, offset)
        if zlib.crc32(data[offset:offset + _HEAD_SLOT.size - 4]) == crc:
            slots.append((seq, index, origin, digest))
    if not slots:
        raise AuditError(f"audit head {path!r} is unreadable: both slots "
                         f"are torn")
    return slots


def read_head(path: str) -> Optional[tuple[int, int, bytes]]:
    """The anchored ``(origin seq, head seq, head hash)``, or ``None``
    when no head file exists."""
    slots = _head_slots(path)
    if slots is None:
        return None
    seq, _index, origin, digest = max(slots)
    return origin, seq, digest


def _pack_slot(origin: int, seq: int, digest: bytes) -> bytes:
    body = _HEAD_SLOT.pack(origin, seq, digest, 0)[:-4]
    return body + _WORD.pack(zlib.crc32(body))


class HeadAnchor:
    """The in-place two-slot head record (see the module docstring).

    Each write overwrites the slot *not* holding the newest anchor, so a
    torn write can only lose the update in flight.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        slots = _head_slots(path)
        #: ``(origin, seq, hash)`` found on open (None: no head yet).
        self.current: Optional[tuple[int, int, bytes]] = None
        self._latest = 1
        if slots is not None:
            seq, self._latest, origin, digest = max(slots)
            self.current = (origin, seq, digest)
        self._fd: Optional[int] = None

    def write(self, origin: int, seq: int, digest: bytes) -> None:
        slot = _pack_slot(origin, seq, digest)
        if self._fd is None:
            if self.current is None:
                self._create(slot)
                self.current = (origin, seq, digest)
                return
            self._fd = os.open(self.path, os.O_RDWR)
        index = 1 - self._latest
        os.pwrite(self._fd, slot,
                  len(_HEAD_HEADER) + index * _HEAD_SLOT.size)
        _fdatasync(self._fd)
        self._latest = index
        self.current = (origin, seq, digest)

    def _create(self, slot: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_HEAD_HEADER + slot + slot)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        fsync_directory(self.path)
        self._fd = os.open(self.path, os.O_RDWR)
        self._latest = 0

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# ---------------------------------------------------------------------
# The log
# ---------------------------------------------------------------------

class _Entry:
    """One frame queued for (or being written by) the committer."""

    __slots__ = ("kind", "payload", "event", "error", "seq")

    def __init__(self, kind: int, payload: bytes, waits: bool) -> None:
        self.kind = kind
        self.payload = payload
        self.event = threading.Event() if waits else None
        self.error: Exception | None = None
        self.seq = 0


class CommitLog:
    """Append-only fsync'd, hash-chained log of mutating requests.

    Opening scans the file, validates every frame, and truncates a torn
    tail.  ``append`` is durable on return (``flush`` + ``fsync``) and
    returns the request frame's sequence number; ``append_outcome``
    writes an outcome frame that becomes durable with the next fsync.
    ``reset``/``compact`` empty the log after its effects have been
    checkpointed, sealing it into ``archive`` first when one is given
    (evidence mode, see the module docstring).

    ``group_commit=True`` coalesces concurrent appends into one
    write+fsync (see the module docstring); ``group_max_batch`` bounds
    the frames per batch and ``group_max_wait`` (seconds) lets the
    committer wait briefly for stragglers before syncing.
    """

    def __init__(self, path: str, *, group_commit: bool = False,
                 group_max_batch: int = 128,
                 group_max_wait: float = 0.0,
                 archive: str | None = None) -> None:
        if group_max_batch < 1:
            raise ValueError("group_max_batch must be >= 1")
        if group_max_wait < 0:
            raise ValueError("group_max_wait must be >= 0")
        self.path = path
        self.group_commit = group_commit
        self.group_max_batch = group_max_batch
        self.group_max_wait = group_max_wait
        #: Sealed archive (evidence mode) and its head anchor.
        self.archive_path = archive
        self._head = None if archive is None else \
            HeadAnchor(head_path_for(archive))
        #: Compactions performed on this log object (``compact`` calls);
        #: the latest snapshot marker found on disk or written survives
        #: in ``snapshot_marker`` (its free text).
        self.compactions = 0
        self.snapshot_marker: bytes | None = None
        self._scan()
        self._handle = open(path, "ab")
        #: Requests appended since the last checkpoint/open, for callers
        #: implementing a checkpoint-every-N policy.
        self.appended = 0
        #: Serialises the write(+fsync) of one frame (or one group-commit
        #: batch): appends arriving from different per-file handler
        #: threads land whole, never interleaved mid-frame (the bottom
        #: of the lock hierarchy).
        self._lock = threading.Lock()
        #: End of the validated, fsync'd prefix of the file.  A failed
        #: append truncates back to this before the log accepts more.
        self._durable_size = self._handle.tell()
        #: Outcome frames written since the last fsync (rewritten after
        #: a failed append truncates back to the durable prefix).
        self._unsynced: list[bytes] = []
        #: Fail-closed flag: set when the durable prefix could not be
        #: restored after an append failure.
        self._failed = False
        # Group-commit queue (guarded by its own tiny lock so enqueue
        # never waits on an fsync in flight) and the committer thread
        # that drains it, started lazily on the first grouped append.
        self._queue_lock = threading.Lock()
        self._queue: list[_Entry] = []
        self._work = threading.Condition(self._queue_lock)
        self._committer: threading.Thread | None = None
        self._stop_committer = False

    # -- opening ---------------------------------------------------------

    def _scan(self) -> None:
        """Validate the on-disk log, truncating a torn tail frame.

        Sets the chain position (``_seq``/``_tip``), the marker's base,
        and the request frames with the seqs that already carry an
        outcome.  In evidence mode a tail the head anchor acknowledges
        is never truncated: the open fails with ``AuditError``.
        """
        self._requests: list[tuple[int, bytes]] = []
        self._answered: set[int] = set()
        self._seq, self._tip = 0, GENESIS
        self._base = (0, GENESIS, 0)
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        if len(data) < len(LOG_HEADER) and LOG_HEADER.startswith(data):
            # Missing, empty, or torn header: the crash landed during
            # log creation.  (Re)write it and make the name durable.
            self._write_header()
            fsync_directory(self.path)
            data = LOG_HEADER
        check_header(data, LOG_HEADER, "a commit log", self.path)
        frames, good_end = split_frames(data, len(LOG_HEADER))
        head = None if self._head is None else self._head.current
        anchored = None
        for offset, kind, payload in frames:
            if kind == KIND_MARKER:
                if offset != len(LOG_HEADER):
                    raise ProtocolError(
                        f"{self.path!r}: snapshot marker at byte {offset} "
                        f"is not the first frame")
                base_seq, base_hash, archive_size, text = \
                    decode_marker(payload)
                self._base = (base_seq, base_hash, archive_size)
                self._seq, self._tip = base_seq, base_hash
                self.snapshot_marker = text
            elif kind == KIND_REQUEST:
                self._requests.append((self._seq + 1, payload))
            elif kind == KIND_OUTCOME:
                self._answered.add(decode_outcome(payload)[0])
            else:
                raise ProtocolError(f"{self.path!r}: {KIND_NAMES[kind]} "
                                    f"frame at byte {offset} outside an "
                                    f"archive")
            self._seq += 1
            self._tip = link(self._tip, kind, payload)
            if head is not None and self._seq == head[1]:
                anchored = self._tip
        if head is not None:
            if head[1] > self._seq:
                raise AuditError(
                    f"commit log {self.path!r} ends "
                    f"{'torn ' if good_end < len(data) else ''}at frame "
                    f"{self._seq} but its head acknowledges frame "
                    f"{head[1]}")
            if anchored is not None and anchored != head[2]:
                raise AuditError(
                    f"head anchor mismatch at frame {head[1]}: the "
                    f"anchored hash does not match {self.path!r}")
        if good_end < len(data):
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.WAL_TRUNCATED.inc()
                log_event("wal.truncated_tail", path=self.path,
                          discarded_bytes=len(data) - good_end)
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        # First seq the evidence covers: the head's record of it, else
        # where this log starts (a lost head then shows as an origin
        # mismatch in ``audit verify``).
        self._origin = head[0] if head is not None else self._base[0]

    def _write_header(self) -> None:
        with open(self.path, "wb") as handle:
            handle.write(LOG_HEADER)
            handle.flush()
            os.fsync(handle.fileno())

    def _sync(self, fileno: int) -> None:
        """The durability barrier (seam for fault/latency injection)."""
        os.fsync(fileno)

    @property
    def seq(self) -> int:
        """Sequence number of the last frame written (0 = empty chain)."""
        return self._seq

    def records(self) -> list[bytes]:
        """The validated request payloads found on disk when the log
        was opened."""
        return [payload for _seq, payload in self._requests]

    def request_frames(self) -> list[tuple[int, bytes]]:
        """``(seq, payload)`` of every request frame found on open."""
        return list(self._requests)

    def pending_outcomes(self) -> list[int]:
        """Seqs of request frames found on open without an outcome."""
        return [seq for seq, _payload in self._requests
                if seq not in self._answered]

    # -- appending -------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Durably append one request frame; returns its sequence number.

        Thread-safe: concurrent appenders serialise on the log's lock
        (or, under group commit, enqueue for the committer), so each
        CRC-framed frame (and its fsync) lands whole on disk.  In
        evidence mode the head anchor names the frame before this
        returns.  Raises if the log has failed closed after an
        unrepairable append error -- an unacknowledged commit, never a
        silently lost one.
        """
        entry = _Entry(KIND_REQUEST, payload, self.group_commit)
        if obs.enabled:
            with span("wal.append", record_bytes=len(payload)):
                self._submit(entry)
        else:
            self._submit(entry)
        return entry.seq

    def append_outcome(self, payload: bytes) -> None:
        """Write one outcome frame without an fsync of its own.

        It becomes durable -- and anchored -- with the next fsync (the
        next request, ``sync``, ``compact`` or ``close``).  A crash
        before that loses it, and recovery re-derives it by replaying
        the request (:func:`recover_server`).
        """
        entry = _Entry(KIND_OUTCOME, payload, False)
        if self.group_commit:
            self._enqueue(entry)
            return
        with self._lock:
            error = self._commit_locked([entry], sync=False)
        if error is not None:
            raise error

    def sync(self) -> None:
        """Make every written frame durable and anchored now."""
        with self._lock:
            error = self._drain_locked()
            if error is None and self._unsynced and not self._failed:
                error = self._commit_locked([], sync=True)
        if error is not None:
            raise error

    def _submit(self, entry: _Entry) -> None:
        if self.group_commit:
            self._enqueue(entry)
            entry.event.wait()
        else:
            with self._lock:
                entry.error = self._commit_locked([entry], sync=True)
        if entry.error is not None:
            raise entry.error

    def _closed_error(self) -> ProtocolError:
        return ProtocolError(
            f"commit log {self.path!r} failed closed after an append "
            f"error; refusing to acknowledge commits it may lose")

    def _commit_locked(self, entries: list[_Entry],
                       sync: bool) -> Exception | None:
        """Chain, write and (with ``sync``) fsync + anchor ``entries``.

        Runs under the commit lock; returns the error instead of
        raising so a group-commit batch can fail every rider.
        """
        if self._failed:
            return self._closed_error()
        seq, tip = self._seq, self._tip
        frames = []
        for entry in entries:
            seq += 1
            tip = link(tip, entry.kind, entry.payload)
            entry.seq = seq
            frames.append(encode_frame(entry.kind, entry.payload))
        blob = b"".join(frames)
        start = time.perf_counter()
        try:
            self._handle.write(blob)
            self._handle.flush()
            if sync:
                self._sync(self._handle.fileno())
        except Exception as exc:
            self._restore_durable_prefix()
            outcomes = [e for e in entries if e.kind == KIND_OUTCOME]
            if outcomes and len(outcomes) < len(entries):
                # Re-chain the batch's outcomes without the failed
                # requests between them.
                self._commit_locked(outcomes, sync=False)
            return exc
        self._seq, self._tip = seq, tip
        requests = [e for e in entries if e.kind == KIND_REQUEST]
        self.appended += len(requests)
        if not sync:
            self._unsynced.append(blob)
            return None
        self._durable_size += sum(map(len, self._unsynced)) + len(blob)
        self._unsynced = []
        if obs.enabled and requests:
            from repro.obs import instruments as ins
            ins.WAL_FSYNC_SECONDS.observe(time.perf_counter() - start)
            ins.WAL_APPENDS.inc(len(requests))
            ins.WAL_APPEND_BYTES.inc(sum(len(e.payload) for e in requests))
        if self._head is not None:
            try:
                self._head.write(self._origin, seq, tip)
            except Exception as exc:  # durable, but not anchored
                return exc
        return None

    # -- group commit ---------------------------------------------------

    def _enqueue(self, entry: _Entry) -> None:
        with self._work:
            if self._committer is None or not self._committer.is_alive():
                self._stop_committer = False
                self._committer = threading.Thread(
                    target=self._committer_loop,
                    name="repro-wal-committer", daemon=True)
                self._committer.start()
            self._queue.append(entry)
            depth = len(self._queue)
            self._work.notify()
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_GROUP_QUEUE.set(depth)
        # The caller waits on ITS entry only -- never on the commit
        # lock.  (A leader-follower scheme convoys there: committed
        # appenders must re-take the lock to observe their event, and a
        # fresh appender holding it through an fsync starves them all.)

    def _committer_loop(self) -> None:
        while True:
            with self._work:
                while not self._queue and not self._stop_committer:
                    self._work.wait()
                if not self._queue:
                    return  # stopping and fully drained
            try:
                with self._lock:
                    self._commit_batch()
            except Exception as exc:  # defensive: never strand waiters
                with self._queue_lock:
                    batch = self._queue
                    self._queue = []
                self._finish(batch, exc)

    @staticmethod
    def _finish(batch: list[_Entry], error: Exception | None) -> None:
        for entry in batch:
            entry.error = error
            if entry.event is not None:
                entry.event.set()

    def _commit_batch(self) -> None:
        """Drain one batch and write it (commit lock held); fsync only
        when a request in it waits for durability."""
        with self._queue_lock:
            batch = self._queue[:self.group_max_batch]
            del self._queue[:len(batch)]
            depth = len(self._queue)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_GROUP_QUEUE.set(depth)
        if not batch:
            return
        if len(batch) < self.group_max_batch and self.group_max_wait > 0:
            # Linger for stragglers: trade a bounded latency bump for
            # fewer fsyncs.  Natural batching (appenders piling up while
            # the previous fsync runs) needs no linger at all.
            time.sleep(self.group_max_wait)
            with self._queue_lock:
                extra = self._queue[:self.group_max_batch - len(batch)]
                del self._queue[:len(extra)]
            batch.extend(extra)
        sync = any(entry.event is not None for entry in batch)
        error = self._commit_locked(batch, sync)
        if sync and error is None and obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_GROUP_COMMIT_BATCH.observe(len(batch))
        self._finish(batch, error)

    def _drain_locked(self) -> Exception | None:
        """Write whatever the group-commit queue holds (commit lock held)."""
        with self._queue_lock:
            batch, self._queue = self._queue, []
        if not batch:
            return None
        error = self._commit_locked(batch, sync=True)
        self._finish(batch, error)
        return error

    # -- failure repair -------------------------------------------------

    def _restore_durable_prefix(self) -> None:
        """Truncate back to the last durable offset (commit lock held).

        A failed write/flush/fsync can leave a torn frame mid-file; if
        later appends were allowed to land after it, the next open's
        stop-at-first-bad-frame scan would silently discard them.  The
        handle is reopened (dropping any half-flushed userspace buffer),
        the file cut back to the durable prefix, and the outcome frames
        written since the last fsync rewritten (the chain position is
        unchanged).  If the repair itself fails the log fails closed.
        """
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            self._handle = open(self.path, "ab")
            self._handle.truncate(self._durable_size)
            self._handle.write(b"".join(self._unsynced))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except Exception:
            self._failed = True
        if obs.enabled:
            log_event("wal.append_failed", path=self.path,
                      failed_closed=self._failed,
                      durable_bytes=self._durable_size)

    def health(self) -> tuple[bool, str]:
        """Readiness probe for ``/readyz``: can this log still commit?

        Fails when the log has failed closed (an unrepairable append
        error) or when grouped appends are queued but the committer
        thread is dead -- both mean new mutations cannot be made
        durable, so traffic should drain elsewhere.
        """
        if self._failed:
            return False, "failed closed after an append error"
        if self._handle.closed:
            return False, "log handle is closed"
        if self.group_commit:
            with self._queue_lock:
                pending = len(self._queue)
            committer = self._committer
            if pending and (committer is None or not committer.is_alive()):
                return False, (f"{pending} queued appends but the "
                               f"committer thread is dead")
        return True, f"durable through {self._durable_size} bytes"

    # -- checkpointing --------------------------------------------------

    def reset(self) -> None:
        """Empty the log (call only after checkpointing its effects).

        Without an archive the new log is a bare header (the chain
        restarts at genesis); an archive-backed log is sealed and
        continued behind a marker, as in :meth:`compact`.
        """
        self._truncate(None)

    def compact(self, marker: bytes = b"") -> None:
        """Truncate replayed history behind an fsync'd snapshot marker.

        Called by ``compact_storage`` after the storage engine has
        durably absorbed every logged request: the replacement log
        holds only the marker (skipped by replay).  With an archive the
        truncated frames are sealed into it first and the marker chains
        onto its final hash.  The swap is a write-temp + ``os.replace``
        + directory fsync, so a crash at any instruction leaves either
        the full old log or the compacted one -- never a torn
        in-between -- the same atomicity the checkpoint image relies
        on.  Callers must guarantee no append is in flight (the server
        holds its registry lock exclusively).
        """
        self._truncate(marker)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_COMPACTIONS.inc()
            log_event("wal.compacted", path=self.path,
                      marker=marker.decode("utf-8", "replace"))

    def _truncate(self, marker: bytes | None) -> None:
        with self._lock:
            error = self._drain_locked()
            if error is not None:
                raise error
            if self.archive_path is not None:
                archive_size = self._seal_locked()
                base = (self._seq, self._tip, archive_size)
                text = marker if marker is not None else b"checkpoint"
            else:
                base = (0, GENESIS, 0)
                text = marker
            image = LOG_HEADER
            seq, tip = base[0], base[1]
            if text is not None:
                body = encode_marker(*base, text)
                image += encode_frame(KIND_MARKER, body)
                seq, tip = seq + 1, link(tip, KIND_MARKER, body)
            tmp = self.path + ".compact.tmp"
            with open(tmp, "wb") as handle:
                handle.write(image)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            fsync_directory(self.path)
            self._handle = open(self.path, "ab")
            self._seq, self._tip, self._base = seq, tip, base
            self._requests = []
            self._answered = set()
            self._unsynced = []
            self.appended = 0
            self._durable_size = self._handle.tell()
            self._failed = False
            if marker is not None:
                self.compactions += 1
                self.snapshot_marker = bytes(marker)
            if self._head is not None:
                self._head.write(self._origin, seq, tip)

    def _seal_locked(self) -> int:
        """Append the live log's frames to the archive; returns its size.

        Requests go in as digests.  Bytes past the size the live
        marker recorded are the leftovers of a seal interrupted before
        its log swap and are cut off first; an archive shorter than the
        record was truncated by someone else and refuses to seal.
        """
        if not self._failed and self._unsynced:
            self._sync(self._handle.fileno())
            self._durable_size += sum(map(len, self._unsynced))
            self._unsynced = []
        with open(self.path, "rb") as handle:
            view = memoryview(handle.read(self._durable_size))
        recorded = self._base[2]
        path = self.archive_path
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:
            size = None
        if recorded and (size is None or size < recorded):
            raise AuditError(
                f"sealed archive {path!r} holds {size or 0} bytes but the "
                f"commit log records {recorded}: it was truncated")
        # Nothing sealed yet: an existing archive can only hold the
        # leftovers of an interrupted first seal (a log that lost its
        # history while its head survived never opens).
        created = not recorded
        with open(path, "r+b" if not created else "wb") as handle:
            if created:
                handle.write(ARCHIVE_HEADER)
            else:
                handle.truncate(recorded)
                handle.seek(recorded)
            for offset, kind, payload in iter_frames(view, len(LOG_HEADER)):
                if kind == KIND_REQUEST:
                    handle.write(encode_frame(
                        KIND_DIGEST, hashlib.sha256(payload).digest()))
                else:  # outcome and marker frames go in whole
                    handle.write(
                        view[offset:offset + _FRAME.size + len(payload)])
            handle.flush()
            os.fsync(handle.fileno())
            end = handle.tell()
        if created:
            fsync_directory(path)
        return end

    def close(self) -> None:
        committer = self._committer
        if committer is not None and committer.is_alive():
            with self._work:
                self._stop_committer = True
                self._work.notify_all()
            committer.join(timeout=10.0)
        if not self._handle.closed and self._unsynced and not self._failed:
            try:
                self.sync()
            except Exception:  # noqa: BLE001 - recovery re-derives them
                pass
        try:
            self._handle.close()
        except OSError:
            pass
        if self._head is not None:
            self._head.close()

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def checkpoint(server, image_path: str) -> None:
    """Fold the server's state into the image and reset its WAL.

    The image replace is atomic and fsync'd, so a crash at any point
    leaves either (old image + full WAL) or (new image + WAL), both of
    which :func:`recover_server` resolves to the same state.

    An engine-backed server checkpoints *incrementally* instead: dirty
    state flushes to the engine and the WAL is compacted; no image is
    written (``image_path`` is ignored).
    """
    if getattr(server, "engine", None) is not None:
        server.compact_storage()
        return
    from repro.server.persistence import save_server
    if server.wal is not None:
        server.wal.sync()  # outcome frames durable before the image
    if not obs.enabled:
        save_server(server, image_path)
        if server.wal is not None:
            server.wal.reset()
        return
    from repro.obs import instruments as ins
    with span("server.checkpoint", image=image_path):
        start = time.perf_counter()
        save_server(server, image_path)
        if server.wal is not None:
            server.wal.reset()
        ins.CHECKPOINT_SECONDS.observe(time.perf_counter() - start)
        ins.CHECKPOINTS.inc()


def recover_server(image_path: str | None, wal_path: str, params=None, *,
                   group_commit: bool = False, engine=None,
                   cache_nodes: int = 65536, audit_path: str | None = None):
    """Rebuild a server from its durable state plus commit log.

    With ``engine`` given, the server pages its files from the storage
    engine on demand -- recovery cost is O(records since the last
    compaction), not O(total state) -- and ``image_path`` may be
    ``None``.  Otherwise, a missing image means recovery starts from an
    empty server (the WAL then holds the full history since bootstrap).
    Every validated request frame is re-executed through the normal
    handlers *before* the log is attached for new appends, so replay
    never re-logs.  ``group_commit`` selects the coalescing append path
    for the re-attached log.

    ``audit_path`` opens the log in evidence mode with that archive and
    attaches an :class:`~repro.obs.audit.AuditLog`; a replayed request
    whose outcome frame never reached the log (the crash landed between
    the request's fsync and its outcome) gets it re-emitted from the
    replay, so every request frame ends up with exactly one outcome.

    The recovery breakdown (state load vs WAL replay) lands in the
    ``repro_server_cold_start_seconds`` /
    ``repro_recovery_*_seconds`` gauges and a ``server.recovered``
    event, so the compaction win shows up in ``/statusz``.
    """
    from repro.server.persistence import load_server
    from repro.server.server import CloudServer

    with span("server.recover", image=image_path, wal=wal_path):
        start = time.perf_counter()
        if engine is not None:
            server = CloudServer(params)
            server.attach_engine(engine, cache_nodes=cache_nodes)
        elif image_path is not None and os.path.exists(image_path):
            server = load_server(image_path, params)
        else:
            server = CloudServer(params)
        load_seconds = time.perf_counter() - start
        log = CommitLog(wal_path, group_commit=group_commit,
                        archive=audit_path)
        audit = None
        if audit_path is not None:
            from repro.obs.audit import AuditLog
            audit = AuditLog(log)
        pending = set(log.pending_outcomes()) if audit is not None else ()
        replayed = 0
        replay_start = time.perf_counter()
        with span("server.recover.replay"):
            for seq, payload in log.request_frames():
                server.replay_bytes(payload, seq,
                                    audit if seq in pending else None)
                replayed += 1
        if pending:
            log.sync()
        replay_seconds = time.perf_counter() - replay_start
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.WAL_REPLAYED.inc(replayed)
            ins.RECOVERIES.inc()
            ins.COLD_START_SECONDS.set(time.perf_counter() - start)
            ins.RECOVERY_CHECKPOINT_SECONDS.set(load_seconds)
            ins.RECOVERY_REPLAY_SECONDS.set(replay_seconds)
            log_event("server.recovered", replayed_records=replayed,
                      load_seconds=round(load_seconds, 6),
                      replay_seconds=round(replay_seconds, 6),
                      engine=engine is not None)
        server.last_recovery = {
            "replayed_records": replayed,
            "load_seconds": load_seconds,
            "replay_seconds": replay_seconds,
            "engine": engine is not None,
        }
        server.attach_wal(log)
        if audit is not None:
            server.attach_audit(audit)
    return server

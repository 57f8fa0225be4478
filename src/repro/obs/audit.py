"""Tamper-evident deletion audit trail: the commit log's own hash chain.

The paper promises *assured* deletion, but assurance that dies with the
process is not evidence: an operator (or a regulator) asking "who
deleted what, when, and under which tree version?" needs a durable
record that a compromised or careless server cannot silently rewrite.

The write-ahead commit log (:mod:`repro.server.wal`) already holds every
mutating request, fsync'd before it is applied, and chains its frames
with SHA-256.  Evidence mode adds what an auditor needs on top:

* an **outcome frame** per request, written by :class:`AuditLog` under
  the file's lock right after the apply -- what the request did;
* the **head anchor** ``audit.log.head`` naming the last fsync'd frame,
  rewritten in place once per fsync batch;
* the **sealed archive** ``audit.log`` that compaction appends the
  truncated history to (request payloads reduced to their digests).

:func:`verify_log` walks archive plus live log, so after the fact

* a **flipped byte** anywhere fails that frame's CRC (in the archive or
  under the head) or, with the CRC recomputed, the chain at the head;
* a **spliced-out frame** leaves an outcome naming a frame that is not
  its request, or breaks the chain at the next marker or the head;
* a **truncated tail** leaves the head anchor pointing past the end;
* a **rewritten tail** with a rebuilt chain cannot match the head hash.

Outcome record fields (canonical JSON, keys sorted)::

    ts              float   seconds since the epoch
    op              str     message type name (DeleteCommit, ...)
    request_id      int     protocol idempotency id (0 = none)
    trace_id        str?    32 hex chars when the request carried a trace
    file_id         int?    target file
    items           [int]   item ids the request names (deletions, ...)
    version_before  int?    tree version before the request applied
    version_after   int?    tree version after
    ok              bool    false when the handler answered ErrorReply
    code            int?    ErrorReply code when not ok

:func:`verify_log` adds ``seq`` (the outcome frame's position in the
chain), ``req`` (its request frame's) and ``hash`` (hex chain hash).
The audit trail is attached explicitly (``CloudServer.attach_audit`` /
``repro-vault serve --durable --audit``) and is independent of the
global observability switch -- evidence should not vanish because
metrics were off.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.errors import AuditError, ProtocolError
from repro.server import wal as walfmt
from repro.server.wal import head_path_for, read_head

__all__ = ["AuditChain", "AuditError", "AuditLog", "head_path_for",
           "read_head", "tail_records", "verify_log"]


class AuditLog:
    """Writes one outcome frame per mutating request into a commit log.

    ``wal`` must be a :class:`~repro.server.wal.CommitLog` opened with an
    ``archive`` (evidence mode): the frames ride its chain, its head
    anchor and its fsyncs.  ``append`` is called by the server under
    the file's lock and does not fsync.
    """

    def __init__(self, wal) -> None:
        if wal.archive_path is None:
            raise ValueError("AuditLog needs a CommitLog opened with "
                             "archive=<path> (evidence mode)")
        self.wal = wal
        #: Outcome frames appended through this object.
        self.appended = 0
        self._count_lock = threading.Lock()

    @property
    def path(self) -> str:
        """The sealed archive (``audit.log``)."""
        return self.wal.archive_path

    @property
    def seq(self) -> int:
        """Sequence number of the commit log's last frame."""
        return self.wal.seq

    def append(self, record: dict) -> dict:
        """Write the outcome of request frame ``record["req"]``.

        ``ts`` is assigned here; the caller provides the outcome (op,
        ids, versions, ok/code).  Returns the completed record.
        """
        start = time.perf_counter()
        entry = dict(record)
        entry.setdefault("ts", time.time())
        request_seq = entry.pop("req")
        document = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        self.wal.append_outcome(
            walfmt.encode_outcome(request_seq, document.encode("utf-8")))
        entry["req"] = request_seq
        with self._count_lock:
            self.appended += 1
        from repro.obs import runtime as obs
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.AUDIT_RECORDS.inc()
            ins.AUDIT_APPEND_SECONDS.observe(time.perf_counter() - start)
        return entry


# ---------------------------------------------------------------------
# Reading and verification
# ---------------------------------------------------------------------

@dataclass
class AuditChain:
    """What :func:`verify_log` found along archive + live log."""

    #: Outcome records in chain order (with ``seq``/``req``/``hash``).
    records: list[dict] = field(default_factory=list)
    #: Request frame seq -> payload (``None`` once sealed as a digest).
    requests: dict[int, Optional[bytes]] = field(default_factory=dict)
    #: Request seqs without an outcome yet (a crash before recovery).
    pending: list[int] = field(default_factory=list)
    #: Seq and hex chain hash of the last frame.
    seq: int = 0
    head: str = walfmt.GENESIS.hex()
    #: Seq the evidence starts after (0 = genesis).
    origin: int = 0
    #: Unacknowledged torn bytes at the end of the live log.
    torn_bytes: int = 0

    @property
    def deletions(self) -> int:
        return sum(1 for r in self.records if "Delete" in r.get("op", ""))


def _read(path: str, header: bytes, what: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    try:
        walfmt.check_header(data, header, what, path)
    except ProtocolError as exc:
        raise AuditError(str(exc)) from None
    return data


def _frames(data: bytes, header: bytes, path: str) -> tuple[list, int]:
    try:
        return walfmt.split_frames(data, len(header))
    except ProtocolError as exc:
        raise AuditError(f"{path!r}: {exc}") from None


def verify_log(archive_path: str, wal_path: str,
               head_path: Optional[str] = None, *,
               require_head: bool = True) -> AuditChain:
    """Verify the sealed archive plus the live log; raise AuditError.

    Checks, in order: both files carry the right header and version;
    the archive holds exactly the bytes the live log's marker records,
    every one inside a CRC-valid frame; the chain links across every
    snapshot marker; each outcome frame names an earlier request frame
    that has no outcome yet; and -- unless ``require_head`` is off --
    the head anchor names a frame that exists with the same hash and
    the same chain origin, so a truncated or rewritten tail cannot
    masquerade as a shorter valid log.  Only a torn live tail *past*
    the head is tolerated: a crash mid-append the head never covered.
    """
    if head_path is None:
        head_path = head_path_for(archive_path)
    live = _read(wal_path, walfmt.LOG_HEADER, "a commit log")
    if live is None:
        raise AuditError(f"no commit log at {wal_path!r}")
    live_frames, live_end = _frames(live, walfmt.LOG_HEADER, wal_path)
    recorded = 0
    if live_frames and live_frames[0][1] == walfmt.KIND_MARKER:
        recorded = _marker(live_frames[0][2])[2]
    frames = []
    if recorded:
        archive = _read(archive_path, walfmt.ARCHIVE_HEADER,
                        "an audit archive")
        if archive is None or len(archive) < recorded:
            raise AuditError(
                f"sealed archive {archive_path!r} is missing or "
                f"truncated: the commit log records {recorded} bytes")
        sealed, end = _frames(archive[:recorded], walfmt.ARCHIVE_HEADER,
                              archive_path)
        if end != recorded:
            raise AuditError(f"sealed archive {archive_path!r} is "
                             f"corrupt at byte {end}")
        frames += [(kind, payload, True) for _o, kind, payload in sealed]
    frames += [(kind, payload, False) for _o, kind, payload in live_frames]

    chain = AuditChain(torn_bytes=len(live) - live_end)
    tip = walfmt.GENESIS
    if frames and frames[0][0] == walfmt.KIND_MARKER:
        chain.origin, tip = _marker(frames[0][1])[:2]
    seq = chain.origin
    head = read_head(head_path)
    anchored = None
    answered: set[int] = set()
    for index, (kind, payload, sealed) in enumerate(frames):
        frame = seq + 1
        if kind == walfmt.KIND_MARKER:
            base_seq, base_hash = _marker(payload)[:2]
            if (base_seq, base_hash) != (seq, tip):
                raise AuditError(
                    f"chain break at frame {frame}: its snapshot marker "
                    f"continues from frame {base_seq}, not from the "
                    f"chain at frame {seq}")
            if not sealed and index != len(frames) - len(live_frames):
                raise AuditError(f"frame {frame}: snapshot marker inside "
                                 f"the live log")
        elif kind in (walfmt.KIND_REQUEST, walfmt.KIND_DIGEST):
            if sealed != (kind == walfmt.KIND_DIGEST):
                raise AuditError(
                    f"frame {frame}: {walfmt.KIND_NAMES[kind]} frame in "
                    f"the {'archive' if sealed else 'live log'}")
            chain.requests[frame] = \
                payload if kind == walfmt.KIND_REQUEST else None
        else:
            chain.records.append(_outcome(frame, payload, chain.requests,
                                          answered))
        seq = frame
        tip = walfmt.link(tip, kind, payload)
        if kind == walfmt.KIND_OUTCOME:
            chain.records[-1]["hash"] = tip.hex()
        if head is not None and seq == head[1]:
            anchored = tip
    chain.seq, chain.head = seq, tip.hex()
    chain.pending = [r for r in chain.requests if r not in answered]

    if head is None:
        if require_head and frames:
            raise AuditError(f"audit head {head_path!r} is missing; cannot "
                             f"rule out a truncated tail")
        return chain
    origin, head_seq, head_hash = head
    if head_seq > seq:
        raise AuditError(
            f"truncated tail: head acknowledges frame {head_seq} but the "
            f"log ends {'torn ' if chain.torn_bytes else ''}at {seq}")
    if anchored != head_hash:
        raise AuditError(f"head anchor mismatch at frame {head_seq}: the "
                         f"anchored hash does not match the log")
    if origin != chain.origin:
        raise AuditError(f"chain origin mismatch: the head records "
                         f"evidence after frame {origin}, the log starts "
                         f"after frame {chain.origin}")
    return chain


def _marker(payload: bytes) -> tuple[int, bytes, int, bytes]:
    try:
        return walfmt.decode_marker(payload)
    except ProtocolError as exc:
        raise AuditError(str(exc)) from None


def _outcome(frame: int, payload: bytes,
             requests: dict[int, Optional[bytes]],
             answered: set[int]) -> dict:
    try:
        request_seq, document = walfmt.decode_outcome(payload)
        record = json.loads(document)
    except (ProtocolError, ValueError) as exc:
        raise AuditError(f"outcome frame {frame} is unreadable: {exc}") \
            from None
    if not isinstance(record, dict):
        raise AuditError(f"outcome frame {frame} is not a JSON object")
    if request_seq not in requests or request_seq in answered:
        raise AuditError(
            f"outcome frame {frame} names frame {request_seq}, which is "
            f"not a request awaiting its outcome (a frame was spliced "
            f"out or reordered)")
    answered.add(request_seq)
    record["seq"], record["req"] = frame, request_seq
    return record


def tail_records(archive_path: str, wal_path: str,
                 count: int = 10) -> list[dict]:
    """The last ``count`` outcome records (for ``repro-vault audit
    tail``); the chain is walked but the head is not required."""
    records = verify_log(archive_path, wal_path,
                         require_head=False).records
    return records[-count:] if count > 0 else []

"""Structured JSON logging: one JSON object per line.

This is deliberately not the stdlib ``logging`` module: the records are
machine-first (the CI smoke test and the tracing tests parse them back),
every record carries the active trace ids, and there is exactly one
process-wide sink so client and server halves of a loopback deployment
interleave into a single auditable stream.

Record schema (fields beyond these are span/event attributes)::

    ts        float   seconds since the epoch
    service   str     configured service name
    event     str     "span" for span records, else the event name
    name      str     span name (span records only)
    trace_id  str     32 hex chars, absent outside a trace
    span_id   str     16 hex chars
    parent_span_id    str | absent (root spans)
    duration_ms       float (span records only)
    status    str     "ok" | "error" (span records only)
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Optional

_lock = threading.Lock()
_stream: Optional[IO[str]] = None
_owns_stream = False
_service = "repro"


def configure(path: Optional[str] = None,
              stream: Optional[IO[str]] = None,
              service: str = "repro") -> None:
    """Point the process-wide sink at a file path or an open stream.

    Passing neither detaches the sink (records are dropped).  A path is
    opened in append mode and closed on the next ``configure``.
    """
    global _stream, _owns_stream, _service
    if path is not None and stream is not None:
        raise ValueError("pass a path or a stream, not both")
    with _lock:
        if _owns_stream and _stream is not None:
            try:
                _stream.close()
            except OSError:
                pass
        if path is not None:
            _stream = open(path, "a", encoding="utf-8")
            _owns_stream = True
        else:
            _stream = stream
            _owns_stream = False
        _service = service


def emit(record: dict) -> None:
    """Serialise one record to the sink (no-op when detached)."""
    stream = _stream
    if stream is None:
        return
    record.setdefault("ts", time.time())
    record.setdefault("service", _service)
    line = json.dumps(record, separators=(",", ":"), default=repr)
    with _lock:
        if _stream is None:  # detached while we serialised
            return
        _stream.write(line + "\n")
        _stream.flush()

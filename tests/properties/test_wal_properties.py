"""Property test: the WAL v2 / audit-chain decoders fail closed.

An evidence-mode commit log (sealed archive + live log + head anchor,
the last outcome frame written but never anchored, as a crash leaves
it) is damaged at random -- a flipped byte, a truncation, a frame
spliced out or duplicated, a garbage tail -- in the live log or in the
archive.  Whatever the damage:

* opening the log either truncates frames the head never acknowledged
  and keeps every acknowledged request, or raises ``ProtocolError`` /
  ``AuditError``;
* ``verify_log`` either returns or raises ``AuditError``, and it must
  raise whenever the damage reaches an acknowledged or sealed byte;
* nothing else is ever raised, and nothing hangs.
"""

import os
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import AuditError, ProtocolError
from repro.obs.audit import AuditLog, verify_log
from repro.server.wal import CommitLog, read_head, split_frames
from tests.conftest import scaled_examples

HEADER_SIZE = 6


def _build(directory, before, after):
    """``before`` audited requests, a compaction, ``after`` more; then
    the crash (the last outcome frame is never anchored)."""
    wal_path = os.path.join(directory, "server.wal")
    archive = os.path.join(directory, "audit.log")
    wal = CommitLog(wal_path, archive=archive)
    audit = AuditLog(wal)
    for index in range(before + after):
        if index == before:
            wal.compact(b"snapshot")
        seq = wal.append(b"request-%d" % index)
        audit.append({"req": seq, "op": "DeleteCommit", "file_id": 1,
                      "request_id": index + 1, "items": [index],
                      "version_before": index, "version_after": index + 1,
                      "ok": True, "code": None, "trace_id": None})
    wal._handle.close()  # kill -9: no close-time sync
    wal._head.close()
    return wal_path, archive


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _mutate(data, frames, action, where, value):
    """Apply one kind of damage; returns (new bytes, first byte touched)."""
    if action == "flip":
        position = where % len(data)
        damaged = bytearray(data)
        damaged[position] ^= value % 255 + 1
        return bytes(damaged), position
    if action == "truncate":
        cut = where % len(data)
        return data[:cut], cut
    if action == "garbage":
        return data + bytes([value % 256]) * (where % 40 + 1), len(data)
    if not frames:
        return data, len(data)
    offset, _kind, payload = frames[where % len(frames)]
    end = offset + 8 + len(payload)
    if action == "splice":
        return data[:offset] + data[end:], offset
    return data[:end] + data[offset:end] + data[end:], end  # duplicate


@settings(max_examples=scaled_examples(60), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(before=st.integers(0, 3), after=st.integers(1, 3),
       target=st.sampled_from(["live", "archive"]),
       action=st.sampled_from(["flip", "truncate", "garbage", "splice",
                               "duplicate"]),
       where=st.integers(0, 10_000), value=st.integers(0, 10_000))
def test_damaged_logs_truncate_or_fail_closed(before, after, target, action,
                                              where, value):
    with tempfile.TemporaryDirectory() as directory:
        wal_path, archive = _build(directory, before, after)
        _origin, head_seq, _digest = read_head(archive + ".head")
        live = _read(wal_path)
        live_frames = split_frames(live, HEADER_SIZE)[0]
        # The anchored prefix: everything but the unanchored last
        # outcome frame.
        acknowledged_end = live_frames[-1][0]
        original = verify_log(archive, wal_path)
        anchored = _anchored(original.requests, head_seq)
        with CommitLog(wal_path) as plain:
            live_anchored = _anchored(dict(plain.request_frames()), head_seq)
        path = wal_path if target == "live" else archive
        if target == "archive" and not os.path.exists(archive):
            return
        data = _read(path)
        damaged, touched = _mutate(
            data, split_frames(data, HEADER_SIZE)[0], action, where, value)
        if damaged == data:
            return
        with open(path, "wb") as handle:
            handle.write(damaged)
        if target == "live":
            sealed = touched < acknowledged_end
        else:
            sealed = touched < len(data)  # every archive byte is sealed

        try:
            chain = verify_log(archive, wal_path)
        except AuditError:
            pass
        else:
            assert not sealed, (action, touched)
            assert _anchored(chain.requests, head_seq) == anchored

        try:
            log = CommitLog(wal_path, archive=archive)
        except (ProtocolError, AuditError):
            return
        # Opened: only frames past the head may have been cut.
        assert log.seq >= head_seq
        assert _anchored(dict(log.request_frames()), head_seq) == \
            live_anchored
        log.close()


def _anchored(requests, head_seq):
    return {seq: payload for seq, payload in requests.items()
            if seq <= head_seq}


def test_version_one_log_is_refused_by_name(tmp_path):
    wal_path = str(tmp_path / "server.wal")
    with open(wal_path, "wb") as handle:
        handle.write(b"RWAL" + struct.pack(">H", 1)
                     + struct.pack(">II", 3, 0) + b"old")
    with pytest.raises(ProtocolError, match="version 1"):
        CommitLog(wal_path)
    with pytest.raises(AuditError, match="version 1"):
        verify_log(str(tmp_path / "audit.log"), wal_path)


def test_clean_build_verifies(tmp_path):
    wal_path, archive = _build(str(tmp_path), 2, 2)
    chain = verify_log(archive, wal_path)
    assert len(chain.requests) == len(chain.records) == 4
    assert [r["request_id"] for r in chain.records] == [1, 2, 3, 4]

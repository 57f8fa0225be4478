"""The tamper-evident audit chain: appends, recovery, tamper detection.

The audit chain is the commit log itself: request frames, the outcome
frame after each, the head anchor, and the archive compaction seals.
A flipped byte, a truncated tail, a spliced-out frame and a rewritten
tail must each fail verification -- in the live log and in the sealed
archive -- while an untampered log verifies clean and mirrors what the
server actually applied.
"""

import os
import pickle

import pytest

from repro.core.errors import ReproError
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.obs import audit as audit_mod
from repro.obs.audit import AuditError, AuditLog, read_head, verify_log
from repro.protocol import messages as msg
from repro.server.server import CloudServer
from repro.server.wal import (ARCHIVE_HEADER, GENESIS, KIND_DIGEST,
                              KIND_MARKER, KIND_OUTCOME, CommitLog,
                              decode_marker, encode_frame, encode_outcome,
                              head_path_for, link, split_frames)

HEADER_SIZE = 6  # magic + u16 version, for the log and the archive


class Paths:
    def __init__(self, tmp_path):
        self.wal = str(tmp_path / "server.wal")
        self.archive = str(tmp_path / "audit.log")
        self.head = head_path_for(self.archive)

    def open(self, **kwargs):
        return CommitLog(self.wal, archive=self.archive, **kwargs)

    def verify(self, **kwargs):
        return verify_log(self.archive, self.wal, **kwargs)


def _outcome(op, seq):
    return {"req": seq, "op": op, "request_id": 1, "file_id": 7,
            "items": [], "version_before": 0, "version_after": 1,
            "ok": True, "code": None, "trace_id": None}


def _fill(tmp_path, ops):
    """One request frame plus its outcome frame per op, as the server
    writes them; closing the log anchors the last outcome."""
    paths = Paths(tmp_path)
    with paths.open() as wal:
        audit = AuditLog(wal)
        for op in ops:
            audit.append(_outcome(op, wal.append(op.encode())))
    return paths


def _frames(path, header_size=HEADER_SIZE):
    with open(path, "rb") as handle:
        data = handle.read()
    return data, split_frames(data, header_size)[0]


def _frame_end(frame):
    offset, _kind, payload = frame
    return offset + 8 + len(payload)


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


# ---------------------------------------------------------------------
# Chain mechanics
# ---------------------------------------------------------------------

def test_appends_chain_and_verify_clean(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit",
                             "ModifyCommit"])
    chain = paths.verify()
    assert [r["op"] for r in chain.records] == ["DeleteCommit",
                                               "InsertCommit",
                                               "ModifyCommit"]
    assert [r["seq"] for r in chain.records] == [2, 4, 6]
    assert [r["req"] for r in chain.records] == [1, 3, 5]
    assert sorted(chain.requests) == [1, 3, 5]
    assert chain.pending == []
    # Every frame links onto its predecessor: hᵢ = H(hᵢ₋₁ ‖ kind ‖ H(p)).
    tip, hashes = GENESIS, {}
    for seq, (_offset, kind, payload) in enumerate(_frames(paths.wal)[1],
                                                   start=1):
        tip = link(tip, kind, payload)
        hashes[seq] = tip.hex()
    assert [r["hash"] for r in chain.records] == \
        [hashes[2], hashes[4], hashes[6]]
    assert chain.head == hashes[6]


def test_head_file_anchors_the_tail(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "DeleteCommit"])
    origin, seq, digest = read_head(paths.head)
    chain = paths.verify()
    assert (origin, seq) == (0, 4)
    assert digest.hex() == chain.head
    # Fixed layout, overwritten in place: two slots, never a temp file.
    assert os.path.getsize(paths.head) == 6 + 2 * 52
    assert not os.path.exists(paths.head + ".tmp")


def test_reopen_continues_the_chain(tmp_path):
    paths = Paths(tmp_path)
    with paths.open() as wal:
        AuditLog(wal).append(_outcome("DeleteCommit", wal.append(b"d")))
    with paths.open() as wal:
        assert wal.seq == 2
        AuditLog(wal).append(_outcome("InsertCommit", wal.append(b"i")))
    assert [r["op"] for r in paths.verify().records] == \
        ["DeleteCommit", "InsertCommit"]


def test_torn_unacknowledged_tail_is_truncated_on_open(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit"])
    with open(paths.wal, "ab") as handle:  # crash mid-append
        handle.write(encode_frame(0, b"InsertCommit")[:11])
    assert paths.verify().torn_bytes == 11  # past the head: tolerated
    with paths.open() as wal:
        assert wal.seq == 2
        AuditLog(wal).append(_outcome("ModifyCommit", wal.append(b"m")))
    assert [r["op"] for r in paths.verify().records] == \
        ["DeleteCommit", "ModifyCommit"]


def test_torn_tail_the_head_acknowledges_is_an_error(tmp_path):
    # If the head says frame 4 is durable but the log ends torn at 3,
    # the tail was tampered with (or the head was forged) -- refuse to
    # open, never truncate acknowledged history away.
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit"])
    data, frames = _frames(paths.wal)
    _write(paths.wal, data[:frames[-1][0] + 10])
    with pytest.raises(AuditError, match="head acknowledges frame 4"):
        paths.open()
    with pytest.raises(AuditError, match="truncated tail"):
        paths.verify()


# ---------------------------------------------------------------------
# Tamper detection (the acceptance criteria trio)
# ---------------------------------------------------------------------

def test_flipped_byte_is_detected(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit",
                             "ModifyCommit"])
    data, frames = _frames(paths.wal)
    offset, kind, payload = frames[3]  # the InsertCommit outcome
    position = data.index(b"InsertCommit", offset)
    flipped = bytearray(data)
    flipped[position] ^= 0x01
    _write(paths.wal, bytes(flipped))
    # The frame's CRC fails: everything from frame 4 on is unreadable,
    # yet the head acknowledges frame 6.
    with pytest.raises(AuditError, match="head acknowledges frame 6 but "
                                         "the log ends torn at 3"):
        paths.verify()
    # Re-framing the altered payload with a fresh CRC moves the chain
    # off the anchored hash instead.
    forged = payload.replace(b"InsertCommit", b"InsertCommiu")
    _write(paths.wal, data[:offset] + encode_frame(kind, forged)
           + data[_frame_end(frames[3]):])
    with pytest.raises(AuditError, match="head anchor mismatch"):
        paths.verify()


def test_spliced_out_record_is_detected(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit",
                             "ModifyCommit"])
    data, frames = _frames(paths.wal)
    # Drop the middle request frame: its outcome now names a frame that
    # is not a request awaiting one.
    _write(paths.wal, data[:frames[2][0]] + data[frames[3][0]:])
    with pytest.raises(AuditError, match="spliced out"):
        paths.verify()
    # Drop the middle request AND outcome: every later outcome now
    # names the wrong frame too.
    _write(paths.wal, data[:frames[2][0]] + data[frames[4][0]:])
    with pytest.raises(AuditError, match="outcome frame 4 names frame 5"):
        paths.verify()


def test_truncated_tail_is_detected_via_the_head(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit",
                             "ModifyCommit"])
    data, frames = _frames(paths.wal)
    _write(paths.wal, data[:frames[4][0]])  # drop the acknowledged tail
    with pytest.raises(AuditError, match="truncated tail"):
        paths.verify()
    # Without the head anchor the shortened log looks internally valid:
    # exactly the attack the head exists to catch.
    os.unlink(paths.head)
    assert len(paths.verify(require_head=False).records) == 2


def test_rewritten_tail_with_rebuilt_chain_fails_the_head_anchor(tmp_path):
    # An attacker who rewrites the last outcome AND re-frames it (valid
    # CRC, chain recomputed on the fly) still cannot match the head.
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit"])
    data, frames = _frames(paths.wal)
    forged = encode_outcome(3, b'{"code":null,"file_id":7,"items":[],'
                               b'"ok":true,"op":"ModifyCommit",'
                               b'"request_id":1,"trace_id":null,'
                               b'"ts":0,"version_after":1,'
                               b'"version_before":0}')
    _write(paths.wal, data[:frames[3][0]]
           + encode_frame(KIND_OUTCOME, forged))
    with pytest.raises(AuditError, match="head anchor mismatch"):
        paths.verify()


def test_missing_head_is_an_error_unless_waived(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit"])
    os.unlink(paths.head)
    with pytest.raises(AuditError, match="head .* missing"):
        paths.verify()
    assert len(paths.verify(require_head=False).records) == 1


def test_tampered_sealed_archive_is_detected(tmp_path):
    paths = _fill(tmp_path, ["DeleteCommit", "InsertCommit"])
    with paths.open() as wal:
        wal.compact(b"snapshot files=1")
        AuditLog(wal).append(_outcome("ModifyCommit", wal.append(b"m")))
    chain = paths.verify()
    assert [r["op"] for r in chain.records] == \
        ["DeleteCommit", "InsertCommit", "ModifyCommit"]
    # Sealing kept digests and outcomes, not request payloads; the live
    # log's marker carries the archive's size and final hash.
    sealed, frames = _frames(paths.archive)
    assert sealed.startswith(ARCHIVE_HEADER)
    assert [kind for _o, kind, _p in frames] == \
        [KIND_DIGEST, KIND_OUTCOME] * 2
    assert chain.requests == {1: None, 3: None, 6: b"m"}
    tip = GENESIS
    for _offset, kind, payload in frames:
        tip = link(tip, kind, payload)
    marker = _frames(paths.wal)[1][0]
    assert marker[1] == KIND_MARKER
    assert decode_marker(marker[2])[:3] == (4, tip, len(sealed))

    # A flipped byte inside the archive.
    flipped = bytearray(sealed)
    flipped[frames[1][0] + 20] ^= 0x01
    _write(paths.archive, bytes(flipped))
    with pytest.raises(AuditError, match="corrupt"):
        paths.verify()
    # A re-framed (CRC-valid) rewrite: the chain no longer reaches the
    # hash the marker continues from.
    offset, kind, payload = frames[1]
    forged = payload.replace(b"DeleteCommit", b"ModifyCommit")
    _write(paths.archive, sealed[:offset] + encode_frame(kind, forged)
           + sealed[_frame_end(frames[1]):])
    with pytest.raises(AuditError, match="chain break at frame 5"):
        paths.verify()
    # A truncated archive.
    _write(paths.archive, sealed[:frames[2][0]])
    with pytest.raises(AuditError, match="truncated"):
        paths.verify()


# ---------------------------------------------------------------------
# Server emission
# ---------------------------------------------------------------------

def _fs_with_audit(tmp_path, seed="audit"):
    fs = OutsourcedFileSystem(rng=DeterministicRandom(seed))
    paths = Paths(tmp_path)
    wal = paths.open()
    fs.server.attach_wal(wal)
    fs.server.attach_audit(AuditLog(wal))
    return fs, paths


def test_every_mutation_kind_is_audited(tmp_path):
    fs, paths = _fs_with_audit(tmp_path)
    f = fs.create_file("a", [b"r0", b"r1", b"r2", b"r3"])
    f.write_record(0, b"new")
    f.append_record(b"r4")
    f.delete_record(1)
    f.delete_many([0, 1])
    fs.delete_file("a")
    fs.server.wal.close()

    chain = paths.verify()
    ops = [r["op"] for r in chain.records]
    for expected in ("OutsourceRequest", "ModifyCommit", "InsertCommit",
                     "DeleteCommit", "BatchDeleteCommit",
                     "DeleteFileRequest"):
        assert expected in ops, expected
    # Reads are not mutations and never hit the trail.
    assert "AccessRequest" not in ops
    # One outcome per request frame, each right behind its request.
    assert chain.pending == []
    assert len(chain.records) == len(chain.requests)


def test_audit_record_carries_versions_items_and_request_id(tmp_path):
    fs, paths = _fs_with_audit(tmp_path)
    f = fs.create_file("a", [b"x", b"y", b"z"])
    file_id = f.file_id
    item_id = f._record.index.item_id_at(1)
    f.delete_record(1)
    fs.server.wal.close()

    # The deletion also shreds the master-key record in the meta tree
    # (its own ReplaceCommit there); look at the data file's only.
    deletes = [r for r in paths.verify().records
               if r["op"] == "DeleteCommit" and r["file_id"] == file_id]
    (record,) = deletes
    assert record["file_id"] == file_id
    assert record["items"] == [item_id]
    assert record["version_after"] == record["version_before"] + 1
    assert record["request_id"] > 0
    assert record["ok"] is True


def test_rejected_mutation_is_audited_with_its_error_code(tmp_path):
    fs, paths = _fs_with_audit(tmp_path)
    fs.create_file("a", [b"x"])
    reply = fs.server.handle(msg.DeleteCommit(
        file_id=999_999, item_id=5, request_id=12345))
    assert isinstance(reply, msg.ErrorReply)
    fs.server.wal.close()

    rejected = [r for r in paths.verify().records if not r["ok"]]
    (record,) = rejected
    assert record["op"] == "DeleteCommit"
    assert record["file_id"] == 999_999
    assert record["request_id"] == 12345
    assert record["code"] == reply.code


def test_audit_works_with_observability_disabled(tmp_path):
    # The trail is evidence, not telemetry: it must record with the
    # global obs flag off (the default in this suite's fixture).
    from repro.obs import runtime
    assert not runtime.enabled
    fs, paths = _fs_with_audit(tmp_path)
    f = fs.create_file("a", [b"x", b"y"])
    f.delete_record(0)
    fs.server.wal.close()
    assert any(r["op"] == "DeleteCommit" for r in paths.verify().records)


def test_traced_mutation_records_its_trace_id(tmp_path):
    from repro import obs
    obs.enable()
    try:
        fs, paths = _fs_with_audit(tmp_path)
        f = fs.create_file("a", [b"x", b"y"])
        f.delete_record(0)
        fs.server.wal.close()
        deletes = [r for r in paths.verify().records
                   if r["op"] == "DeleteCommit"]
        assert all(isinstance(r["trace_id"], str)
                   and len(r["trace_id"]) == 32 for r in deletes)
    finally:
        obs.disable()


def test_server_with_audit_still_pickles(tmp_path):
    fs, _paths = _fs_with_audit(tmp_path)
    fs.create_file("a", [b"x"])
    clone = pickle.loads(pickle.dumps(fs.server))
    assert clone.audit is None and clone.wal is None  # open handles stay
    assert clone.file_ids() == fs.server.file_ids()
    fs.server.wal.close()


def test_audit_needs_the_commit_log(tmp_path):
    paths = Paths(tmp_path)
    with CommitLog(str(tmp_path / "plain.wal")) as plain:
        with pytest.raises(ValueError, match="archive"):
            AuditLog(plain)
    with paths.open() as wal:
        with pytest.raises(ReproError, match="attach a WAL"):
            CloudServer().attach_audit(AuditLog(wal))
        server = CloudServer(wal=CommitLog(str(tmp_path / "other.wal")))
        with pytest.raises(ReproError, match="attach a WAL"):
            server.attach_audit(AuditLog(wal))
        server.wal.close()


def test_tail_records_returns_the_last_n(tmp_path):
    paths = _fill(tmp_path, [f"Op{i}" for i in range(7)])
    tail = audit_mod.tail_records(paths.archive, paths.wal, 3)
    assert [r["op"] for r in tail] == ["Op4", "Op5", "Op6"]


def test_append_counts_into_metrics_when_enabled(tmp_path):
    from repro import obs
    from repro.obs import instruments as ins
    obs.enable()
    try:
        _fill(tmp_path, ["DeleteCommit", "InsertCommit"])
        assert ins.AUDIT_RECORDS.value() == 2
        assert ins.AUDIT_APPEND_SECONDS.count() == 2
    finally:
        obs.disable()

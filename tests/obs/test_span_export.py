"""JSON-lines span export: sampling, slow-span override, lifecycle."""

import io
import json

import pytest

from repro import obs
from repro.obs import spanexport
from repro.obs.spanexport import SpanExporter
from repro.obs.trace import span


def _exported(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_every_span_exported_at_full_sample(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    obs.enable()
    spanexport.configure(path)
    with span("outer"):
        with span("inner"):
            pass
    spanexport.detach()

    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert {r["name"] for r in records} == {"outer", "inner"}
    assert all(r["export"] == "sampled" for r in records)
    # Children share the root's trace id -- the tree survives intact.
    assert len({r["trace_id"] for r in records}) == 1


def test_sampling_is_deterministic_by_trace_id():
    exporter = SpanExporter(stream=io.StringIO(), sample=0.5)
    kept = "00" * 16      # head u64 = 0 -> always below any rate > 0
    dropped = "ff" * 16   # head u64 = max -> above any rate < 1
    assert exporter.sampled(kept)
    assert not exporter.sampled(dropped)
    # Same id, same answer, every time (whole trees sample together).
    assert all(exporter.sampled(kept) for _ in range(10))


def test_sampled_out_spans_are_dropped_and_counted():
    stream = io.StringIO()
    obs.enable()
    spanexport.configure(stream=stream, sample=0.0)
    with span("unwanted"):
        pass
    assert _exported(stream) == []
    from repro.obs import instruments as ins
    assert ins.SPANS_DROPPED.value(reason="unsampled") == 1
    assert ins.SPANS_EXPORTED.total() == 0


def test_slow_span_exports_despite_zero_sample_rate():
    stream = io.StringIO()
    obs.enable()
    spanexport.configure(stream=stream, sample=0.0, slow_ms=0.0)
    with span("slow.op"):
        pass  # any duration >= 0.0ms qualifies
    (record,) = _exported(stream)
    assert record["name"] == "slow.op"
    assert record["export"] == "slow"
    from repro.obs import instruments as ins
    assert ins.SPANS_EXPORTED.value(reason="slow") == 1


def test_disable_detaches_the_exporter(tmp_path):
    obs.enable()
    spanexport.configure(str(tmp_path / "s.jsonl"))
    assert spanexport.active() is not None
    obs.disable()
    assert spanexport.active() is None


def test_reconfigure_replaces_and_closes_the_previous_exporter(tmp_path):
    obs.enable()
    first = spanexport.configure(str(tmp_path / "a.jsonl"))
    second = spanexport.configure(str(tmp_path / "b.jsonl"))
    assert spanexport.active() is second
    assert first._handle.closed


def test_write_failure_is_swallowed_and_counted():
    class Exploding(io.StringIO):
        def write(self, *_):
            raise OSError("disk full")

    obs.enable()
    spanexport.configure(stream=Exploding())
    with span("doomed"):
        pass  # must not raise out of the traced operation
    from repro.obs import instruments as ins
    assert ins.SPANS_DROPPED.value(reason="error") == 1


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        SpanExporter(stream=io.StringIO(), sample=1.5)
    with pytest.raises(ValueError):
        SpanExporter()


def test_record_shape_matches_the_log_sink(tmp_path):
    # The exported record is the span's log record plus the export
    # reason, so downstream tooling can parse either source identically.
    stream = io.StringIO()
    obs.enable()
    spanexport.configure(stream=stream)
    with span("fs.delete", file_id=3):
        pass
    (record,) = _exported(stream)
    for key in ("event", "name", "trace_id", "span_id", "duration_ms",
                "status", "export"):
        assert key in record, key
    assert record["file_id"] == 3
    assert record["status"] == "ok"

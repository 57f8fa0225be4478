"""Metrics collection and aggregation."""

from repro.sim.metrics import MetricsCollector, OpRecord


def record(op, sent=100, received=200, psent=0, preceived=50, seconds=0.5,
           hashes=7):
    return OpRecord(op=op, bytes_sent=sent, bytes_received=received,
                    payload_sent=psent, payload_received=preceived,
                    client_seconds=seconds, hash_calls=hashes)


def test_overhead_definition():
    r = record("delete")
    assert r.total_bytes == 300
    assert r.overhead_bytes == 250


def test_collector_aggregation():
    collector = MetricsCollector()
    collector.add(record("delete", sent=100))
    collector.add(record("delete", sent=300))
    collector.add(record("access", sent=10))
    assert [r.overhead_bytes for r in collector.for_op("delete")] == \
        [250, 450]
    assert [r.op for r in collector.for_op("access")] == ["access"]
    assert collector.for_op("nope") == []


def test_collector_clear():
    collector = MetricsCollector()
    collector.add(record("x"))
    collector.clear()
    assert collector.records == []


def test_overhead_never_negative():
    # Hand-built record whose payload fields exceed the byte totals must
    # clamp to zero, not report negative overhead.
    r = OpRecord(op="weird", bytes_sent=10, bytes_received=10,
                 payload_sent=50, payload_received=50)
    assert r.overhead_bytes == 0

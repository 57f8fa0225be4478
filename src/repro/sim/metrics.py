"""Measurement plumbing for the experiment harness.

The paper's three metrics (Section VI) are client storage, communication
overhead, and client computation.  This module gives each a first-class
representation:

* byte counts come from the metering channel (exact, per direction, with
  item payload separated so the paper's "overhead does not include the
  data item itself" definition can be applied);
* client computation is wall-clock time around client-side work *plus*
  the exact chain-hash invocation count, since pure-Python wall-clock
  carries an interpreter constant the paper's C-speed numbers do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import runtime as _obs


@dataclass
class OpRecord:
    """Everything measured about one client operation."""

    op: str
    bytes_sent: int = 0
    bytes_received: int = 0
    payload_sent: int = 0
    payload_received: int = 0
    client_seconds: float = 0.0
    hash_calls: int = 0
    round_trips: int = 0
    retries: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def overhead_bytes(self) -> int:
        """Protocol bytes excluding item payload (the paper's metric).

        Clamped at zero: a record whose payload fields exceed its byte
        totals (hand-built, or totals lost to a transport error) reports
        no overhead rather than a negative byte count.
        """
        return max(0,
                   self.total_bytes - self.payload_sent
                   - self.payload_received)


@dataclass
class MetricsCollector:
    """Accumulates per-operation records for an experiment run."""

    records: list[OpRecord] = field(default_factory=list)

    def add(self, record: OpRecord) -> None:
        self.records.append(record)
        if _obs.enabled:
            _obs.record_op(record)

    def for_op(self, op: str) -> list[OpRecord]:
        return [r for r in self.records if r.op == op]

    def clear(self) -> None:
        self.records.clear()

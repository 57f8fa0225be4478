"""Fault-injecting channel for distributed-systems failure testing.

Wraps any transport and injects, deterministically from a seeded
schedule:

* **drops** -- the request never reaches the server (client sees
  :class:`ChannelError`, models a timeout);
* **response drops** -- the server processed the request but the reply is
  lost (the nasty case: state changed, client does not know);
* **duplicates** -- the request is delivered twice (models a retransmit
  racing a slow reply);
* **delays** -- the request is delivered after ``delay_seconds`` of
  injected latency (models a slow link; the reply still arrives);
* **crashes** -- the server process dies mid-commit, either after the
  WAL record was made durable but before it was applied
  (:data:`CRASH_BEFORE_APPLY`) or after it was applied but before the
  reply went out (:data:`CRASH_AFTER_APPLY`).  The client sees
  :class:`ChannelError`; the test harness must then restart the server
  from disk (``repro.server.wal.recover_server``), because the crashed
  in-memory instance is in a state a real ``kill -9`` would have lost.

The tests in ``tests/protocol/test_faults.py`` and
``tests/server/test_crash_recovery.py`` pin down the library's recovery
semantics under each fault: reads are always safely retryable, versioned
commits are protected against duplicate application by the tree-version
check and the request-id replay cache, and a lost deletion ACK is safe to
replay the journalled commit for (exactly-once either way: answered by
the replay cache, or else settled by the client from the tree).

Server computation time is metered into ``counters.server_seconds``
exactly as :class:`~repro.protocol.channel.LoopbackChannel` does --
including the shadow delivery of a duplicated request -- so Figure-6
style client-computation metrics stay honest under fault schedules.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

from repro.core.errors import ReproError, SimulatedCrash
from repro.protocol.channel import Channel
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel


class ChannelError(ReproError):
    """The request (or its response) was lost in transit."""


#: Fault kinds understood by the schedule.
DROP_REQUEST = "drop-request"
DROP_RESPONSE = "drop-response"
DUPLICATE = "duplicate"
DELAY = "delay"
CRASH_BEFORE_APPLY = "crash-before-apply"
CRASH_AFTER_APPLY = "crash-after-apply"
NONE = "none"

_VALID = {DROP_REQUEST, DROP_RESPONSE, DUPLICATE, DELAY,
          CRASH_BEFORE_APPLY, CRASH_AFTER_APPLY, NONE}

_CRASH_POINTS = {CRASH_BEFORE_APPLY: "before-apply",
                 CRASH_AFTER_APPLY: "after-apply"}


class FaultInjectingChannel(Channel):
    """Delivers requests through ``inner`` according to a fault schedule.

    ``schedule`` is any iterable of fault kinds; it is consumed one entry
    per request (per message of a flight, which is delivered one message
    after the other) and treated as :data:`NONE` once exhausted.
    """

    def __init__(self, server, schedule: Iterable[str],
                 ctx: WireContext | None = None,
                 network: NetworkModel | None = None,
                 delay_seconds: float = 0.005) -> None:
        if ctx is None:
            ctx = getattr(server, "ctx", None)
        if ctx is None:
            raise ReproError("server does not expose a wire context")
        super().__init__(ctx, network)
        self._server = server
        self._schedule: Iterator[str] = iter(schedule)
        self.faults_injected: list[str] = []
        self.delay_seconds = delay_seconds
        #: Encoded bytes of the most recent request (crash-test hook: a
        #: client retransmission resends exactly these bytes).
        self.last_request_bytes: bytes | None = None

    def _next_fault(self) -> str:
        fault = next(self._schedule, NONE)
        if fault not in _VALID:
            raise ValueError(f"unknown fault kind {fault!r}")
        return fault

    def _deliver(self, request_bytes: bytes) -> bytes:
        """One server delivery, with server time metered (Figure 6)."""
        start = time.perf_counter()
        try:
            return self._server.handle_bytes(request_bytes)
        finally:
            self.counters.server_seconds += time.perf_counter() - start

    def _transport(self, request_bytes: bytes) -> bytes:
        self.last_request_bytes = request_bytes
        fault = self._next_fault()
        if fault != NONE:
            self.faults_injected.append(fault)
        if fault == DROP_REQUEST:
            raise ChannelError("request lost (timeout)")
        if fault == DROP_RESPONSE:
            self._deliver(request_bytes)  # server DID act
            raise ChannelError("response lost (timeout)")
        if fault == DUPLICATE:
            self._deliver(request_bytes)  # shadow delivery
            return self._deliver(request_bytes)
        if fault == DELAY:
            time.sleep(self.delay_seconds)
            return self._deliver(request_bytes)
        if fault in _CRASH_POINTS:
            self._server.arm_crash(_CRASH_POINTS[fault])
            try:
                return self._deliver(request_bytes)
            except SimulatedCrash as exc:
                raise ChannelError(f"server crashed mid-commit: {exc}") \
                    from exc
            finally:
                # A non-mutating request never reaches a commit crash
                # point; do not leave the trap armed for the next one.
                self._server.disarm_crash()
        return self._deliver(request_bytes)

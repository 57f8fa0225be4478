"""TCP transport: run the cloud server as a real network service.

The loopback channel is exact for measurement, but a reproduction of a
*distributed* system should also actually cross a socket.  This module
holds the one framing, the one client channel and their shared helpers:

* the framing -- every message travels as one **tagged** frame::

      u32 (0x80000000 | length) | u64 tag | payload

  The length never exceeds :data:`MAX_FRAME` (1 << 30), so the top bit
  of the length word is free; it is always set (:data:`TAG_FLAG`), and
  the host closes a connection that sends a frame without it.  The tag
  is a transport-level correlation id chosen by the client, unrelated to
  the protocol-level idempotent ``request_id`` (which the server still
  dedupes on).  A reply echoes its request's tag and may overtake
  earlier replies on the same connection;
* :func:`error_reply_bytes`, which the server host
  (:class:`~repro.protocol.host.TcpServerHost`) uses to answer a
  request its backend failed on;
* :class:`TcpChannel` -- a :class:`~repro.protocol.channel.Channel` over
  one persistent connection, with the same byte accounting as the
  loopback channel.  Many threads may share it; a flight of read-only
  requests goes out in one write;
* :class:`RetryPolicy` -- per-request timeout and exponential-backoff
  retry knobs for the channel.

The framing adds 12 bytes per message each way; the accounting counts
message bytes only (as the paper excludes transport framing), with the
frame overhead available separately.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from dataclasses import dataclass

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import log_event
from repro.protocol.channel import Channel
from repro.protocol.faults import ChannelError
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel

#: Frame header: the length word (top bit set) and the u64 tag.
HEADER = struct.Struct(">IQ")
#: Top bit of the length word: set on every frame.
TAG_FLAG = 0x80000000
#: Upper bound on one message frame (a whole-file reply can be large).
MAX_FRAME = 1 << 30
#: Bytes one ``recv_into`` may read into a connection's reusable buffer.
_RECV_SIZE = 1 << 16


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for :class:`TcpChannel`.

    ``attempts`` bounds total tries (1 = no retry).  Attempt ``i`` waits
    ``min(max_delay, base_delay * multiplier ** (i-1))`` before its
    retransmit; delays are deterministic (no jitter) so tests and
    measurements are reproducible.
    """

    attempts: int = 4
    timeout: float = 30.0
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay_before(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (the first retry is 1)."""
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** (attempt - 1))


def error_reply_bytes(backend, request_bytes: bytes,
                      exc: Exception) -> bytes | None:
    """Encode an ErrorReply for a request the backend failed on.

    The failing request is re-decoded (best effort) so the reply echoes
    its ``request_id`` and trace trailer -- a pipelined client, and the
    obs layer, can then correlate the failure with the request that
    caused it.  Returns ``None`` when the backend has no wire context
    (a baseline backend cannot produce protocol messages at all).
    """
    ctx = getattr(backend, "ctx", None)
    if ctx is None:
        return None
    from repro.protocol import messages as msg
    request_id = 0
    trace = None
    try:
        request = msg.decode_message(ctx, request_bytes)
        request_id = getattr(request, "request_id", 0) or 0
        trace = msg.get_trace(request)
    except Exception:
        pass  # undecodable request: nothing to echo
    reply = msg.ErrorReply(code=msg.E_BAD_REQUEST, detail=str(exc),
                           request_id=request_id)
    return msg.encode_message(ctx, reply, trace=trace)


class _Flight:
    """The requests of one send awaiting their replies."""

    __slots__ = ("replies", "outstanding", "error")

    def __init__(self, size: int) -> None:
        self.replies: list[bytes | None] = [None] * size
        self.outstanding = size
        self.error: Exception | None = None


class _Connection:
    """One dialled socket, the replies it owes, and its unparsed bytes."""

    __slots__ = ("sock", "poller", "inbound", "buffer", "pending")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.poller = select.poll()
        self.poller.register(sock, select.POLLIN)
        #: Receives land here first: no allocation per ``recv``.
        self.inbound = memoryview(bytearray(_RECV_SIZE))
        #: Bytes read but not yet parsed: the start of the next frame.
        self.buffer = bytearray()
        #: tag -> (flight, index of the request in it)
        self.pending: dict[int, tuple[_Flight, int]] = {}


class TcpChannel(Channel):
    """Client channel over one persistent TCP connection.

    Safe for concurrent use from many threads, and starts no thread of
    its own.  Every request goes out as a tagged frame; the caller that
    waits reads the socket itself, one caller at a time.  A reply for
    another caller's tag is handed to that caller (which wakes at once),
    and when the reading caller has its own replies the reading passes
    to a caller still waiting.  A flight of several requests takes one
    tag each and goes out in one write.

    Timeouts do NOT tear the connection down when the stream is between
    frames: the retransmit goes out under a fresh tag, and the late
    reply to the old tag -- when it arrives -- matches no request and is
    dropped.  A timeout inside a frame, a reset or EOF drops the
    connection; every request in flight on it fails over to its retry
    schedule, which re-dials.  Mutating messages stay exactly-once end
    to end because the server dedupes their protocol ``request_id``.

    The inherited byte counters are cumulative across all threads (they
    are not synchronised per field; use single-threaded runs for exact
    accounting, as the paper's measurements do).
    """

    def __init__(self, address: tuple[str, int], ctx: WireContext,
                 network: NetworkModel | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(ctx, network)
        if retry is None:
            retry = RetryPolicy(timeout=timeout if timeout is not None
                                else 30.0)
        elif timeout is not None:
            raise ValueError("pass the timeout inside the RetryPolicy")
        self.retry = retry
        self._address = address
        #: Transport framing bytes (12 per frame each way), kept apart
        #: from the protocol counters.
        self.frame_bytes = 0
        #: Guards the connection, the tags and the reader role; callers
        #: without the role wait on ``_cond`` for their replies.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._send_lock = threading.Lock()  # serialises sendall only
        #: Set by close(): wakes a retry parked in its backoff sleep and
        #: stops further attempts from re-dialling.
        self._closing = threading.Event()
        self._conn: _Connection | None = None
        self._generation = 0  # connections dialled so far
        self._next_tag = 0
        self._reading = False  # a caller holds the reader role
        self._waiting = 0  # callers parked on ``_cond``
        with self._lock:
            self._dial()  # fail fast if the server is unreachable

    # -- connection management (lock held) ------------------------------

    def _dial(self) -> _Connection:
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        sock = socket.create_connection(self._address,
                                        timeout=self.retry.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Reads wait in poll() against each flight's deadline; the
        # socket itself blocks.
        sock.settimeout(None)
        self._conn = _Connection(sock)
        self._generation += 1
        return self._conn

    def _invalidate(self, conn: _Connection, error: Exception) -> None:
        """Drop ``conn`` and fail every flight still waiting on it."""
        if conn is not self._conn:
            return  # already dropped
        self._conn = None
        try:
            # Wakes a caller blocked reading this socket.
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()
        for flight, _index in conn.pending.values():
            if flight.error is None:
                flight.error = error
        conn.pending.clear()
        self._wake()

    def _wake(self) -> None:
        if self._waiting:
            self._cond.notify_all()

    # -- reading (lock held, one caller at a time) ----------------------

    def _read(self, conn: _Connection, flight: _Flight,
              deadline: float) -> None:
        """Read frames until ``flight`` is answered or fails.

        The lock is released around every wait on the socket.  Raises
        :class:`TimeoutError` only if the deadline passes between frames
        (the stream stays in sync); a timeout inside a frame drops the
        connection, because the stream is then unusable.
        """
        buffer = conn.buffer
        pending = conn.pending
        while flight.outstanding and flight.error is None:
            size = len(buffer)
            if size >= HEADER.size:
                word, tag = HEADER.unpack_from(buffer)
                end = HEADER.size + (word & ~TAG_FLAG)
                if not word & TAG_FLAG or end - HEADER.size > MAX_FRAME:
                    self._invalidate(conn, ProtocolError(
                        "peer sent an untagged or oversized frame"))
                    return
                if size >= end:
                    payload = bytes(memoryview(buffer)[HEADER.size:end])
                    del buffer[:end]
                    entry = pending.pop(tag, None)
                    if entry is None:
                        # The late reply to a request that timed out
                        # and went out again under a fresh tag.
                        if obs.enabled:
                            log_event("rpc.late_reply_dropped", tag=tag)
                        continue
                    owner, index = entry
                    owner.replies[index] = payload
                    owner.outstanding -= 1
                    if owner is not flight:
                        self._wake()  # another caller's reply
                    continue
            self._lock.release()
            try:
                remaining = deadline - time.monotonic()
                if remaining > 0 and conn.poller.poll(remaining * 1000.0):
                    received = conn.sock.recv_into(conn.inbound)
                    failure = None if received else ConnectionError(
                        "peer closed the connection")
                elif buffer:
                    failure = ConnectionError("timed out inside a frame")
                else:
                    raise TimeoutError("no reply before the deadline")
            except TimeoutError:
                raise  # between frames: the connection stays usable
            except OSError as exc:
                failure = exc
            finally:
                self._lock.acquire()
            if failure is not None:
                self._invalidate(conn, failure)
                return
            buffer += conn.inbound[:received]

    # -- request path ---------------------------------------------------

    def _round_trip(self, requests: list[bytes]) -> list[bytes]:
        """Send one flight under fresh tags and wait for its replies."""
        flight = _Flight(len(requests))
        with self._lock:
            conn = self._conn or self._dial()
            first = self._next_tag + 1
            self._next_tag += len(requests)
            for index in range(len(requests)):
                conn.pending[first + index] = (flight, index)
        frames = b"".join(
            HEADER.pack(TAG_FLAG | len(request_bytes), first + index)
            + request_bytes for index, request_bytes in enumerate(requests))
        try:
            with self._send_lock:
                conn.sock.sendall(frames)
        except OSError as exc:
            with self._lock:  # a partial write desyncs the stream
                self._invalidate(conn, exc)
            raise
        deadline = time.monotonic() + self.retry.timeout
        with self._lock:
            try:
                while flight.outstanding and flight.error is None:
                    if not self._reading:
                        self._reading = True
                        try:
                            self._read(conn, flight, deadline)
                        finally:
                            self._reading = False
                            self._wake()  # pass the reading on
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("no reply before the deadline")
                    self._waiting += 1
                    try:
                        self._cond.wait(remaining)
                    finally:
                        self._waiting -= 1
            except BaseException:
                for index in range(len(requests)):
                    # A late reply to these tags is dropped.
                    conn.pending.pop(first + index, None)
                raise
        if flight.error is not None:
            raise flight.error
        return flight.replies  # type: ignore[return-value]

    def _transport(self, request_bytes: bytes) -> bytes:
        return self._transport_many([request_bytes])[0]

    def _transport_many(self, requests: list[bytes]) -> list[bytes]:
        # A failed attempt sends the whole flight again: only read-only
        # requests share a flight, so a request answered before the
        # failure is safe to send again.
        for request_bytes in requests:
            if len(request_bytes) > MAX_FRAME:
                raise ProtocolError("frame too large")
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            if attempt:
                # The wait doubles as the close interrupt.
                if self._closing.wait(self.retry.delay_before(attempt)):
                    break
                self.counters.retransmits += 1
                if obs.enabled:
                    from repro.obs import instruments as ins
                    ins.RPC_RETRANSMITS.inc()
                    log_event("rpc.retransmit", attempt=attempt,
                              error=repr(last_error))
            try:
                responses = self._round_trip(requests)
            except (ChannelError, ProtocolError):
                # Closed, or a peer framing violation: not transient.
                raise
            except OSError as exc:
                # Timeouts, resets, EOF (ConnectionError is an OSError).
                last_error = exc
                continue
            self.frame_bytes += 2 * HEADER.size * len(requests)
            return responses
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        raise ChannelError(
            f"request failed after {self.retry.attempts} attempt(s): "
            f"{last_error!r}")

    def close(self) -> None:
        self._closing.set()  # wakes a retry parked in its backoff sleep
        with self._lock:
            if self._conn is not None:
                self._invalidate(self._conn,
                                 ChannelError("channel is closed"))

    def __enter__(self) -> "TcpChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

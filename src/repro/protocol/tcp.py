"""TCP transport: run the cloud server as a real network service.

The loopback channel is exact for measurement, but a reproduction of a
*distributed* system should also actually cross a socket.  This module
frames the existing binary messages over TCP (4-byte big-endian length
prefix) and provides:

* the framing helpers (:func:`recv_frame`, :func:`recv_exact`) and
  :func:`error_reply_bytes`, shared with the server host,
  :class:`~repro.protocol.aio.AsyncTcpServerHost`, which answers these
  untagged frames (in arrival order) as well as its own pipelined
  tagged ones;
* :class:`TcpChannel` -- a :class:`~repro.protocol.channel.Channel` that
  speaks the framing over a persistent connection, with the same byte
  accounting as the loopback channel; a flight of read-only requests
  goes out in one write and its replies are read back in order;
* :class:`RetryPolicy` -- per-request timeout and exponential-backoff
  retry knobs for the channel.

A request that fails mid-round-trip (timeout, reset, EINTR) *invalidates
the connection*: a late reply to request N must never be consumed as the
reply to request N+1, so the socket is torn down and re-dialled before
the retransmit.  Retransmits are safe because every mutating message
carries an idempotent ``request_id`` the server dedupes on.

The framing adds 4 bytes per message; the accounting counts message bytes
only (as the paper excludes transport framing), with the frame overhead
available separately.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import log_event
from repro.protocol.channel import Channel
from repro.protocol.faults import ChannelError
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel

_LENGTH = struct.Struct(">I")
#: Upper bound on one message frame (a whole-file reply can be large).
MAX_FRAME = 1 << 30


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


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame."""
    (length,) = _LENGTH.unpack(recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ProtocolError("peer announced an oversized frame")
    return recv_exact(sock, length)


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


class TcpChannel(Channel):
    """Client channel over a persistent TCP connection.

    Round trips run under ``retry``: a timed-out or broken exchange tears
    the socket down (late replies die with it), re-dials, and retransmits
    the same encoded bytes.  Mutating messages carry idempotent request
    ids, so a retransmit the server already applied is answered from its
    replay cache.
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
        self._sock: socket.socket | None = None
        #: Transport framing bytes, kept apart from the protocol counters.
        self.frame_bytes = 0
        self._lock = threading.Lock()
        #: Set by close(): wakes a retry parked in its backoff sleep and
        #: stops further attempts from re-dialling.
        self._closing = threading.Event()
        self._connect()  # fail fast if the server is unreachable

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address,
                                        timeout=self.retry.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _invalidate(self) -> None:
        """Drop the connection: its byte stream can hold a stale reply."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _transport(self, request_bytes: bytes) -> bytes:
        return self._transport_many([request_bytes])[0]

    def _transport_many(self, requests: list[bytes]) -> list[bytes]:
        # One flight: every frame in one write, then the replies in
        # request order (the host answers untagged frames in order).
        # A failed attempt retransmits the whole flight on a fresh
        # connection; only read-only requests share a flight, so a
        # request answered before the failure is safe to send again.
        for request_bytes in requests:
            if len(request_bytes) > MAX_FRAME:
                raise ProtocolError("frame too large")
        frames = b"".join(_LENGTH.pack(len(request_bytes)) + request_bytes
                          for request_bytes in requests)
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            if attempt:
                # Back off OUTSIDE the lock: a concurrent close() (or
                # another caller) must not wait out the whole retry
                # schedule.  The wait doubles as the close interrupt.
                if self._closing.wait(self.retry.delay_before(attempt)):
                    break
                self.counters.retransmits += 1
                if obs.enabled:
                    from repro.obs import instruments as ins
                    ins.RPC_RETRANSMITS.inc()
                    log_event("rpc.retransmit", attempt=attempt,
                              error=repr(last_error))
            with self._lock:
                if self._closing.is_set():
                    break
                try:
                    sock = self._sock if self._sock is not None \
                        else self._connect()
                    sock.sendall(frames)
                    responses = [recv_frame(sock) for _ in requests]
                except ProtocolError:
                    # Peer framing violation: not transient, do not retry.
                    self._invalidate()
                    raise
                except (OSError, ConnectionError) as exc:
                    # Includes socket.timeout/TimeoutError.  The stream
                    # may still deliver this request's reply later, so
                    # the socket must never be reused.
                    self._invalidate()
                    last_error = exc
                    continue
                self.frame_bytes += 8 * len(requests)  # u32 length each way
                return responses
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        raise ChannelError(
            f"request failed after {self.retry.attempts} attempt(s): "
            f"{last_error!r}")

    def close(self) -> None:
        self._closing.set()  # wakes a retry parked in its backoff sleep
        with self._lock:
            self._invalidate()

    def __enter__(self) -> "TcpChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

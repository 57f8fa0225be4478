"""Asyncio transport: one event loop, thousands of connections, pipelining.

This module holds the one TCP server host.  A thread-per-connection
host flattens out near a handful of clients, because every idle
persistent connection pins a thread.  :class:`AsyncTcpServerHost`
multiplexes all connections onto ONE asyncio event loop and lets each
connection keep **multiple requests in flight** (pipelining), while
protocol work still runs in a thread pool off the loop -- the backend,
its per-file RWLock table, and the WAL are shared and untouched.

Framing
-------

The legacy transport frames messages as ``u32 length | payload`` and the
length never exceeds :data:`~repro.protocol.tcp.MAX_FRAME` (1 << 30), so
the top bit of the length word is free.  A **tagged** frame sets it::

    untagged  u32 length            | payload              (legacy)
    tagged    u32 (0x80000000|len)  | u64 tag | payload    (pipelined)

* An untagged request gets an untagged reply, and untagged replies are
  written in request arrival order -- byte-for-byte what the untagged
  :class:`~repro.protocol.tcp.TcpChannel` expects.
* A tagged request gets a tagged reply echoing its tag, and tagged
  replies may return **out of order**.  The tag is a transport-level
  correlation id chosen by the client, unrelated to the protocol-level
  idempotent ``request_id`` (which the server still dedupes on).

:class:`AsyncTcpChannel` is the pipelining client: many threads can
issue requests through one connection concurrently; a background reader
correlates replies by tag.  A timed-out request is retransmitted under a
FRESH tag on the same connection -- the late reply's stale tag no longer
matches anything and is dropped, so no connection teardown is needed
(unlike the sync channel, whose untagged stream cannot tell a late reply
from the next one).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import os
import socket
import struct
import threading
import time
from typing import Optional

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.health import HEALTH
from repro.obs.trace import log_event
from repro.protocol.channel import Channel
from repro.protocol.faults import ChannelError
from repro.protocol.tcp import (MAX_FRAME, RetryPolicy, error_reply_bytes,
                                recv_exact)
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel

_LENGTH = struct.Struct(">I")
_TAG = struct.Struct(">Q")
#: Top bit of the length word: set = tagged (pipelined) frame.
TAG_FLAG = 0x80000000

#: Period of the host's heartbeat task.  Each beat measures how late the
#: loop woke (scheduling lag -- THE async saturation signal) and samples
#: the executor queue depth; the ``/readyz`` probe calls the loop
#: unresponsive when beats stop arriving for several periods.
MONITOR_INTERVAL = 0.25

logger = logging.getLogger(__name__)


class _AioConnection:
    """Server side of one client connection on the event loop."""

    def __init__(self, host: "AsyncTcpServerHost",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._host = host
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._tasks: set[asyncio.Task] = set()
        #: Bounds requests in flight on THIS connection; excess frames
        #: stay unread in the socket (per-connection backpressure).
        self._inflight = asyncio.Semaphore(host.max_inflight_per_conn)
        # Untagged replies must leave in request arrival order even
        # though handlers finish out of order: a sequence number per
        # untagged request plus a reorder buffer at the writer.
        self._untagged_next_in = 0
        self._untagged_next_out = 0
        self._untagged_ready: dict[int, bytes] = {}
        self._broken = False

    async def serve(self) -> None:
        try:
            while True:
                try:
                    head = await self._reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break
                (word,) = _LENGTH.unpack(head)
                length = word & ~TAG_FLAG
                if length > MAX_FRAME:
                    logger.warning("async host: peer announced an "
                                   "oversized frame; closing connection")
                    break
                try:
                    tag: Optional[int] = None
                    if word & TAG_FLAG:
                        (tag,) = _TAG.unpack(await self._reader.readexactly(8))
                    payload = await self._reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break
                await self._inflight.acquire()
                seq = None
                if tag is None:
                    seq = self._untagged_next_in
                    self._untagged_next_in += 1
                task = asyncio.ensure_future(self._process(seq, tag, payload))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            await self._drain_and_close()

    async def _drain_and_close(self) -> None:
        # EOF (or peer reset): let the requests already in flight finish
        # and their replies flush before closing the socket.  A second
        # cancellation (stop() past its grace) aborts the in-flight
        # tasks instead of waiting them out.
        try:
            if self._tasks:
                await asyncio.gather(*list(self._tasks),
                                     return_exceptions=True)
        except asyncio.CancelledError:
            for task in list(self._tasks):
                task.cancel()
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
            raise
        finally:
            try:
                self._writer.close()
            except Exception:
                pass

    async def _process(self, seq: Optional[int], tag: Optional[int],
                       payload: bytes) -> None:
        host = self._host
        try:
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    host._pool, host.backend.handle_bytes, payload)
            except Exception as exc:
                response = error_reply_bytes(host.backend, payload, exc)
                if response is None:
                    logger.error(
                        "backend %r failed without a wire context to "
                        "report through: %s",
                        type(host.backend).__name__, exc)
                    self._broken = True
                    try:
                        self._writer.close()
                    except Exception:
                        pass
                    return
            await self._send(seq, tag, response)
        finally:
            self._inflight.release()

    async def _send(self, seq: Optional[int], tag: Optional[int],
                    response: bytes) -> None:
        if self._broken:
            return
        try:
            async with self._write_lock:
                if tag is not None:
                    self._writer.write(_LENGTH.pack(TAG_FLAG | len(response))
                                       + _TAG.pack(tag) + response)
                else:
                    # Reorder buffer: flush every consecutive untagged
                    # reply that is now ready, oldest first.
                    self._untagged_ready[seq] = response
                    while self._untagged_next_out in self._untagged_ready:
                        ready = self._untagged_ready.pop(
                            self._untagged_next_out)
                        self._untagged_next_out += 1
                        self._writer.write(_LENGTH.pack(len(ready)) + ready)
                await self._writer.drain()
        except (ConnectionError, OSError):
            self._broken = True
            try:
                self._writer.close()
            except Exception:
                pass


class AsyncTcpServerHost:
    """Hosts a ``handle_bytes`` backend on one asyncio event loop.

    Usable as a context manager::

        with AsyncTcpServerHost(CloudServer()) as host:
            channel = TcpChannel(host.address, server.ctx)

    ``start``/``stop``/``address``; a restart after ``stop`` rebinds the
    same port.  Built to multiplex 1000+ connections: the loop owns all
    sockets, handlers run in a bounded thread pool, and each connection
    may pipeline many tagged requests (see the module docstring for the
    framing).

    ``max_conns`` bounds concurrently *served* connections: excess
    clients are accepted but not read until a slot frees (backpressure).
    ``stop()`` stops accepting, nudges idle connections closed, lets
    in-flight handler work (e.g. a WAL fsync) finish within ``grace``
    seconds, and force-abandons whatever is still wedged after it.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0,
                 max_conns: int | None = None,
                 max_inflight_per_conn: int = 64,
                 workers: int | None = None) -> None:
        if not hasattr(backend, "handle_bytes"):
            raise TypeError("backend must expose handle_bytes")
        if max_conns is not None and max_conns < 1:
            raise ValueError("max_conns must be >= 1")
        if max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be >= 1")
        self.backend = backend
        self.max_conns = max_conns
        self.max_inflight_per_conn = max_inflight_per_conn
        self.workers = workers or min(32, (os.cpu_count() or 4) + 4)
        self._bind_address = (host, port)
        # Bind eagerly so the kernel-assigned port is known before
        # start() and survives stop()/start() cycles.
        self._sock: socket.socket | None = self._make_socket()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._conn_slots: asyncio.Semaphore | None = None
        self._started = False
        self._monitor_task: asyncio.Task | None = None
        self._last_beat = 0.0
        self._loop_lag = 0.0

    def _make_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self._bind_address)
        self._bind_address = sock.getsockname()
        return sock

    @property
    def address(self) -> tuple[str, int]:
        return self._bind_address  # type: ignore[return-value]

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "AsyncTcpServerHost":
        if self._started:
            return self
        if self._sock is None:
            self._sock = self._make_socket()
        self._loop = asyncio.new_event_loop()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-aio-worker")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-aio-server", daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self._startup(), self._loop).result(timeout=10.0)
        self._started = True
        HEALTH.register(self._health_name, self.health)
        return self

    def _run_loop(self) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _startup(self) -> None:
        if self.max_conns is not None:
            self._conn_slots = asyncio.Semaphore(self.max_conns)
        self._server = await asyncio.start_server(self._on_connect,
                                                  sock=self._sock)
        self._last_beat = time.monotonic()
        self._monitor_task = asyncio.ensure_future(self._monitor())

    async def _monitor(self) -> None:
        """Heartbeat: loop scheduling lag + executor queue depth."""
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(MONITOR_INTERVAL)
            self._loop_lag = max(0.0,
                                 loop.time() - before - MONITOR_INTERVAL)
            self._last_beat = time.monotonic()
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.AIO_LOOP_LAG_SECONDS.set(self._loop_lag)
                pool = self._pool
                if pool is not None:
                    # Stdlib-private but stable: jobs not yet picked up
                    # by a worker thread.
                    ins.AIO_EXECUTOR_QUEUE.set(pool._work_queue.qsize())

    @property
    def _health_name(self) -> str:
        return f"aio-loop:{self._bind_address[1]}"

    def health(self) -> tuple[bool, str]:
        """Readiness probe: is the event loop still scheduling work?"""
        if not self._started:
            return False, "host is stopped"
        age = time.monotonic() - self._last_beat
        if age > max(8 * MONITOR_INTERVAL, 2.0):
            return False, f"event loop unresponsive for {age:.1f}s"
        return True, f"loop lag {self._loop_lag * 1e3:.2f}ms"

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        # asyncio sets TCP_NODELAY only on sockets whose ``proto`` is
        # IPPROTO_TCP, and sockets accepted from the plain listening
        # socket report 0: without this, Nagle holds a pipelined
        # flight's second reply until the client's delayed ACK.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.TCP_CONNECTIONS.inc()
            ins.TCP_INFLIGHT.inc()
        try:
            if self._conn_slots is not None:
                # Backpressure: the connection is accepted but no frame
                # is read until a serving slot frees up.
                await self._conn_slots.acquire()
            try:
                await _AioConnection(self, reader, writer).serve()
            finally:
                if self._conn_slots is not None:
                    self._conn_slots.release()
        except asyncio.CancelledError:
            pass  # stop() abandoned this connection past its grace
        finally:
            self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.TCP_INFLIGHT.dec()
            try:
                writer.close()
            except Exception:
                pass

    def stop(self, grace: float = 5.0) -> None:
        """Stop accepting, drain connections (bounded by ``grace``)."""
        if not self._started:
            return
        assert self._loop is not None and self._thread is not None
        HEALTH.unregister(self._health_name)
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(grace),
                self._loop).result(timeout=max(0.0, grace) + 15.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if self._pool is not None:
                # Abandoned (wedged) handler work keeps its thread; do
                # not wait for it, or a wedged backend hangs shutdown.
                self._pool.shutdown(wait=False, cancel_futures=True)
            self._sock = None  # closed with the asyncio server
            self._loop = None
            self._thread = None
            self._pool = None
            self._server = None
            self._conn_tasks = set()
            self._conn_writers = set()
            self._conn_slots = None
            self._monitor_task = None
            self._started = False

    async def _shutdown(self, grace: float) -> None:
        assert self._server is not None
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        self._server.close()
        await self._server.wait_closed()

        # Nudge every open connection: shutting down the read half makes
        # an idle serve() loop see EOF immediately, while a connection
        # with requests in flight still drains them (and their replies).
        for writer in list(self._conn_writers):
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass

        tasks = list(self._conn_tasks)
        abandoned = 0
        pending: set[asyncio.Task] = set()
        if tasks:
            _done, pending = await asyncio.wait(
                tasks, timeout=max(0.0, grace))
            abandoned = len(pending)
            # Two cancellation rounds: the first breaks a connection out
            # of its read/accept wait into its drain, the second aborts
            # the drain itself (a wedged handler cannot be joined -- its
            # pool thread is abandoned).
            for _round in range(2):
                if not pending:
                    break
                for task in pending:
                    task.cancel()
                _done, pending = await asyncio.wait(pending, timeout=1.0)
        # Force-close whatever sockets remain (abandoned connections).
        for writer in list(self._conn_writers):
            transport = writer.transport
            try:
                if transport is not None:
                    transport.abort()
            except Exception:
                pass
        if abandoned:
            logger.warning("async host stop: abandoned %d connection(s) "
                           "still busy after %.1fs grace", abandoned, grace)

    def __enter__(self) -> "AsyncTcpServerHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Waiter:
    """One in-flight tagged request awaiting its correlated reply."""

    __slots__ = ("event", "response", "error", "generation")

    def __init__(self, generation: int) -> None:
        self.event = threading.Event()
        self.response: bytes | None = None
        self.error: Exception | None = None
        self.generation = generation


class AsyncTcpChannel(Channel):
    """Pipelining client channel over one persistent TCP connection.

    Safe for concurrent use from many threads: each request is sent as a
    tagged frame and a background reader thread correlates replies by
    tag, so MANY requests ride the same connection simultaneously
    (against :class:`AsyncTcpServerHost`, which replies to tagged frames
    possibly out of order).  A flight of several requests takes one tag
    each and goes out in one write.

    Timeouts do NOT tear the connection down: the retransmit goes out
    under a fresh tag and the late reply to the old tag -- if it ever
    arrives -- matches no waiter and is dropped.  Mutating messages stay
    exactly-once end to end because the server dedupes their protocol
    ``request_id``.  Connection failures reconnect transparently; the
    requests that were in flight fail over to their retry schedule.

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
        self._mutex = threading.Lock()  # socket state + pending table
        self._send_lock = threading.Lock()  # serialises sendall only
        self._closing = threading.Event()
        self._sock: socket.socket | None = None
        self._generation = 0
        self._next_tag = 0
        self._pending: dict[int, _Waiter] = {}
        with self._mutex:
            self._ensure_connected()  # fail fast if unreachable

    # -- connection management (mutex held) -----------------------------

    def _ensure_connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        sock = socket.create_connection(self._address,
                                        timeout=self.retry.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The reader thread blocks in recv indefinitely; per-request
        # timeouts are enforced by each waiter, not the socket.
        sock.settimeout(None)
        self._sock = sock
        self._generation += 1
        reader = threading.Thread(target=self._read_loop,
                                  args=(sock, self._generation),
                                  name="repro-aio-channel-reader",
                                  daemon=True)
        reader.start()
        return sock

    def _invalidate(self, generation: int,
                    error: Exception | None = None) -> None:
        """Drop the connection of ``generation`` and fail its waiters."""
        if generation != self._generation:
            return  # someone already reconnected past it
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._generation += 1  # retires the old reader thread
        failed = [w for w in self._pending.values()
                  if w.generation == generation]
        for waiter in failed:
            if waiter.error is None:
                waiter.error = error or ConnectionError("connection lost")
            waiter.event.set()

    # -- reader thread --------------------------------------------------

    def _read_loop(self, sock: socket.socket, generation: int) -> None:
        try:
            while True:
                (word,) = _LENGTH.unpack(recv_exact(sock, 4))
                if not word & TAG_FLAG:
                    raise ProtocolError(
                        "untagged frame on a pipelined channel")
                length = word & ~TAG_FLAG
                if length > MAX_FRAME:
                    raise ProtocolError("peer announced an oversized frame")
                (tag,) = _TAG.unpack(recv_exact(sock, 8))
                payload = recv_exact(sock, length)
                with self._mutex:
                    waiter = self._pending.pop(tag, None)
                if waiter is not None:
                    waiter.response = payload
                    waiter.event.set()
                # Unknown tag: the late reply to a request that already
                # timed out and was retransmitted under a fresh tag.
                elif obs.enabled:
                    log_event("rpc.late_reply_dropped", tag=tag)
        except Exception as exc:
            with self._mutex:
                self._invalidate(generation, exc)

    # -- request path ---------------------------------------------------

    def _register_and_send(self, requests: list[bytes]
                           ) -> list[tuple[_Waiter, int]]:
        """Tag every request and send them all in one write."""
        with self._mutex:
            sock = self._ensure_connected()
            generation = self._generation
            sent = []
            for _request in requests:
                self._next_tag += 1
                waiter = _Waiter(generation)
                self._pending[self._next_tag] = waiter
                sent.append((waiter, self._next_tag))
        frames = b"".join(_LENGTH.pack(TAG_FLAG | len(request_bytes))
                          + _TAG.pack(tag) + request_bytes
                          for request_bytes, (_waiter, tag)
                          in zip(requests, sent))
        try:
            with self._send_lock:
                sock.sendall(frames)
        except (OSError, ConnectionError) as exc:
            with self._mutex:
                for _waiter, tag in sent:
                    self._pending.pop(tag, None)
                self._invalidate(generation, exc)
            raise
        return sent

    def _transport(self, request_bytes: bytes) -> bytes:
        return self._transport_many([request_bytes])[0]

    def _transport_many(self, requests: list[bytes]) -> list[bytes]:
        for request_bytes in requests:
            if len(request_bytes) > MAX_FRAME:
                raise ProtocolError("frame too large")
        responses: list[bytes | None] = [None] * len(requests)
        last_error: Exception | None = None
        for attempt in range(self.retry.attempts):
            if attempt:
                if self._closing.wait(self.retry.delay_before(attempt)):
                    break
                self.counters.retransmits += 1
                if obs.enabled:
                    from repro.obs import instruments as ins
                    ins.RPC_RETRANSMITS.inc()
                    log_event("rpc.retransmit", attempt=attempt,
                              error=repr(last_error))
            # Only the requests still unanswered go out again.
            todo = [i for i, response in enumerate(responses)
                    if response is None]
            try:
                sent = self._register_and_send([requests[i] for i in todo])
            except ChannelError:
                raise
            except (OSError, ConnectionError) as exc:
                last_error = exc
                continue
            deadline = time.monotonic() + self.retry.timeout
            for i, (waiter, tag) in zip(todo, sent):
                if not waiter.event.wait(max(0.0,
                                             deadline - time.monotonic())):
                    # Timed out: forget the tag (a late reply will be
                    # dropped by the reader) and retransmit under a NEW
                    # tag.
                    with self._mutex:
                        self._pending.pop(tag, None)
                    last_error = TimeoutError(
                        f"no reply within {self.retry.timeout}s")
                elif waiter.error is not None:
                    last_error = waiter.error
                else:
                    responses[i] = waiter.response
            if None not in responses:
                # u32 word + u64 tag, each way
                self.frame_bytes += 24 * len(requests)
                return responses  # type: ignore[return-value]
        if self._closing.is_set():
            raise ChannelError("channel is closed")
        raise ChannelError(
            f"request failed after {self.retry.attempts} attempt(s): "
            f"{last_error!r}")

    def close(self) -> None:
        self._closing.set()
        with self._mutex:
            self._invalidate(self._generation,
                             ChannelError("channel is closed"))

    def __enter__(self) -> "AsyncTcpChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

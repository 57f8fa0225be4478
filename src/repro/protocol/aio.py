"""Asyncio transport: one event loop, thousands of connections, pipelining.

This module holds the one TCP server host.  A thread-per-connection
host flattens out near a handful of clients, because every idle
persistent connection pins a thread.  :class:`AsyncTcpServerHost`
multiplexes all connections onto ONE asyncio event loop and lets each
connection keep **multiple requests in flight** (pipelining), while
protocol work still runs in a thread pool off the loop -- the backend,
its per-file RWLock table, and the WAL are shared and untouched.

Every frame is tagged (see :mod:`repro.protocol.tcp` for the framing
and the one client, :class:`~repro.protocol.tcp.TcpChannel`): a reply
echoes its request's tag and may leave before the replies to earlier
requests.  A frame without the tag bit closes its connection: its
payload is never read.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import os
import socket
import threading
import time

from repro.obs import runtime as obs
from repro.obs.health import HEALTH
from repro.protocol.tcp import HEADER, MAX_FRAME, TAG_FLAG, error_reply_bytes

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
        self._broken = False

    async def serve(self) -> None:
        try:
            while True:
                try:
                    word, tag = HEADER.unpack(
                        await self._reader.readexactly(HEADER.size))
                    if not word & TAG_FLAG:
                        # Refused before its payload is read.
                        logger.warning("async host: peer sent an untagged "
                                       "frame; closing connection")
                        break
                    length = word & ~TAG_FLAG
                    if length > MAX_FRAME:
                        logger.warning("async host: peer announced an "
                                       "oversized frame; closing connection")
                        break
                    payload = await self._reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break
                await self._inflight.acquire()
                task = asyncio.ensure_future(self._process(tag, payload))
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

    async def _process(self, tag: int, payload: bytes) -> None:
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
            await self._send(tag, response)
        finally:
            self._inflight.release()

    async def _send(self, tag: int, response: bytes) -> None:
        if self._broken:
            return
        try:
            async with self._write_lock:
                self._writer.write(HEADER.pack(TAG_FLAG | len(response), tag)
                                   + response)
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
    may pipeline many tagged requests (see :mod:`repro.protocol.tcp` for
    the framing).

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

"""The TCP server host: leader/followers threads over one epoll (Linux).

``workers`` threads share one ``select.epoll``; one at a time, the
leader, waits in ``poll``, takes one ready socket, passes the lead on,
then reads a whole frame, runs ``handle_bytes`` and writes the tagged
reply itself.  Connections are armed ``EPOLLIN | EPOLLONESHOT`` and
re-armed once a frame is read, before its handler runs, so they
pipeline and replies leave in completion order under their tags (see
:mod:`repro.protocol.tcp`).  No peer pins a thread: reads never block,
a send blocks at most :data:`SEND_TIMEOUT`, and replies finished during
another send on the same connection queue behind it.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import os
import select
import socket
import struct
import threading
import time

from repro.obs import runtime as obs
from repro.obs.health import HEALTH
from repro.protocol.tcp import HEADER, MAX_FRAME, TAG_FLAG, error_reply_bytes

#: Longest one send may block on a peer that does not read; the
#: connection is dropped after it.
SEND_TIMEOUT = 10.0
#: ``/readyz`` fails once every pool thread has been busy this long.
STALL_AFTER = 2.0

_ARMED = select.EPOLLIN | select.EPOLLONESHOT
#: Largest single read: a frame announcing a huge length costs memory
#: only as its bytes arrive.
_READ_CHUNK = 1 << 20
_STOPPED = (OSError, ValueError)  # what epoll calls raise after stop()

logger = logging.getLogger(__name__)


class _Connection:
    """One accepted socket.  Only the thread holding its one-shot event
    touches the partial frame; ``lock`` guards the rest."""

    __slots__ = ("host", "sock", "fd", "epoll", "lock", "partial", "length",
                 "tag", "armed", "inflight", "eof", "closed", "writing",
                 "outbox")

    def __init__(self, host: "TcpServerHost", sock: socket.socket,
                 epoll: select.epoll) -> None:
        self.host = host
        self.sock = sock
        self.fd = sock.fileno()
        self.epoll = epoll
        self.lock = threading.Lock()
        self.partial = bytearray()  # the current header, then payload
        self.length = -1  # payload length once the header is whole
        self.tag = 0
        #: Armed, or its event taken and not yet settled: the socket is
        #: not closed meanwhile, so its fd number cannot be reused under
        #: an event still on its way to a thread.  Unarmed and open, it
        #: is at ``max_inflight_per_conn``.
        self.armed = False
        self.inflight = 0  # frames taken whose replies have not left
        self.eof = False  # no further frame will be read
        self.closed = False
        self.writing = False  # a thread is sending this one's replies
        self.outbox: list[bytes] = []  # replies queued behind that send

    def _read_frame(self) -> tuple[int, bytes] | None:
        """``(tag, payload)`` once the frame is whole, ``None`` until
        then; ``ConnectionError`` at EOF and for a refused frame."""
        while True:
            want = (HEADER.size if self.length < 0 else self.length) \
                - len(self.partial)
            chunk = b""
            if want:
                try:
                    chunk = self.sock.recv(min(want, _READ_CHUNK),
                                           socket.MSG_DONTWAIT)
                except BlockingIOError:
                    return None
                if not chunk:
                    raise ConnectionError("peer closed the connection")
                if self.partial or len(chunk) < want:
                    self.partial += chunk
                    if len(chunk) < want:
                        continue
                    chunk = bytes(self.partial)
                    self.partial.clear()
            if self.length >= 0:
                self.length = -1
                return self.tag, chunk
            word, self.tag = HEADER.unpack(chunk)
            self.length = word & ~TAG_FLAG
            if not word & TAG_FLAG or self.length > MAX_FRAME:
                logger.warning("host: peer sent an untagged or oversized "
                               "frame; closing connection")
                # Drop what is unread, so the close sends a FIN rather
                # than a reset (bounded: the peer may keep sending).
                with contextlib.suppress(OSError):
                    for _ in range(64):
                        if not self.sock.recv(1 << 16, socket.MSG_DONTWAIT):
                            break
                raise ConnectionError("frame refused")

    def serve(self) -> None:
        """Serve the readiness event this thread took."""
        try:
            frame = self._read_frame()
        except OSError:
            frame = False  # EOF, reset or refused
        host = self.host
        with self.lock:
            self.armed = False
            if frame is False or self.eof:
                self.eof = True
                return self._settle()
            if frame is None:
                return self._arm()
            self.inflight += 1
            if self.inflight < host.max_inflight_per_conn:
                self._arm()  # the next frame may be read meanwhile
        tag, payload = frame
        try:
            reply = host.backend.handle_bytes(payload)
        except Exception as exc:
            reply = error_reply_bytes(host.backend, payload, exc)
            if reply is None:
                logger.error("backend %r failed without a wire context to "
                             "report through: %s",
                             type(host.backend).__name__, exc)
                self.abort()
        self._send(None if reply is None else
                   HEADER.pack(TAG_FLAG | len(reply), tag) + reply)

    def _send(self, frame: bytes | None) -> None:
        """Send a reply frame (``None``: none is owed any more), or queue
        it behind the send under way, whose thread sends it too."""
        with self.lock:
            if self.writing:
                if frame is None:
                    self.inflight -= 1
                    self._settle()
                else:
                    self.outbox.append(frame)
                return
            self.writing = True
        frames = [] if frame is None else [frame]
        owed = 1
        while True:
            if frames:
                try:
                    self.sock.sendall(b"".join(frames))
                except OSError:
                    self.abort()  # the peer is gone or does not read
            with self.lock:
                self.inflight -= owed
                frames = self.outbox
                if not frames:
                    self.writing = False
                    return self._settle()
                self.outbox = []
                owed = len(frames)

    def _arm(self) -> None:  # lock held
        if not self.eof:
            self.armed = True
            with contextlib.suppress(*_STOPPED):
                self.epoll.modify(self.fd, _ARMED)

    def _settle(self) -> None:  # lock held
        """Close a finished connection, or re-arm one that was left
        unarmed at its bound."""
        if self.eof:
            if not (self.inflight or self.armed or self.closed):
                self.host._close(self)
        elif not self.armed and \
                self.inflight < self.host.max_inflight_per_conn:
            self._arm()

    def abort(self, took_event: bool = False) -> None:
        """Read no further frame and shut the socket down; it closes once
        no reply is owed and no event is out.  ``took_event``: the
        caller holds the connection's event."""
        with self.lock:
            if took_event:
                self.armed = False
            self.eof = True
            if not self.closed:
                with contextlib.suppress(OSError):
                    self.sock.shutdown(socket.SHUT_RDWR)
            if not self.writing:
                self._settle()


class TcpServerHost:
    """Hosts a ``handle_bytes`` backend on a leader/followers thread pool.

    Usable as a context manager::

        with TcpServerHost(CloudServer()) as host:
            channel = TcpChannel(host.address, server.ctx)

    ``start`` starts all ``workers`` threads; a restart after ``stop``
    rebinds the same port.  A connection pipelines up to
    ``max_inflight_per_conn`` requests and is read again only when one
    of their replies has left.  ``max_conns`` bounds the connections
    served at once: excess clients are accepted but not read until a
    slot frees.  ``stop()`` stops accepting, lets handler work in flight
    (e.g. a WAL fsync) finish and reply within ``grace`` seconds, then
    closes the connections; a handler still wedged keeps its abandoned
    thread, and its connection is shut down now and closed when the
    handler returns.
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
        self._started = False
        self._lock = threading.Lock()  # connection slots
        self._threads: list[threading.Thread] = []
        self._conns: dict[int, _Connection] = {}
        self._waiting: collections.deque[_Connection] = collections.deque()
        self._active = 0  # connections holding a slot
        self._polling = False  # a leader is waiting in poll
        self._last_poll = 0.0  # when a leader last came back from it

    def _make_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self._bind_address)
        self._bind_address = sock.getsockname()
        return sock

    @property
    def address(self) -> tuple[str, int]:
        return self._bind_address  # type: ignore[return-value]

    def start(self) -> "TcpServerHost":
        if self._started:
            return self
        if self._sock is None:
            self._sock = self._make_socket()
        self._sock.listen(socket.SOMAXCONN)
        self._sock.setblocking(False)
        self._epoll = select.epoll()
        # Level-triggered and never drained: once stop() writes it,
        # every poll returns at once, so each thread sees it in turn.
        self._wake_fd = os.eventfd(0, os.EFD_CLOEXEC)
        self._epoll.register(self._wake_fd, select.EPOLLIN)
        self._epoll.register(self._sock.fileno(), _ARMED)
        self._conns = {}
        self._active = 0
        self._last_poll = time.monotonic()
        leader = threading.Lock()
        self._threads = [threading.Thread(target=self._work,
                                          args=(self._epoll, leader),
                                          name=f"repro-host-{index}",
                                          daemon=True)
                         for index in range(self.workers)]
        for thread in self._threads:
            thread.start()
        self._started = True
        HEALTH.register(self._health_name, self.health)
        return self

    def stop(self, grace: float = 5.0) -> None:
        if not self._started:
            return
        HEALTH.unregister(self._health_name)
        self._started = False
        os.eventfd_write(self._wake_fd, 1)
        deadline = time.monotonic() + max(0.0, grace)
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        abandoned = sum(thread.is_alive() for thread in self._threads)
        if abandoned:
            logger.warning("host stop: abandoned %d pool thread(s) still "
                           "busy after %.1fs grace", abandoned, grace)
        self._sock.close()
        self._sock = None
        self._waiting.clear()
        for conn in list(self._conns.values()):
            with conn.lock:
                conn.eof = True
                conn.armed = False  # no thread takes events any more
                if conn.inflight:  # the peer sees EOF now
                    with contextlib.suppress(OSError):
                        conn.sock.shutdown(socket.SHUT_RDWR)
                elif not conn.closed:
                    self._close(conn)
        self._epoll.close()
        os.close(self._wake_fd)

    def __enter__(self) -> "TcpServerHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _work(self, epoll: select.epoll, leader: threading.Lock) -> None:
        """One pool thread: lead, then serve the event the lead took."""
        from repro.obs import instruments as ins
        wake_fd, listener, conns = self._wake_fd, self._sock, self._conns
        while True:
            with leader:
                self._polling = True
                try:
                    events = epoll.poll(0 if obs.enabled else -1, 1)
                    if obs.enabled:
                        # Ready work waited at most as long as no thread
                        # was waiting in poll.
                        waited = time.monotonic() - self._last_poll
                        ins.HOST_PICKUP_SECONDS.set(waited if events else 0)
                    events = events or epoll.poll(-1, 1)
                except _STOPPED:
                    return
                finally:
                    self._polling = False
                self._last_poll = time.monotonic()
            fd = events[0][0]
            if fd == wake_fd:
                return
            busy = obs.enabled
            if busy:
                ins.HOST_BUSY_THREADS.inc()
            try:
                if fd == listener.fileno():
                    self._accept(epoll, listener)
                elif (conn := conns.get(fd)) is not None:
                    try:
                        conn.serve()
                    except Exception:
                        logger.exception("host: serving a connection "
                                         "failed; closing it")
                        conn.abort(took_event=True)
            finally:
                if busy:
                    ins.HOST_BUSY_THREADS.dec()

    def _accept(self, epoll: select.epoll, listener: socket.socket) -> None:
        while True:
            try:
                sock, _peer = listener.accept()
            except BlockingIOError:
                break  # none left
            except OSError as exc:
                if self._started:  # e.g. out of file descriptors
                    logger.warning("host: accept failed: %s", exc)
                    time.sleep(0.1)  # the listener stays ready: no spin
                break
            sock.setblocking(True)
            # Without it, Nagle holds a pipelined flight's second reply
            # until the client's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                            struct.pack("ll", int(SEND_TIMEOUT), 0))
            conn = self._conns[sock.fileno()] = _Connection(self, sock,
                                                            epoll)
            if obs.enabled:
                from repro.obs import instruments as ins
                ins.TCP_CONNECTIONS.inc()
                ins.TCP_INFLIGHT.inc()
            with self._lock:
                if self.max_conns is not None and \
                        self._active >= self.max_conns:
                    self._waiting.append(conn)  # accepted, not yet read
                    continue
                self._active += 1
            conn.armed = True
            epoll.register(conn.fd, _ARMED)
        with contextlib.suppress(*_STOPPED):
            epoll.modify(listener.fileno(), _ARMED)

    def _close(self, conn: _Connection) -> None:
        """Close ``conn`` and pass its slot on (its lock held)."""
        conn.closed = True
        self._conns.pop(conn.fd, None)  # (its fd is in no later run)
        conn.sock.close()
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.TCP_INFLIGHT.dec()
        if not self._started or conn.epoll is not self._epoll:
            return  # the slots of a stopped run are void
        with self._lock:  # only served connections close while started
            if not self._waiting:
                self._active -= 1
                return
            admitted = self._waiting.popleft()
            admitted.armed = True
        with contextlib.suppress(*_STOPPED):
            admitted.epoll.register(admitted.fd, _ARMED)

    @property
    def _health_name(self) -> str:
        return f"tcp-host:{self._bind_address[1]}"

    def health(self) -> tuple[bool, str]:
        """Readiness probe: pool liveness.  Ready while a pool thread
        waits in poll or came back to it recently, and none has died."""
        if not self._started:
            return False, "host is stopped"
        dead = sum(not thread.is_alive() for thread in self._threads)
        age = time.monotonic() - self._last_poll
        if dead:
            return False, f"{dead} pool thread(s) died"
        if not self._polling and age > STALL_AFTER:
            return False, f"every pool thread busy for {age:.1f}s"
        return True, f"last took work {age * 1e3:.1f}ms ago"

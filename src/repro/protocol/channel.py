"""Metering channels between client and server.

A channel carries encoded messages and counts every byte in both
directions, splitting item payload from protocol overhead.  The counters
are cumulative; the client snapshots them around each operation to build
per-operation records.
"""

from __future__ import annotations

import abc
import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ProtocolError
from repro.obs import runtime as obs
from repro.obs.trace import span
from repro.protocol.messages import (READ_ONLY_REQUESTS, Message,
                                     decode_message, encode_message)
from repro.protocol.wire import WireContext
from repro.sim.network import NetworkModel


@dataclass
class ChannelCounters:
    """Cumulative traffic counters (client perspective)."""

    bytes_sent: int = 0
    bytes_received: int = 0
    payload_sent: int = 0
    payload_received: int = 0
    round_trips: int = 0
    simulated_seconds: float = 0.0
    server_seconds: float = 0.0
    retransmits: int = 0
    #: Waits on the link: a flight of several requests is one flight but
    #: as many round trips.
    flights: int = 0

    def snapshot(self) -> "ChannelCounters":
        return ChannelCounters(self.bytes_sent, self.bytes_received,
                               self.payload_sent, self.payload_received,
                               self.round_trips, self.simulated_seconds,
                               self.server_seconds, self.retransmits,
                               self.flights)

    def delta(self, earlier: "ChannelCounters") -> "ChannelCounters":
        return ChannelCounters(
            self.bytes_sent - earlier.bytes_sent,
            self.bytes_received - earlier.bytes_received,
            self.payload_sent - earlier.payload_sent,
            self.payload_received - earlier.payload_received,
            self.round_trips - earlier.round_trips,
            self.simulated_seconds - earlier.simulated_seconds,
            self.server_seconds - earlier.server_seconds,
            self.retransmits - earlier.retransmits,
            self.flights - earlier.flights,
        )


class Channel(abc.ABC):
    """A request/response link from the client to one server.

    A *flight* is several requests written before any reply is read, so
    they share one wait on the link.  Only independent read-only requests
    may share a flight (:meth:`request_many`, :meth:`pipelined`); every
    commit flies alone.
    """

    def __init__(self, ctx: WireContext,
                 network: NetworkModel | None = None) -> None:
        self.ctx = ctx
        self.network = network
        self.counters = ChannelCounters()
        self._local = threading.local()  # each thread's open pipelined block

    def __getstate__(self) -> dict:
        # A pipelined block lives for one call; it is never saved.
        state = self.__dict__.copy()
        state.pop("_local", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    @abc.abstractmethod
    def _transport(self, request_bytes: bytes) -> bytes:
        """Deliver encoded request bytes; return encoded response bytes."""

    def _transport_many(self, requests: list[bytes]) -> list[bytes]:
        """Deliver one flight; the replies come back in request order.

        The default delivers one request after the other; a socket
        transport writes them all before it reads the first reply.
        """
        return [self._transport(request) for request in requests]

    def request(self, message: Message) -> Message:
        """Send one request and return the decoded response, metering both.

        Inside a :meth:`pipelined` block the first request also carries
        the block's requests, and a later request for one of them is
        answered from that flight.
        """
        block = getattr(self._local, "block", None)
        if block is not None:
            return block.request(message)
        return self._request(message)

    def _request(self, message: Message) -> Message:
        if obs.enabled:
            return self._request_observed([message])[0]
        return self._exchange(message, None)

    def request_many(self, messages: Sequence[Message]) -> list[Message]:
        """Send read-only requests as one flight; return replies in order.

        A mutating request is refused with :class:`ProtocolError`: a
        commit never shares a flight, so the order of commits (and the
        deletion journal's exactly-once argument) is the sequential one.
        """
        messages = list(messages)
        _check_read_only(messages)
        return self._request_many(messages)

    def _request_many(self, messages: list[Message]) -> list[Message]:
        if obs.enabled:
            return self._request_observed(messages)
        return self._exchange_many(messages, (None,) * len(messages))

    def pipelined(self, *ahead: Message) -> "_Pipelined":
        """A block whose first request flies together with ``ahead``.

        The requests in ``ahead`` go out with the first request sent
        inside the block (all must be read-only, or that request raises
        :class:`ProtocolError`); a later request in the block equal to
        one of them is answered from that flight instead of crossing the
        link again.  Replies not asked for by the end of the block are
        dropped.  The block is per thread.
        """
        return _Pipelined(self, ahead)

    def _request_observed(self, messages: list[Message]) -> list[Message]:
        """Traced/metered variant: a span per message, its context on the
        wire, and per-message-type latency histograms."""
        from repro.obs import instruments as ins
        spans = [span("rpc.request", type=type(message).__name__)
                 for message in messages]
        with contextlib.ExitStack() as stack:
            for sp in spans:  # siblings: every span was opened above
                stack.enter_context(sp)
            start = time.perf_counter()
            try:
                responses = self._exchange_many(
                    messages, [sp.context for sp in spans])
            except Exception:
                ins.RPC_FAILURES.inc(len(messages))
                raise
            elapsed = time.perf_counter() - start
            for message, sp, response in zip(messages, spans, responses):
                ins.RPC_SECONDS.observe(elapsed, type=type(message).__name__)
                sp.annotate(response=type(response).__name__)
            return responses

    def _exchange(self, message: Message, trace) -> Message:
        request_bytes = encode_message(self.ctx, message, trace=trace)
        response_bytes = self._transport(request_bytes)
        self.counters.flights += 1
        self._meter(message, request_bytes, response_bytes)
        response = decode_message(self.ctx, response_bytes)
        self.counters.payload_received += response.payload_bytes()
        return response

    def _exchange_many(self, messages: list[Message],
                       traces) -> list[Message]:
        requests = [encode_message(self.ctx, message, trace=trace)
                    for message, trace in zip(messages, traces)]
        responses = self._transport_many(requests)
        self.counters.flights += 1
        for message, request_bytes, response_bytes in zip(messages, requests,
                                                          responses):
            self._meter(message, request_bytes, response_bytes)
        replies = []
        for response_bytes in responses:
            replies.append(decode_message(self.ctx, response_bytes))
            self.counters.payload_received += replies[-1].payload_bytes()
        return replies

    def _meter(self, message: Message, request_bytes: bytes,
               response_bytes: bytes) -> None:
        # Transport byte/round-trip metering happens BEFORE decoding: a
        # malformed reply still crossed the wire, and its bytes must not
        # vanish from the accounting when decode_message raises.
        counters = self.counters
        counters.bytes_sent += len(request_bytes)
        counters.bytes_received += len(response_bytes)
        counters.payload_sent += message.payload_bytes()
        counters.round_trips += 1
        if self.network is not None:
            counters.simulated_seconds += self.network.round_trip_seconds(
                len(request_bytes), len(response_bytes))
        if obs.enabled:
            from repro.obs import instruments as ins
            ins.RPC_BYTES.inc(len(request_bytes), direction="sent")
            ins.RPC_BYTES.inc(len(response_bytes), direction="received")


def _check_read_only(messages) -> None:
    for message in messages:
        if not isinstance(message, READ_ONLY_REQUESTS):
            raise ProtocolError(f"{type(message).__name__} cannot share a "
                                f"flight: only read-only requests can")


class _Pipelined:
    """One thread's :meth:`Channel.pipelined` block."""

    def __init__(self, channel: Channel, ahead: tuple[Message, ...]) -> None:
        self._channel = channel
        self._ahead = ahead
        #: (request, reply) fetched ahead and not yet asked for.
        self._fetched: list[tuple[Message, Message]] = []

    def request(self, message: Message) -> Message:
        for index, (request, reply) in enumerate(self._fetched):
            if request == message:
                del self._fetched[index]
                if not self._fetched:
                    self._detach()  # nothing left: later requests fly alone
                return reply
        if not self._ahead:
            return self._channel._request(message)
        flight = (message, *self._ahead)
        self._ahead = ()
        replies = self._channel.request_many(flight)
        self._fetched = list(zip(flight[1:], replies[1:]))
        return replies[0]

    def __enter__(self) -> "_Pipelined":
        local = self._channel._local
        if getattr(local, "block", None) is not None:
            raise ProtocolError("pipelined blocks do not nest")
        local.block = self
        return self

    def __exit__(self, *exc_info) -> bool:
        self._detach()
        return False

    def _detach(self) -> None:
        local = self._channel._local
        if getattr(local, "block", None) is self:
            local.block = None


#: The block of a channel whose requests all go alone (reentrant).
_ALONE = contextlib.nullcontext()


class LoopbackChannel(Channel):
    """In-process channel to a server object exposing ``handle_bytes``.

    Messages still round-trip through the real wire codec, so every byte
    count is exactly what a TCP deployment would transfer (sans TCP/IP
    framing, which the paper's numbers also exclude).

    A call in process has no link to wait on, so a flight would save
    nothing: :meth:`pipelined` blocks send every request alone, and the
    server sees the same requests in the same order either way.
    """

    def __init__(self, server, ctx: WireContext | None = None,
                 network: NetworkModel | None = None) -> None:
        if ctx is None:
            ctx = getattr(server, "ctx", None)
        if ctx is None:
            raise ProtocolError("server does not expose a wire context")
        super().__init__(ctx, network)
        self._server = server

    def pipelined(self, *ahead: Message) -> contextlib.nullcontext:
        return _ALONE

    def _transport(self, request_bytes: bytes) -> bytes:
        # Server time is metered separately so client-computation metrics
        # (the paper's Figure 6) exclude it even on a loopback link.
        start = time.perf_counter()
        try:
            return self._server.handle_bytes(request_bytes)
        finally:
            self.counters.server_seconds += time.perf_counter() - start

"""Consistent-hash sharding: route each file to one of N servers.

The paper's two-party protocol is strictly per-file: every request
carries a ``file_id`` and touches exactly one modulation tree, so a
deployment scales horizontally by hashing file ids onto independent
server instances -- each shard owning its own :class:`CloudServer`,
write-ahead log, storage engine, lock table, and replay cache.  This
module supplies the routing layer:

* :class:`HashRing` -- consistent hashing with virtual nodes.  Each
  shard contributes ``vnodes`` points on a 64-bit ring (SHA-256 of a
  canonical label, so placement is identical across processes and
  runs); a file id hashes to a point and is owned by the next shard
  point clockwise.  Adding or removing one shard moves only the keys
  adjacent to its points (~1/N of the space), never reshuffles the rest.
* :class:`ShardMap` -- the small routing interface: a ring plus a
  channel factory saying how to reach each shard (in-process loopback,
  untagged TCP, or pipelined TCP).  Every call to
  :meth:`ShardMap.make_channel` opens a *fresh* channel, so several
  clients can share one map without sharing sockets or counters.
* :class:`ShardRoutingChannel` -- a drop-in :class:`Channel` that
  resolves ``message.file_id`` through the ring and forwards to the
  owning shard's channel (opened lazily, one per shard); a flight is
  split into one flight per shard.  All per-shard
  sub-channels share the router's :class:`ChannelCounters` object, so
  client-side metering and the paper's overhead accounting keep working
  unchanged across any number of shards.
* :class:`ShardFanoutError` -- the typed failure of a cross-shard
  fan-out operation, carrying per-shard outcomes so a caller knows
  exactly which shards committed and which files still need the
  journal/resume path.

See ``docs/SHARDING.md`` for the deployment-level rules.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import ProtocolError, ReproError
from repro.protocol.channel import Channel
from repro.protocol.wire import WireContext

#: Virtual nodes per shard.  64 points keeps the max/min load ratio of a
#: uniform key population within ~1.3x at 8 shards while ring rebuilds
#: stay trivially cheap.
DEFAULT_VNODES = 64

_POINT_BYTES = 8  # ring positions are the first 64 bits of a SHA-256


def _point(label: bytes) -> int:
    return int.from_bytes(hashlib.sha256(label).digest()[:_POINT_BYTES],
                          "big")


class HashRing:
    """Consistent hashing of file ids onto shard ids, with virtual nodes.

    Deterministic by construction: ring points are SHA-256 digests of
    canonical ``shard:<id>:<replica>`` labels and keys hash as
    ``file:<id>``, so every process that knows the shard-id set computes
    the identical placement -- no coordination, no stored ring state.
    """

    def __init__(self, shard_ids: Iterable[int],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._shards: set[int] = set()
        self._points: List[int] = []
        self._owners: List[int] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)
        if not self._shards:
            raise ValueError("ring needs at least one shard")

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def _vnode_points(self, shard_id: int) -> List[int]:
        return [_point(b"shard:%d:%d" % (shard_id, replica))
                for replica in range(self.vnodes)]

    def add_shard(self, shard_id: int) -> None:
        """Add a shard's virtual nodes (existing keys move only *to* it)."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for point in self._vnode_points(shard_id):
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove_shard(self, shard_id: int) -> None:
        """Remove a shard (only its keys move, onto the survivors)."""
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(shard_id)
        keep = [(p, s) for p, s in zip(self._points, self._owners)
                if s != shard_id]
        self._points = [p for p, _s in keep]
        self._owners = [s for _p, s in keep]

    def shard_of(self, file_id: int) -> int:
        """The shard owning ``file_id``: next ring point clockwise."""
        index = bisect.bisect(self._points, _point(b"file:%d" % file_id))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def assignments(self, file_ids: Iterable[int]) -> Dict[int, int]:
        """``file_id -> shard_id`` for a population (tests, rebalancing)."""
        return {file_id: self.shard_of(file_id) for file_id in file_ids}


class ShardMap:
    """How to reach every shard: a ring plus a channel factory.

    ``factory(shard_id)`` must return a **new** channel to that shard on
    every call; the map itself holds no connections, so it is safe to
    share across threads and clients (each router opens its own).
    """

    def __init__(self, ring: HashRing, ctx: WireContext,
                 factory: Callable[[int], Channel]) -> None:
        self.ring = ring
        self.ctx = ctx
        self._factory = factory

    @property
    def shard_ids(self) -> List[int]:
        return self.ring.shard_ids

    def shard_of(self, file_id: int) -> int:
        return self.ring.shard_of(file_id)

    def make_channel(self, shard_id: int) -> Channel:
        """Open a fresh channel to one shard."""
        if shard_id not in self.ring._shards:
            raise ProtocolError(f"shard {shard_id} is not on the ring")
        return self._factory(shard_id)

    # -- constructors for the two transports ----------------------------

    @classmethod
    def local(cls, backends: Sequence, *,
              vnodes: int = DEFAULT_VNODES) -> "ShardMap":
        """In-process shards: one loopback channel per backend."""
        from repro.protocol.channel import LoopbackChannel
        backends = list(backends)
        ring = HashRing(range(len(backends)), vnodes=vnodes)
        ctx = backends[0].ctx
        return cls(ring, ctx, lambda sid: LoopbackChannel(backends[sid]))

    @classmethod
    def tcp(cls, addresses: Sequence[Tuple[str, int]], ctx: WireContext, *,
            retry=None, vnodes: int = DEFAULT_VNODES) -> "ShardMap":
        """Shards served by TCP hosts, one address per shard id."""
        from repro.protocol.tcp import TcpChannel
        addresses = [tuple(address) for address in addresses]
        ring = HashRing(range(len(addresses)), vnodes=vnodes)
        return cls(ring, ctx,
                   lambda sid: TcpChannel(addresses[sid], ctx, retry=retry))


class ShardRoutingChannel(Channel):
    """A client channel that routes each request to its file's shard.

    Every protocol request carries a ``file_id`` (the scheme is strictly
    per-file), so routing is transparent: the client and file-system
    layers above see one ordinary :class:`Channel`.  Per-shard
    sub-channels open lazily on first use and share this router's
    ``counters`` object, keeping byte/round-trip metering identical to
    the single-server deployment.
    """

    def __init__(self, shard_map: ShardMap, network=None) -> None:
        super().__init__(shard_map.ctx, network)
        self.shard_map = shard_map
        self._channels: Dict[int, Channel] = {}

    @property
    def ring(self) -> HashRing:
        return self.shard_map.ring

    def shard_of(self, file_id: int) -> int:
        return self.shard_map.shard_of(file_id)

    def _shard_channel(self, shard_id: int) -> Channel:
        channel = self._channels.get(shard_id)
        if channel is None:
            channel = self.shard_map.make_channel(shard_id)
            # One metering surface for the whole fleet: sub-channels
            # accumulate into the router's counters, so the client's
            # per-operation snapshot/delta accounting is shard-blind.
            channel.counters = self.counters
            self._channels[shard_id] = channel
        return channel

    def _route(self, message) -> Channel:
        file_id = getattr(message, "file_id", None)
        if file_id is None:
            raise ProtocolError(
                f"{type(message).__name__} carries no file_id; "
                f"cannot route it to a shard")
        return self._shard_channel(self.shard_of(file_id))

    def _request(self, message):
        return self._route(message).request(message)

    def _request_many(self, messages):
        """One flight per shard the messages route to, shards in the
        order of their first message; replies in request order."""
        by_channel: Dict[Channel, List[int]] = {}
        for index, message in enumerate(messages):
            by_channel.setdefault(self._route(message), []).append(index)
        replies = [None] * len(messages)
        for channel, indices in by_channel.items():
            flight = channel.request_many([messages[i] for i in indices])
            for index, reply in zip(indices, flight):
                replies[index] = reply
        return replies

    def _transport(self, request_bytes: bytes) -> bytes:
        raise ProtocolError("the routing channel has no transport of its "
                            "own; requests are routed per file id")

    def close(self) -> None:
        for channel in self._channels.values():
            close = getattr(channel, "close", None)
            if close is not None:
                close()
        self._channels.clear()

    def __enter__(self) -> "ShardRoutingChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class ShardOutcome:
    """What one shard did during a cross-shard fan-out operation."""

    shard_id: Optional[int]
    committed: List[str] = field(default_factory=list)
    failed: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed


class ShardFanoutError(ReproError):
    """A cross-shard fan-out partially failed.

    Per-shard commits are atomic (each file's deletion is one two-phase
    exchange against one shard), so a mid-fan-out failure leaves some
    shards committed and others not.  ``outcomes`` names both sides:
    callers re-drive only the failed files -- typically via the client's
    deletion journal (``resume_delete_many``) once the shard recovers.
    """

    def __init__(self, outcomes: Dict[Optional[int], ShardOutcome]) -> None:
        self.outcomes = outcomes
        committed = sorted(name for outcome in outcomes.values()
                           for name in outcome.committed)
        failed = {name: detail for outcome in outcomes.values()
                  for name, detail in sorted(outcome.failed.items())}
        self.committed = committed
        self.failed = failed
        shards = sorted((s for s, o in outcomes.items() if not o.ok),
                        key=lambda s: (-1 if s is None else s))
        super().__init__(
            f"fan-out failed on shard(s) {shards}: "
            f"{len(failed)} file(s) failed ({sorted(failed)}), "
            f"{len(committed)} committed ({committed})")

"""One flight for both levels of a record operation.

A record op of the file system (Section V) sends the meta-tree request
and the data tree's first request together: both are read-only and the
data request needs no key.  These tests pin that the flight changes
nothing but the waiting: per op the same messages, bytes, WAL request
frames and audit records as the sequential path, the same typed errors
from either reply, a whole-flight retransmit after a reset, commits
never in a flight, per-shard flights, and a fault schedule consumed once
per message.
"""

import random
import socket
import struct
import threading

import pytest

from repro.core.errors import ProtocolError, UnknownItemError
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.fs.sharding import ShardMap, ShardRoutingChannel
from repro.obs.audit import AuditLog, verify_log
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.protocol.faults import (DROP_REQUEST, DUPLICATE, NONE,
                                   ChannelError, FaultInjectingChannel)
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import HEADER, TAG_FLAG, RetryPolicy, TcpChannel
from repro.server.server import CloudServer
from repro.server.wal import CommitLog

#: (messages, flights) per file op on the pipelined path.
FLIGHTS = {"read": (2, 1), "write": (3, 2), "insert": (3, 2),
           "delete": (4, 3), "delete_many": (4, 3)}


def _audited_server(tmp_path, name):
    server = CloudServer()
    wal = CommitLog(str(tmp_path / f"{name}.wal"),
                    archive=str(tmp_path / f"{name}.audit"))
    server.attach_wal(wal)
    server.attach_audit(AuditLog(wal))
    return server, wal


def _seeded_mix(fs, seed, ops=40):
    """Run a seeded record-op mix; per op: (op, result, counter delta)."""
    rng = random.Random(seed)
    for i in range(3):
        fs.create_file(f"g{i % 2}/f{i}", [b"f%d-r%d" % (i, j)
                                          for j in range(24)])
    names = fs.list_files()
    counters = fs.client.channel.counters
    trail = []
    for _ in range(ops):
        handle = fs.open(rng.choice(names))
        n = handle.record_count
        op = rng.choice(sorted(FLIGHTS))
        before = counters.snapshot()
        if op == "read":
            result = handle.read_record(rng.randrange(n))
        elif op == "write":
            result = handle.write_record(rng.randrange(n), rng.randbytes(8))
        elif op == "insert":
            result = handle.insert_record(rng.randrange(n + 1),
                                          rng.randbytes(8))
        elif op == "delete":
            result = handle.delete_record(rng.randrange(n))
        else:
            result = handle.delete_many(rng.sample(range(n), 3))
        trail.append((op, result, counters.delta(before)))
    contents = {name: fs.open(name).read_all() for name in names}
    return trail, contents


def _chain(tmp_path, name, wal):
    wal.close()
    return verify_log(str(tmp_path / f"{name}.audit"),
                      str(tmp_path / f"{name}.wal"))


@pytest.mark.socket
def test_pipelined_tcp_matches_the_sequential_loopback_path(tmp_path):
    """Per file op: the same messages and bytes both ways as the
    loopback path (which sends every request alone), and on disk the
    same WAL request frames and audit record count; over TCP each op
    takes its planned flights."""
    server, wal = _audited_server(tmp_path, "seq")
    fs = OutsourcedFileSystem(LoopbackChannel(server),
                              rng=DeterministicRandom("mix"))
    expected, expected_contents = _seeded_mix(fs, "mix")
    expected_chain = _chain(tmp_path, "seq", wal)

    server, wal = _audited_server(tmp_path, "tcp")
    with TcpServerHost(server) as host:
        fs = OutsourcedFileSystem.connect(host.address,
                                          rng=DeterministicRandom("mix"))
        trail, contents = _seeded_mix(fs, "mix")
        fs.client.channel.close()
    chain = _chain(tmp_path, "tcp", wal)

    assert contents == expected_contents
    assert len(trail) == len(expected)
    for (op, result, delta), (op_seq, result_seq, delta_seq) in \
            zip(trail, expected):
        assert (op, result) == (op_seq, result_seq)
        for field in ("bytes_sent", "bytes_received", "payload_sent",
                      "payload_received", "round_trips"):
            assert getattr(delta, field) == getattr(delta_seq, field), \
                (op, field)
        assert (delta.round_trips, delta.flights) == FLIGHTS[op], op
        assert delta_seq.flights == delta_seq.round_trips
    assert list(chain.requests.values()) == \
        list(expected_chain.requests.values())
    assert len(chain.records) == len(expected_chain.records) > 0
    assert [r["op"] for r in chain.records] == \
        [r["op"] for r in expected_chain.records]


class _ErrorFor:
    """Backend wrapper answering one file's requests with an ErrorReply."""

    def __init__(self, inner, file_id, code=msg.E_UNKNOWN_ITEM):
        self.inner = inner
        self.ctx = inner.ctx
        self.file_id = file_id
        self.code = code

    def handle_bytes(self, data):
        request = msg.decode_message(self.ctx, data)
        if getattr(request, "file_id", None) == self.file_id:
            return msg.encode_message(self.ctx, msg.ErrorReply(
                code=self.code, detail="refused for the test"))
        return self.inner.handle_bytes(data)


@pytest.mark.socket
@pytest.mark.parametrize("level", ["meta", "data"])
@pytest.mark.parametrize("op", sorted(FLIGHTS))
def test_an_error_reply_on_either_level_raises_as_in_sequence(op, level):
    """An ErrorReply to the meta or the data request of a flight raises
    the typed error the sequential path raises, and changes nothing."""
    def attempt(pipelined_tcp):
        server = CloudServer()
        fs = OutsourcedFileSystem(LoopbackChannel(server),
                                  rng=DeterministicRandom("err"))
        handle = fs.create_file("g/f", [b"r%d" % i for i in range(6)])
        meta_id = fs.group_manager_of("g/f").meta_file_id
        target = meta_id if level == "meta" else handle.file_id
        backend = _ErrorFor(server, target)
        call = {"read": lambda: handle.read_record(2),
                "write": lambda: handle.write_record(2, b"w"),
                "insert": lambda: handle.insert_record(2, b"i"),
                "delete": lambda: handle.delete_record(2),
                "delete_many": lambda: handle.delete_many([1, 3])}[op]
        if not pipelined_tcp:
            fs.client.channel = LoopbackChannel(backend)
            with pytest.raises(UnknownItemError):
                call()
            return fs.client.channel.counters
        with TcpServerHost(backend) as host:
            fs.client.channel = TcpChannel(host.address, server.ctx)
            with pytest.raises(UnknownItemError):
                call()
            fs.client.channel.close()
        assert handle.record_count == 6
        return fs.client.channel.counters

    seq_counters = attempt(pipelined_tcp=False)
    counters = attempt(pipelined_tcp=True)
    # The data request rides the meta request's flight even when the
    # meta reply is the one refused.
    assert counters.flights == 1
    assert counters.round_trips == 2
    assert seq_counters.round_trips == (1 if level == "meta" else 2)


def _recv_exact(conn, count):
    data = b""
    while len(data) < count:
        chunk = conn.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
    return data


class _ResetFirstFlight:
    """A raw TCP server: on the first connection it answers the first
    frame of the flight and resets the connection when the last one
    arrives; it answers every frame of later connections through
    ``backend``."""

    def __init__(self, backend, flight_size):
        self.backend = backend
        self.flight_size = flight_size
        self.connections = 0
        self.frames_per_connection = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            self.frames_per_connection.append(0)
            with conn:
                try:
                    self._connection(conn)
                except (OSError, ConnectionError):
                    pass

    def _connection(self, conn):
        first = self.connections == 1
        while True:
            word, tag = HEADER.unpack(_recv_exact(conn, HEADER.size))
            frame = _recv_exact(conn, word & ~TAG_FLAG)
            self.frames_per_connection[-1] += 1
            if first and self.frames_per_connection[-1] == self.flight_size:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                return  # close with RST: the flight dies half answered
            reply = self.backend.handle_bytes(frame)
            conn.sendall(HEADER.pack(TAG_FLAG | len(reply), tag) + reply)

    def close(self):
        self._listener.close()


@pytest.mark.socket
def test_a_reset_mid_flight_redials_and_resends_the_whole_flight():
    server = CloudServer()
    fs = OutsourcedFileSystem(LoopbackChannel(server),
                              rng=DeterministicRandom("reset"))
    handle = fs.create_file("g/f", [b"r%d" % i for i in range(6)])
    fake = _ResetFirstFlight(server, flight_size=2)
    try:
        fs.client.channel = TcpChannel(
            fake.address, server.ctx,
            retry=RetryPolicy(attempts=3, timeout=5.0, base_delay=0.01))
        assert handle.read_record(4) == b"r4"
        counters = fs.client.channel.counters
        assert counters.retransmits == 1
        assert (counters.round_trips, counters.flights) == (2, 1)
        # The first connection carried the whole flight and died; the
        # re-dialled one carried the whole flight again.
        assert fake.frames_per_connection[:2] == [2, 2]
        fs.client.channel.close()
    finally:
        fake.close()


def _in_process_flights(server):
    """An in-process channel that does form flights (a loopback channel
    sends every request alone): a fault schedule with no faults."""
    return FaultInjectingChannel(server, [])


def test_a_mutating_message_never_shares_a_flight():
    server = CloudServer()
    channel = _in_process_flights(server)
    seen = []
    handle = server.handle
    server.handle = lambda request: seen.append(request) or handle(request)
    commit = msg.ModifyCommit(file_id=1, item_id=1, ciphertext=b"c",
                              tree_version=0, request_id=7)
    read = msg.AccessRequest(file_id=1, item_id=1)
    with pytest.raises(ProtocolError, match="ModifyCommit"):
        channel.request_many([read, commit])
    with pytest.raises(ProtocolError):
        with channel.pipelined(commit):
            channel.request(read)
    # A commit as the block's first request cannot carry the block's
    # read-only requests either.
    with pytest.raises(ProtocolError):
        with channel.pipelined(read):
            channel.request(commit)
    assert seen == []
    assert channel.counters.round_trips == 0
    # Outside a flight the same commit goes out alone, as always.
    reply = channel.request(commit)
    assert isinstance(reply, msg.ErrorReply)
    assert channel.counters.flights == 1


def test_unclaimed_replies_are_dropped_with_the_block():
    server = CloudServer()
    fs = OutsourcedFileSystem(LoopbackChannel(server),
                              rng=DeterministicRandom("drop"))
    handle = fs.create_file("g/f", [b"a", b"b"])
    channel = fs.client.channel = _in_process_flights(server)
    key = fs.group_manager_of("g/f").master_key(handle.file_id)
    item = handle.locate(0).item_id
    request = msg.AccessRequest(file_id=handle.file_id, item_id=item)
    with channel.pipelined(request):
        fs.group_manager_of("g/f").master_key(handle.file_id)
    assert channel.counters.round_trips == 3  # the flight carried both
    before = channel.counters.snapshot()
    assert fs.client.access(handle.file_id, key, item) == b"a"
    assert channel.counters.delta(before).round_trips == 1  # not from cache


def _cross_shard_fs():
    """A routed file system whose data file and meta file live on
    different shards."""
    for attempt in range(32):
        backends = [CloudServer() for _ in range(3)]
        router = ShardRoutingChannel(ShardMap.local(backends))
        fs = OutsourcedFileSystem(router, rng=DeterministicRandom("shards"),
                                  meta_id_base=1 + attempt)
        handle = fs.create_file("g/f", [b"r%d" % i for i in range(8)])
        meta_id = fs.group_manager_of("g/f").meta_file_id
        if router.shard_of(meta_id) != router.shard_of(handle.file_id):
            return fs, handle
    raise AssertionError("no cross-shard layout found")


def test_meta_and_data_on_different_shards_fly_per_shard():
    fs, handle = _cross_shard_fs()
    counters = fs.client.channel.counters
    before = counters.snapshot()
    assert handle.read_record(3) == b"r3"
    delta = counters.delta(before)
    # Two shards, two flights; the messages are the same two.
    assert (delta.round_trips, delta.flights) == (2, 2)
    handle.write_record(3, b"new")
    handle.insert_record(0, b"first")
    handle.delete_record(1)
    handle.delete_many([0, 2])
    assert handle.read_all() == [b"r1", b"new", b"r4", b"r5", b"r6", b"r7"]


def test_router_refuses_a_mutating_message_before_any_shard_flies():
    fs, handle = _cross_shard_fs()
    router = fs.client.channel
    meta = fs.group_manager_of("g/f")
    before = router.counters.snapshot()
    with pytest.raises(ProtocolError):
        router.request_many([
            msg.AccessRequest(file_id=meta.meta_file_id,
                              item_id=meta.meta_item_of(handle.file_id)),
            msg.DeleteFileRequest(file_id=handle.file_id, request_id=9)])
    assert router.counters.delta(before).round_trips == 0
    assert handle.read_record(0) == b"r0"


def test_router_request_many_keeps_request_order():
    fs, handle = _cross_shard_fs()
    meta = fs.group_manager_of("g/f")
    requests = [msg.InsertRequest(file_id=handle.file_id),
                msg.AccessRequest(file_id=meta.meta_file_id,
                                  item_id=meta.meta_item_of(handle.file_id)),
                msg.InsertRequest(file_id=handle.file_id)]
    replies = fs.client.channel.request_many(requests)
    assert [type(r) for r in replies] == [msg.InsertChallenge,
                                          msg.AccessReply,
                                          msg.InsertChallenge]


def test_fault_schedule_is_consumed_once_per_message():
    server = CloudServer()
    fs = OutsourcedFileSystem(LoopbackChannel(server),
                              rng=DeterministicRandom("faults"))
    handle = fs.create_file("g/f", [b"a", b"b", b"c"])
    channel = FaultInjectingChannel(server,
                                    [NONE, NONE, DUPLICATE, NONE,
                                     NONE, DROP_REQUEST])
    fs.client.channel = channel
    assert handle.read_record(0) == b"a"          # entries 1-2
    assert channel.faults_injected == []
    assert handle.read_record(1) == b"b"          # entries 3-4: meta dup
    assert channel.faults_injected == [DUPLICATE]
    with pytest.raises(ChannelError):
        handle.read_record(2)                     # entries 5-6: data lost
    assert channel.faults_injected == [DUPLICATE, DROP_REQUEST]
    assert handle.read_record(2) == b"c"          # schedule exhausted
    assert channel.counters.flights == 3  # the failed flight is uncounted


@pytest.mark.socket
def test_tagged_channel_sends_a_flight_in_one_write():
    server = CloudServer()
    fs = OutsourcedFileSystem(LoopbackChannel(server),
                              rng=DeterministicRandom("tagged"))
    handle = fs.create_file("g/f", [b"r%d" % i for i in range(4)])
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            fs.client.channel = channel
            assert handle.read_record(1) == b"r1"
            handle.delete_record(0)
            assert handle.read_all() == [b"r1", b"r2", b"r3"]
            counters = channel.counters
            assert channel.frame_bytes == 24 * counters.round_trips
            # read 2 in 1, delete 4 in 3, read_all 2 in 2
            assert (counters.round_trips, counters.flights) == (8, 6)


@pytest.mark.socket
def test_host_sets_nodelay_on_accepted_connections():
    """Without TCP_NODELAY on the server side, Nagle holds the second
    reply of a flight until the client's delayed ACK (~40 ms)."""
    server = CloudServer()
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            channel.request(msg.InsertRequest(file_id=1))
            (conn,) = host._conns.values()
            accepted = conn.sock
            assert accepted.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0


@pytest.mark.socket
def test_threads_sharing_a_channel_keep_their_own_flights():
    """A pipelined block belongs to its thread: several tenants reading
    through ONE tagged channel (more threads than cores, short switch
    interval) each get their own records, never another's reply."""
    import sys

    server = CloudServer()
    tenants = 4
    errors = []
    with TcpServerHost(server) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            handles = []
            for t in range(tenants):
                fs = OutsourcedFileSystem(
                    channel, rng=DeterministicRandom(f"tenant-{t}"),
                    meta_id_base=1 + 100 * t,
                    file_id_base=1_000_000 + 100 * t)
                handles.append(fs.create_file(
                    "g/f", [b"t%d-r%d" % (t, i) for i in range(16)]))

            def reader(t):
                try:
                    for i in range(40):
                        got = handles[t].read_record(i % 16)
                        assert got == b"t%d-r%d" % (t, i % 16), got
                except Exception as exc:  # reported below
                    errors.append((t, exc))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=reader, args=(t,))
                           for t in range(tenants)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
    assert errors == []

"""The server's reader-writer lock and the lock path of ``_dispatch``.

Every wait is bounded (event waits and thread joins with a timeout), so
a lock that is never released fails a test instead of hanging it.
"""

import threading
import time

import pytest

from repro import obs
from repro.client.client import AssuredDeletionClient
from repro.crypto.rng import DeterministicRandom
from repro.obs import instruments as ins
from repro.protocol import messages as msg
from repro.protocol.channel import LoopbackChannel
from repro.server.engine import SQLiteTreeStore
from repro.server.locks import RWLock
from repro.server.server import CloudServer

#: Bound on every wait a test expects to end.
TIMEOUT = 10.0
#: How long a test watches a thread it expects to stay blocked.
BLOCKED = 0.05


class Taker(threading.Thread):
    """Acquires ``lock`` in the given mode, records it, then waits for
    ``done`` before releasing."""

    def __init__(self, lock, exclusive, log=None):
        super().__init__(daemon=True)
        self.lock, self.exclusive, self.log = lock, exclusive, log
        self.holding = threading.Event()
        self.done = threading.Event()

    def run(self):
        self.lock.acquire(self.exclusive, "file")
        try:
            if self.log is not None:
                self.log.append(self)
            self.holding.set()
            self.done.wait(TIMEOUT)
        finally:
            self.lock.release(self.exclusive)

    def finish(self):
        self.done.set()
        self.join(TIMEOUT)
        assert not self.is_alive()


def _waiting(lock):
    """Threads blocked in ``lock``'s acquire, of either mode."""
    return len(lock._cond._waiters)  # noqa: SLF001


def _wait_until(predicate, what):
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


def test_readers_share_the_lock():
    lock = RWLock()
    lock.acquire(False, "file")
    try:
        reader = Taker(lock, exclusive=False)
        reader.start()
        assert reader.holding.wait(TIMEOUT)
        reader.finish()
    finally:
        lock.release(False)
    assert (lock._readers, lock._writer) == (0, False)  # noqa: SLF001


def test_exclusive_holder_excludes_readers_and_writers():
    lock = RWLock()
    lock.acquire(True, "file")
    reader = Taker(lock, exclusive=False)
    writer = Taker(lock, exclusive=True)
    reader.start()
    writer.start()
    _wait_until(lambda: _waiting(lock) == 2,
                "reader and writer never queued")
    assert not reader.holding.wait(BLOCKED)
    assert not writer.holding.wait(BLOCKED)
    lock.release(True)
    # The queued writer goes first, and alone.
    assert writer.holding.wait(TIMEOUT)
    assert not reader.holding.wait(BLOCKED)
    writer.finish()
    assert reader.holding.wait(TIMEOUT)
    reader.finish()


def test_waiting_writer_blocks_new_readers():
    lock = RWLock()
    order = []
    lock.acquire(False, "file")
    writer = Taker(lock, exclusive=True, log=order)
    writer.start()
    _wait_until(lambda: lock._writers_waiting,  # noqa: SLF001
                "writer never queued")
    late_reader = Taker(lock, exclusive=False, log=order)
    late_reader.start()
    assert not late_reader.holding.wait(BLOCKED)
    lock.release(False)
    assert writer.holding.wait(TIMEOUT)
    assert not late_reader.holding.wait(BLOCKED)
    writer.finish()
    assert late_reader.holding.wait(TIMEOUT)
    late_reader.finish()
    assert order == [writer, late_reader]


def test_release_wakes_every_waiter():
    lock = RWLock()
    lock.acquire(True, "file")
    readers = [Taker(lock, exclusive=False) for _ in range(4)]
    for reader in readers:
        reader.start()
    _wait_until(lambda: _waiting(lock) == len(readers),
                "readers never queued")
    lock.release(True)
    for reader in readers:
        assert reader.holding.wait(TIMEOUT)
    assert lock._readers == len(readers)  # noqa: SLF001
    for reader in readers:
        reader.finish()
    assert lock._readers == 0  # noqa: SLF001


def _in_thread(fn):
    """Run ``fn`` on a thread and return its result; fails (rather than
    hangs) when ``fn`` blocks on a lock nobody releases."""
    result = {}

    def run():
        result["value"] = fn()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "blocked on a server lock"
    return result["value"]


@pytest.fixture
def engine_server(tmp_path):
    engine = SQLiteTreeStore(str(tmp_path / "state.db"))
    server = CloudServer(engine=engine)
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("locks"))
    key = client.outsource(1, [b"a", b"b", b"c", b"d"])
    yield server, client, key, client.item_ids_of(4)
    engine.close()


def test_handler_crash_leaves_no_lock_held(engine_server):
    server, client, key, ids = engine_server

    def broken(_request):
        raise RuntimeError("handler bug")

    server._on_modify = broken  # noqa: SLF001 - instance override
    with pytest.raises(RuntimeError, match="handler bug"):
        client.modify(1, key, ids[0], b"x")
    del server._on_modify  # noqa: SLF001

    _in_thread(lambda: client.modify(1, key, ids[0], b"y"))
    assert client.access(1, key, ids[0]) == b"y"
    stats = _in_thread(server.compact_storage)
    assert stats["files_converted"] == 1


def test_interrupted_acquire_releases_the_locks_taken(engine_server):
    """An acquire that raises (an interrupt during its wait) leaves the
    locks taken before it released."""
    server, client, key, ids = engine_server

    class Interrupted(RWLock):
        def acquire(self, exclusive, scope):
            raise KeyboardInterrupt

    server._file_locks._locks[1] = Interrupted()  # noqa: SLF001
    with pytest.raises(KeyboardInterrupt):
        server.handle(msg.AccessRequest(file_id=1, item_id=ids[0]))
    server._file_locks.discard(1)  # noqa: SLF001

    _in_thread(lambda: client.modify(1, key, ids[0], b"z"))
    _in_thread(server.compact_storage)


@pytest.fixture
def observed():
    obs.REGISTRY.reset()
    obs.enable()
    yield
    obs.disable()
    obs.REGISTRY.reset()


@pytest.mark.parametrize("request_of, mode", [
    (lambda ids: msg.AccessRequest(file_id=1, item_id=ids[0]), "shared"),
    (lambda ids: msg.ModifyCommit(file_id=1, item_id=ids[0],
                                  request_id=7), "exclusive"),
], ids=["read", "commit"])
def test_queued_request_shows_in_lock_metrics(observed, request_of, mode):
    server = CloudServer()
    client = AssuredDeletionClient(LoopbackChannel(server),
                                   rng=DeterministicRandom("metrics"))
    client.outsource(1, [b"a", b"b"])
    request = request_of(client.item_ids_of(2))
    held = 0.02

    file_lock = server._file_locks.lock(1)  # noqa: SLF001
    file_lock.acquire(True, "file")
    obs.REGISTRY.reset()  # count only the queued request
    try:
        queued = threading.Thread(target=server.handle, args=(request,),
                                  daemon=True)
        queued.start()
        _wait_until(lambda: _waiting(file_lock),
                    "request never queued on the file lock")
        assert ins.INFLIGHT_REQUESTS.value(file_id="1") == 1
        time.sleep(held)
    finally:
        file_lock.release(True)
    queued.join(TIMEOUT)
    assert not queued.is_alive()

    waits = ins.LOCK_WAIT_SECONDS
    assert waits.count(scope="file", mode=mode) == 1
    assert waits.sum(scope="file", mode=mode) >= held
    assert waits.count(scope="registry", mode="shared") == 1
    assert ins.INFLIGHT_REQUESTS.value(file_id="1") == 0

"""Server-side locking: per-file reader-writer locks plus a registry lock.

The paper's server is passive, but a deployed one is hit by many tenants
at once (the TCP host runs handlers on a pool of threads).  Correctness
under that concurrency is layered as a strict lock hierarchy::

    registry lock  ->  per-file lock  ->  WAL locks

* the **registry lock** guards the file table itself: outsourcing and
  whole-file deletion take it exclusively, every per-file operation takes
  it shared (so a file cannot vanish mid-request);
* the **per-file lock** serialises mutations of one modulation tree
  (commits take it exclusively) while letting any number of readers
  (access/fetch/challenge requests) proceed in parallel;
* the **WAL locks** (inside :class:`~repro.server.wal.CommitLog`) are a
  queue lock and a commit lock: concurrent appends queue their frames
  and one leader writes and fsyncs them as a group, so records from
  different vaults never interleave mid-record.

Locks are always acquired left-to-right in the hierarchy and never in
reverse, which makes deadlock impossible by construction.

:class:`RWLock` is writer-preferring: once a writer is waiting, new
readers queue behind it, so a commit cannot be starved by a stream of
reads.  Its waits are observed in the ``repro_server_lock_wait_seconds``
histogram when observability is on.
"""

from __future__ import annotations

import threading
import time

from repro.obs import runtime as obs


class RWLock:
    """A writer-preferring reader-writer lock.

    Any number of threads may hold the lock *shared*; exactly one may
    hold it *exclusive*, with no concurrent readers.  A waiting writer
    blocks new readers (writer preference), so mutations are never
    starved under read-heavy load.  The lock is not reentrant.

    :meth:`acquire` and :meth:`release` are the whole interface: the
    caller pairs them in a ``try``/``finally`` (see
    ``CloudServer._dispatch``).
    """

    __slots__ = ("_mutex", "_cond", "_readers", "_writer",
                 "_writers_waiting")

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire(self, exclusive: bool, scope: str) -> None:
        """Take the lock (``exclusive`` or shared), blocking until free.

        With observability on, the wait lands in
        ``repro_server_lock_wait_seconds{scope,mode}``.  If the wait is
        interrupted the lock is not taken and nothing need be released.
        """
        start = time.perf_counter() if obs.enabled else None
        with self._mutex:
            if exclusive:
                self._writers_waiting += 1
                try:
                    while self._writer or self._readers:
                        self._cond.wait()
                finally:
                    self._writers_waiting -= 1
                self._writer = True
            else:
                while self._writer or self._writers_waiting:
                    self._cond.wait()
                self._readers += 1
        if start is not None:
            from repro.obs import instruments as ins
            ins.LOCK_WAIT_SECONDS.observe(
                time.perf_counter() - start, scope=scope,
                mode="exclusive" if exclusive else "shared")

    def release(self, exclusive: bool) -> None:
        """Give up a hold taken by :meth:`acquire` with the same mode."""
        with self._mutex:
            if exclusive:
                self._writer = False
            else:
                self._readers -= 1
                if self._readers:
                    return
            self._cond.notify_all()


class FileLockTable:
    """Lazily-created :class:`RWLock` per file id.

    Lock objects are created on first use under an internal mutex and
    dropped when the file is deleted.  A request racing a whole-file
    deletion may briefly hold a lock object no longer in the table; that
    is harmless because the file lookup it guards re-checks existence
    under the registry lock.
    """

    __slots__ = ("_mutex", "_locks")

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locks: dict[int, RWLock] = {}

    def lock(self, file_id: int) -> RWLock:
        """The lock for ``file_id``, created on first use."""
        with self._mutex:
            lock = self._locks.get(file_id)
            if lock is None:
                lock = RWLock()
                self._locks[file_id] = lock
            return lock

    def discard(self, file_id: int) -> None:
        """Forget the lock of a deleted file."""
        with self._mutex:
            self._locks.pop(file_id, None)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._locks)

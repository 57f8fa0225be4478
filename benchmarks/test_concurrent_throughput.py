"""Aggregate read throughput vs client concurrency (ISSUE 4).

N client threads, each its own tenant (own TCP connection, own file,
disjoint id space), read records as fast as they can against ONE server
for a fixed interval; the sweep reports aggregate reads/s at 1, 2, 4, 8
and 16 clients.

The server simulates a fixed per-access service latency (``READ_DELAY``,
a stand-in for disk/WAN time) *inside the request handler* -- i.e. while
the per-file/registry **shared** locks of the concurrent-serving layer
are held.  That placement is the point of the benchmark: aggregate
throughput scales with client count only if the locking layer genuinely
admits concurrent readers.  A regression that serialized reads (a shared
lock turned exclusive, a global server mutex, a single-threaded
transport) collapses the curve to flat and fails the acceptance
assertion below.

Acceptance (ISSUE 4): >= 3x aggregate read ops/s at 8 client threads
over 1 client thread.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.conftest import save_json, save_result
from repro.crypto.rng import DeterministicRandom
from repro.fs.filesystem import OutsourcedFileSystem
from repro.protocol import messages as msg
from repro.protocol.host import TcpServerHost
from repro.protocol.tcp import TcpChannel
from repro.server.server import CloudServer

#: Simulated per-access service time, slept while holding the shared
#: locks.  One logical read = two accesses (meta key + data item).
READ_DELAY = 0.010
THREAD_COUNTS = (1, 2, 4, 8, 16)
#: Host pool threads: one per access the widest sweep point keeps in
#: flight (two per read x 16 clients), so the pool is never the ceiling
#: and the curve measures the shared-lock layer.
HOST_WORKERS = 2 * THREAD_COUNTS[-1]
MEASURE_SECONDS = 1.0
RECORDS_PER_TENANT = 8
RECORD_SIZE = 64


class _SlowReadServer(CloudServer):
    """A CloudServer whose reads take ``READ_DELAY`` of service time.

    The sleep runs inside the handler, i.e. under the registry-shared +
    file-shared locks ``_dispatch`` wraps around it, exactly where a real
    server would spend disk or backend-store latency.
    """

    def _on_access(self, request: msg.AccessRequest) -> msg.Message:
        time.sleep(READ_DELAY)
        return super()._on_access(request)


class _Tenant:
    """One client thread's endpoint: connection, file, and counter.

    ``run`` seeds the client apart from earlier sweeps' tenants on the
    same server: a tenant replaying an earlier one's seed would reuse its
    request ids, and the server would answer the outsourcing of the
    tenant's files from its replay cache instead of applying it."""

    def __init__(self, index: int, address, ctx, run: int) -> None:
        self.index = index
        self.channel = TcpChannel(address, ctx)
        self.fs = OutsourcedFileSystem(
            channel=self.channel,
            rng=DeterministicRandom(f"throughput/{run}/{index}"),
            meta_id_base=1 + index * 1_000,
            file_id_base=1_000_000 * (index + 1))
        name = f"tenant-{index}"
        self.fs.create_file(name, [bytes([index % 251]) * RECORD_SIZE
                                   for _ in range(RECORDS_PER_TENANT)])
        self.handle = self.fs.open(name)
        self.reads = 0

    def read_loop(self, barrier: threading.Barrier, duration: float) -> None:
        barrier.wait()
        deadline = time.perf_counter() + duration
        position = 0
        while time.perf_counter() < deadline:
            self.handle.read_record(position % RECORDS_PER_TENANT)
            position += 1
            self.reads += 1

    def close(self) -> None:
        self.channel.close()


def _measure(address, ctx, workers: int, duration: float) -> float:
    """Aggregate reads/s achieved by ``workers`` concurrent clients."""
    tenants = [_Tenant(i, address, ctx, run=workers)
               for i in range(workers)]
    try:
        barrier = threading.Barrier(workers)
        threads = [threading.Thread(target=tenant.read_loop,
                                    args=(barrier, duration),
                                    name=f"bench-client-{tenant.index}")
                   for tenant in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(tenant.reads for tenant in tenants)
        return total / duration
    finally:
        for tenant in tenants:
            tenant.close()


def _sweep(duration: float, counts=THREAD_COUNTS) -> dict[int, float]:
    server = _SlowReadServer()
    host = TcpServerHost(server, workers=HOST_WORKERS).start()
    try:
        return {workers: _measure(host.address, server.ctx, workers,
                                  duration)
                for workers in counts}
    finally:
        host.stop()


@pytest.fixture(scope="module")
def throughput_curve() -> dict[int, float]:
    curve = _sweep(MEASURE_SECONDS)
    base = curve[THREAD_COUNTS[0]]
    lines = [
        f"Aggregate read throughput vs client threads "
        f"(simulated {READ_DELAY * 1e3:.0f} ms/access service time, "
        f"{MEASURE_SECONDS:.1f} s measure window)",
        "",
        f"{'clients':>8} {'reads/s':>9} {'scaling':>8}",
    ]
    for workers in THREAD_COUNTS:
        lines.append(f"{workers:>8} {curve[workers]:>9.1f} "
                     f"{curve[workers] / base:>7.2f}x")
    table = "\n".join(lines)
    save_result("concurrent_throughput", table)
    save_json("concurrent_throughput", {
        "op": "read",
        "seconds": MEASURE_SECONDS,
        "reads_per_second": {str(workers): curve[workers]
                             for workers in THREAD_COUNTS},
        "scaling_at_8": curve[8] / curve[1],
    })
    print("\n" + table)
    return curve


def test_reads_scale_with_clients(throughput_curve):
    """ISSUE 4 acceptance: >= 3x aggregate reads/s at 8 clients vs 1."""
    ratio = throughput_curve[8] / throughput_curve[1]
    assert ratio >= 3.0, throughput_curve


def test_scaling_is_monotone_to_eight(throughput_curve):
    """Each doubling up to 8 clients must help (no lock convoy)."""
    assert throughput_curve[2] > throughput_curve[1]
    assert throughput_curve[4] > throughput_curve[2]
    assert throughput_curve[8] > throughput_curve[4]


def test_quick_concurrent_smoke():
    """CI smoke: tiny sweep, shape only -- concurrency beats one client."""
    curve = _sweep(0.3, counts=(1, 4))
    assert curve[4] > curve[1] * 1.5, curve

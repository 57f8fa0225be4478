"""/healthz, /readyz, /statusz, scraper disconnects, and probes."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.health import HEALTH, HealthRegistry
from repro.obs.httpd import MetricsServer, status_snapshot
from repro.obs.metrics import MetricsRegistry


def fetch(address, path):
    url = f"http://{address[0]}:{address[1]}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


# ---------------------------------------------------------------------
# HealthRegistry
# ---------------------------------------------------------------------

def test_registry_aggregates_checks():
    registry = HealthRegistry()
    registry.register("good", lambda: (True, "fine"))
    registry.register("bad", lambda: (False, "broken"))
    report = registry.run_checks()
    assert report["ready"] is False
    assert report["checks"]["good"]["ok"] is True
    assert report["checks"]["bad"]["detail"] == "broken"
    registry.unregister("bad")
    assert registry.run_checks()["ready"] is True


def test_raising_check_reports_failure_not_500():
    registry = HealthRegistry()
    registry.register("boom", lambda: 1 / 0)
    report = registry.run_checks()
    assert report["ready"] is False
    assert "ZeroDivisionError" in report["checks"]["boom"]["detail"]


def test_stopping_flag_fails_readiness_even_with_green_checks():
    registry = HealthRegistry()
    registry.register("good", lambda: (True, "fine"))
    registry.set_stopping()
    report = registry.run_checks()
    assert report["stopping"] is True
    assert report["ready"] is False


# ---------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------

def test_healthz_ok_then_503_once_stopping():
    with MetricsServer(MetricsRegistry()) as server:
        status, body = fetch(server.address, "/healthz")
        assert (status, body) == (200, "ok\n")
        server.stopping = True
        status, body = fetch(server.address, "/healthz")
        assert (status, body) == (503, "stopping\n")


def test_healthz_503_when_process_is_draining():
    with MetricsServer(MetricsRegistry()) as server:
        HEALTH.set_stopping()
        status, _ = fetch(server.address, "/healthz")
        assert status == 503


def test_readyz_reflects_registered_probes():
    with MetricsServer(MetricsRegistry()) as server:
        status, body = fetch(server.address, "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True

        HEALTH.register("wal", lambda: (False, "failed closed"))
        status, body = fetch(server.address, "/readyz")
        assert status == 503
        report = json.loads(body)
        assert report["checks"]["wal"]["detail"] == "failed closed"


def test_statusz_serves_health_and_metric_values():
    registry = MetricsRegistry()
    registry.counter("demo_total", "", ("op",)).inc(3, op="rm")
    registry.gauge("demo_depth", "").set(7)
    registry.histogram("demo_seconds", "", (), (0.1, 1.0)).observe(0.05)
    HEALTH.register("good", lambda: (True, "fine"))
    with MetricsServer(registry) as server:
        status, body = fetch(server.address, "/statusz")
    assert status == 200
    snapshot = json.loads(body)
    assert snapshot["checks"]["good"]["ok"] is True
    assert snapshot["metrics"]["demo_total"] == {"op=rm": 3}
    assert snapshot["metrics"]["demo_depth"] == 7
    assert snapshot["metrics"]["demo_seconds"]["count"] == 1


def test_status_snapshot_function_matches_http_body():
    registry = MetricsRegistry()
    registry.counter("c_total", "").inc()
    snapshot = status_snapshot(registry)
    assert snapshot["metrics"]["c_total"] == 1
    assert snapshot["ready"] is True


def test_scraper_disconnect_mid_response_is_silent(capfd):
    registry = MetricsRegistry()
    # A body large enough that the handler's write outlives the client.
    big = registry.counter("big_total", "x" * 512, ("k",))
    for i in range(2000):
        big.inc(k=f"label-{i}")
    with MetricsServer(registry) as server:
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.sendall(b"GET /metrics HTTP/1.1\r\n"
                         b"Host: x\r\nConnection: close\r\n\r\n")
            sock.recv(1)  # response under way...
            # ...and hang up mid-body without reading the rest.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
            sock.close()
        # The server must still answer the next well-behaved scrape.
        status, body = fetch(server.address, "/metrics")
    assert status == 200 and "big_total" in body
    captured = capfd.readouterr()
    assert "Traceback" not in captured.err
    assert "Broken" not in captured.err


def test_404_still_served():
    with MetricsServer(MetricsRegistry()) as server:
        status, _ = fetch(server.address, "/nope")
        assert status == 404


# ---------------------------------------------------------------------
# Probe wiring: WAL and TCP host
# ---------------------------------------------------------------------

def test_wal_health_reports_usable_and_failed_closed(tmp_path):
    from repro.server.wal import CommitLog
    log = CommitLog(str(tmp_path / "w.wal"))
    ok, detail = log.health()
    assert ok and "durable" in detail
    log._failed = True
    ok, detail = log.health()
    assert not ok and "failed closed" in detail
    log._failed = False
    log.close()
    assert log.health()[0] is False


def test_tcp_host_registers_and_unregisters_its_probe():
    from repro.protocol.host import TcpServerHost
    from repro.server.server import CloudServer

    host = TcpServerHost(CloudServer())
    name = host._health_name
    host.start()
    try:
        assert name in HEALTH.run_checks()["checks"]
        ok, detail = host.health()
        assert ok, detail
    finally:
        host.stop()
    assert name not in HEALTH.run_checks()["checks"]
    assert host.health()[0] is False  # stopped host is not ready


def test_tcp_host_probe_fails_when_every_pool_thread_is_stuck():
    """Readiness is pool liveness: with its only thread wedged in a
    handler (no leader in poll) the host turns unready once the last
    poll is older than ``STALL_AFTER``, and ready again after."""
    from repro.protocol import host as host_mod
    from repro.protocol import messages as msg
    from repro.protocol.tcp import TcpChannel
    from repro.server.server import CloudServer

    server = CloudServer()
    release = threading.Event()
    entered = threading.Event()

    class _Wedged:
        ctx = server.ctx

        def handle_bytes(self, data):
            entered.set()
            release.wait(10.0)
            return server.handle_bytes(data)

    host = host_mod.TcpServerHost(_Wedged(), workers=1).start()
    channel = TcpChannel(host.address, server.ctx)
    worker = threading.Thread(
        target=channel.request, args=(msg.FetchFileRequest(file_id=1),))
    try:
        worker.start()
        assert entered.wait(5.0)
        host._last_poll -= host_mod.STALL_AFTER + 1.0
        ok, detail = host.health()
        assert not ok and "busy" in detail
        release.set()
        worker.join(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while not host.health()[0] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert host.health()[0]
    finally:
        release.set()
        channel.close()
        host.stop()


def test_tcp_host_gauges_move_only_with_obs_on():
    from repro.obs import instruments as ins
    from repro.protocol import messages as msg
    from repro.protocol.host import TcpServerHost
    from repro.protocol.tcp import TcpChannel
    from repro.server.server import CloudServer

    server = CloudServer()
    with TcpServerHost(server, workers=2) as host:
        with TcpChannel(host.address, server.ctx) as channel:
            channel.request(msg.FetchFileRequest(file_id=1))
            assert not list(ins.HOST_BUSY_THREADS.samples())
            assert not list(ins.HOST_PICKUP_SECONDS.samples())
            obs.enable()
            for _ in range(5):
                channel.request(msg.FetchFileRequest(file_id=1))
    # Every pool thread counted itself busy and back again.
    assert list(ins.HOST_BUSY_THREADS.samples()) == \
        ["repro_host_busy_threads 0"]
    assert list(ins.HOST_PICKUP_SECONDS.samples())
    assert ins.HOST_PICKUP_SECONDS.value() >= 0.0


# ---------------------------------------------------------------------
# Metric value hygiene (NaN / Inf regression)
# ---------------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_histogram_ignores_non_finite_observations(bad):
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", "", (), (0.1, 1.0))
    hist.observe(0.5)
    hist.observe(bad)
    assert hist.count() == 1
    assert hist.sum() == 0.5
    rendered = registry.render()
    assert "nan" not in rendered.lower()
    assert "h_seconds_sum 0.5" in rendered


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_gauge_ignores_non_finite_sets(bad):
    registry = MetricsRegistry()
    gauge = registry.gauge("g_depth", "")
    gauge.set(4)
    gauge.set(bad)
    assert gauge.value() == 4
    assert "g_depth 4" in registry.render()

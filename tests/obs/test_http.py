"""The /metrics HTTP endpoint."""

import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import MetricsRegistry


def scrape(address, path="/metrics"):
    url = f"http://{address[0]}:{address[1]}{path}"
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, dict(response.headers), \
            response.read().decode("utf-8")


def test_metrics_endpoint_serves_registry():
    registry = MetricsRegistry()
    registry.counter("demo_total", "a demo", labelnames=("op",)).inc(op="x")
    with MetricsServer(registry) as server:
        status, headers, body = scrape(server.address)
    assert status == 200
    assert headers["Content-Type"] == CONTENT_TYPE
    assert 'demo_total{op="x"} 1' in body


def test_scrape_reflects_live_updates():
    registry = MetricsRegistry()
    counter = registry.counter("live_total", "")
    with MetricsServer(registry) as server:
        _, _, before = scrape(server.address)
        counter.inc(5)
        _, _, after = scrape(server.address)
    assert "live_total 5" not in before
    assert "live_total 5" in after


def test_healthz_and_404():
    with MetricsServer(MetricsRegistry()) as server:
        status, _, body = scrape(server.address, "/healthz")
        assert status == 200 and body == "ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            scrape(server.address, "/other")
        excinfo.value.close()   # the error holds the response's socket
        assert excinfo.value.code == 404


def test_start_metrics_server_helper_uses_global_registry():
    from repro import obs
    server = obs.start_metrics_server(port=0)
    try:
        obs.REGISTRY.counter("helper_total", "").inc()
        _, _, body = scrape(server.address)
        assert "helper_total 1" in body
    finally:
        server.stop()

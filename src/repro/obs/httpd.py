"""Prometheus text exposition and health surface over HTTP.

A threaded stdlib HTTP server exposing, for ``repro-vault serve
--metrics-port`` and anything else that wants to scrape the process:

* ``/metrics``  -- Prometheus text exposition (0.0.4);
* ``/healthz``  -- liveness: ``200 ok`` while the process serves, ``503``
  once shutdown has begun (the flag flips before the listener closes, so
  a load balancer sees the drain);
* ``/readyz``   -- readiness: runs every probe registered in
  :data:`repro.obs.health.HEALTH` (WAL not failed closed and its handle
  open, TCP host pool live, ...) and answers ``200``/``503`` with a JSON
  body naming each check's verdict;
* ``/statusz``  -- one JSON snapshot of the health checks plus every
  counter and gauge (and histogram count/sum), for humans and scripts
  that want state without a Prometheus parser.

Deliberately minimal: GET only, no TLS, bind it to loopback or a private
interface.  A scraper that disconnects mid-response (curl timeout,
Prometheus reload) is swallowed silently -- half-written sockets are the
scraper's business, not traceback spam on the server's stderr.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.health import HEALTH
from repro.obs.metrics import REGISTRY, Counter, Gauge, Histogram, \
    MetricsRegistry

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Scraper hung up mid-response; never worth a traceback.
_DISCONNECTS = (BrokenPipeError, ConnectionResetError)


def status_snapshot(registry: MetricsRegistry) -> dict:
    """The ``/statusz`` body: health verdicts + flattened metric values."""
    snapshot = HEALTH.run_checks()
    metrics: dict[str, object] = {}
    for metric in registry.metrics():
        if isinstance(metric, (Counter, Gauge)):
            with metric._lock:
                values = dict(metric._values)
            if not metric.labelnames:
                metrics[metric.name] = values.get((), 0.0)
            else:
                metrics[metric.name] = {
                    ",".join(f"{n}={v}" for n, v
                             in zip(metric.labelnames, key)): value
                    for key, value in sorted(values.items())}
        elif isinstance(metric, Histogram):
            with metric._lock:
                count = sum(s[2] for s in metric._series.values())
                total = sum(s[1] for s in metric._series.values())
            metrics[metric.name] = {"count": count, "sum": total}
    snapshot["metrics"] = metrics
    return snapshot


def _make_handler(registry: MetricsRegistry, owner: "MetricsServer"):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, body: bytes,
                  content_type: str = "text/plain") -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            try:
                self._route(self.path.split("?", 1)[0])
            except _DISCONNECTS:
                self.close_connection = True

        def _route(self, path: str) -> None:
            if path == "/metrics":
                self._send(200, registry.render().encode("utf-8"),
                           CONTENT_TYPE)
            elif path == "/healthz":
                if owner.stopping or HEALTH.stopping:
                    self._send(503, b"stopping\n")
                else:
                    self._send(200, b"ok\n")
            elif path == "/readyz":
                report = HEALTH.run_checks()
                ready = report["ready"] and not owner.stopping
                body = json.dumps(report, indent=2).encode("utf-8")
                self._send(200 if ready else 503, body,
                           "application/json")
            elif path == "/statusz":
                body = json.dumps(status_snapshot(registry),
                                  indent=2).encode("utf-8")
                self._send(200, body, "application/json")
            else:
                self.send_error(404, "try /metrics")

        def finish(self):
            try:
                super().finish()
            except _DISCONNECTS:
                pass  # flush of a dead socket on teardown

        def log_message(self, format, *args):  # noqa: A002 - stdlib API
            pass  # scrapes must not spam the server's stdout

    return Handler


class MetricsServer:
    """Serves a registry on ``host:port`` from a daemon thread."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.stopping = False
        self._httpd = ThreadingHTTPServer(
            (host, port), _make_handler(self.registry, self))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address  # type: ignore[return-value]

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self.stopping = False
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-http", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            # Flip liveness to 503 before the listener dies so an
            # in-flight health probe observes the drain.
            self.stopping = True
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Readiness checks and the process-wide stopping flag.

``/healthz`` answers "is the process up?"; ``/readyz`` answers "should a
load balancer send traffic here *right now*?".  The difference is this
registry: subsystems register named probe callables (WAL not failed
closed and its handle open, TCP host pool live), the
HTTP surface runs them on demand, and a single failing probe -- or the
process having begun shutdown -- flips readiness to 503 while liveness
stays green until the listener actually closes.

Probes return ``(ok, detail)`` and must be cheap and non-blocking; a
probe that raises is reported as failing with the exception text rather
than taking the health endpoint down.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Tuple

#: A probe: () -> (ok, human-readable detail).
Check = Callable[[], Tuple[bool, str]]


class HealthRegistry:
    """Named readiness probes plus the graceful-shutdown flag."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checks: Dict[str, Check] = {}
        self._stopping = False

    # -- registration ----------------------------------------------------

    def register(self, name: str, check: Check) -> None:
        """Add (or replace) a named probe."""
        with self._lock:
            self._checks[name] = check

    def unregister(self, name: str) -> None:
        with self._lock:
            self._checks.pop(name, None)

    # -- shutdown flag ---------------------------------------------------

    @property
    def stopping(self) -> bool:
        return self._stopping

    def set_stopping(self, value: bool = True) -> None:
        """Mark the process as draining: readiness goes 503 immediately."""
        self._stopping = value

    # -- evaluation ------------------------------------------------------

    def run_checks(self) -> dict:
        """Evaluate every probe; never raises.

        Returns ``{"ready": bool, "stopping": bool, "checks": {name:
        {"ok": bool, "detail": str}}}`` -- the exact body ``/readyz``
        serves, so tests and the HTTP layer share one code path.
        """
        with self._lock:
            checks = dict(self._checks)
        results = {}
        ready = not self._stopping
        for name in sorted(checks):
            try:
                ok, detail = checks[name]()
            except Exception as exc:  # probe bugs must not kill /readyz
                ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
            results[name] = {"ok": bool(ok), "detail": str(detail)}
            ready = ready and bool(ok)
        return {"ready": ready, "stopping": self._stopping,
                "checks": results}

    def reset(self) -> None:
        """Drop every probe and clear the stopping flag (tests)."""
        with self._lock:
            self._checks.clear()
        self._stopping = False


#: Process-wide registry the HTTP surface serves.
HEALTH = HealthRegistry()

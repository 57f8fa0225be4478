"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A tiny Prometheus-compatible core with no dependencies: metrics are
registered once by name (get-or-create, so any module can declare the
instrument it needs and share it), updates are lock-protected (server
handler threads record concurrently), and the whole registry renders to
the Prometheus text exposition format (0.0.4) for the ``/metrics``
endpoint and the CLI ``metrics`` command.

Histograms use fixed buckets chosen at registration -- cumulative
``le``-labelled counts exactly as Prometheus expects -- so per-type
latency distributions cost one bisect per observation.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Iterable, Optional, Sequence

#: Default latency buckets (seconds): ~50 us to 10 s, log-ish spaced.
LATENCY_BUCKETS = (0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
                   0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class Metric:
    """Base: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_suffix(self, key: tuple,
                      extra: Sequence[tuple[str, str]] = ()) -> str:
        pairs = [f'{name}="{_escape_label(value)}"'
                 for name, value in zip(self.labelnames, key)]
        pairs.extend(f'{name}="{_escape_label(value)}"'
                     for name, value in extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def samples(self) -> Iterable[str]:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value per label combination."""

    kind = "counter"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self):
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield f"{self.name}{self._label_suffix(key)} " \
                  f"{_format_value(value)}"

    def reset(self):
        with self._lock:
            self._values.clear()


class Gauge(Metric):
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, name, help_text, labelnames=()):
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        value = float(value)
        if not math.isfinite(value):
            # A NaN/Inf sample would poison the exposition output (and
            # every PromQL expression touching it); drop it silently --
            # gauges are best-effort snapshots, not ledgers.
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self):
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield f"{self.name}{self._label_suffix(key)} " \
                  f"{_format_value(value)}"

    def reset(self):
        with self._lock:
            self._values.clear()


class Histogram(Metric):
    """Fixed-bucket latency/size distribution per label combination."""

    kind = "histogram"

    def __init__(self, name, help_text, labelnames=(),
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help_text, labelnames)
        buckets = tuple(sorted(buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = buckets
        # per key: ([count per bucket] + [overflow], sum, count)
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        if not math.isfinite(value):
            # NaN corrupts _sum forever (NaN + x = NaN) and +/-Inf makes
            # the rendered _sum unusable; ignore such samples outright.
            return
        key = self._key(labels)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels) -> int:
        series = self._series.get(self._key(labels))
        return 0 if series is None else series[2]

    def sum(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else series[1]

    def samples(self):
        with self._lock:
            items = [(key, [list(series[0]), series[1], series[2]])
                     for key, series in sorted(self._series.items())]
        for key, (per_bucket, total, count) in items:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, per_bucket):
                cumulative += bucket_count
                suffix = self._label_suffix(
                    key, extra=(("le", _format_value(bound)),))
                yield f"{self.name}_bucket{suffix} {cumulative}"
            suffix = self._label_suffix(key, extra=(("le", "+Inf"),))
            yield f"{self.name}_bucket{suffix} {count}"
            plain = self._label_suffix(key)
            yield f"{self.name}_sum{plain} {_format_value(total)}"
            yield f"{self.name}_count{plain} {count}"

    def reset(self):
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Name-keyed collection of metrics with get-or-create registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls) or \
                        metric.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different kind or label set")
                return metric
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every series (tests; the instruments stay registered)."""
        for metric in self.metrics():
            metric.reset()

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples())
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrument registers into.
REGISTRY = MetricsRegistry()


def render_prometheus(registry: MetricsRegistry = REGISTRY) -> str:
    return registry.render()

"""Table I: complexity comparison of the three solutions.

The paper states the asymptotics analytically; we *measure* them.  Each
solution's client storage and per-deletion communication/computation are
sampled over a geometric grid of file sizes, and the growth law is
classified by least-squares fit against constant, logarithmic, and linear
models.  The regenerated table reports the fitted class next to the
paper's claim.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from repro.analysis.config import complexity_grid
from repro.analysis.render import render_table
from repro.baselines.base import BlobStoreServer
from repro.baselines.individual_key import IndividualKeySolution
from repro.baselines.keymod import KeyModulationScheme
from repro.baselines.master_key import MasterKeySolution
from repro.crypto.rng import DeterministicRandom
from repro.protocol.channel import LoopbackChannel
from repro.server.server import CloudServer
from repro.sim.workload import make_items

_ITEM_SIZE = 64
_DELETES_PER_POINT = 21


def _robust(values: list[float]) -> float:
    """Lower-quartile aggregate: timing noise is one-sided (GC pauses,
    scheduler preemption only ever ADD time), so the lower quartile tracks
    the true cost far better than the mean or even the median."""
    ordered = sorted(values)
    return ordered[len(ordered) // 4]


def classify_growth(ns: list[int], ys: list[float]) -> str:
    """Least-squares classification into O(1) / O(log n) / O(n).

    Fits ``y = a + b*f(n)`` for f in {log n, n} and compares residuals
    against the constant model.  A more complex model is accepted only if
    it explains a substantial share of the variance (noise on
    microsecond-scale timings would otherwise always prefer the extra
    parameter) and its slope contributes a non-trivial fraction of the
    observed values.
    """
    x = [float(n) for n in ns]
    y = [float(v) for v in ys]
    if max(y) <= 0:
        return "O(1)"
    mean = statistics.fmean(y)
    constant_residual = sum((v - mean) ** 2 for v in y)
    y_extent = max(max(abs(v) for v in y), 1e-12)

    def fit(feature: list[float]) -> tuple[float, float]:
        slope, intercept = statistics.linear_regression(feature, y)
        residual = sum((v - (intercept + slope * f)) ** 2
                       for f, v in zip(feature, y))
        slope_share = slope * (max(feature) - min(feature)) / y_extent
        return residual, slope_share

    log_residual, log_share = fit([math.log2(n) for n in x])
    lin_residual, lin_share = fit(x)

    # Growth must explain >= 60% of the variance and move the values by
    # >= 35% across the grid to count as growth at all -- the genuine
    # logarithmic terms of this system contribute ~45-60% over a 64x
    # grid, while microsecond-scale timer artefacts stay around 20%.
    explains = {
        "O(log n)": (log_residual < 0.4 * constant_residual
                     and log_share > 0.35),
        "O(n)": (lin_residual < 0.4 * constant_residual and lin_share > 0.35),
    }
    # Dynamic-range guard: a genuinely linear series over a grid spanning
    # R x in n grows by ~R x in y (modulo an additive constant); a noisy
    # logarithmic series never does.  Without this, one slow top-of-grid
    # sample can make the linear fit win on residuals alone.
    n_range = max(x) / min(x)
    y_range = max(y) / max(min(y), 1e-12)
    if n_range >= 16 and y_range < max(4.0, 0.1 * n_range):
        explains["O(n)"] = False
    if not any(explains.values()):
        return "O(1)"
    if explains["O(log n)"] and explains["O(n)"]:
        return "O(log n)" if log_residual <= lin_residual else "O(n)"
    return "O(log n)" if explains["O(log n)"] else "O(n)"


@dataclass
class SchemeScaling:
    """Measured deletion scaling of one solution."""

    name: str
    storage_bytes: dict[int, float]
    comm_bytes: dict[int, float]
    comp_seconds: dict[int, float]

    def classified(self) -> tuple[str, str, str]:
        ns = sorted(self.storage_bytes)
        return (
            classify_growth(ns, [self.storage_bytes[n] for n in ns]),
            classify_growth(ns, [self.comm_bytes[n] for n in ns]),
            classify_growth(ns, [self.comp_seconds[n] for n in ns]),
        )


def _build(name: str, seed: str):
    rng = DeterministicRandom(seed)
    if name == "master-key":
        return MasterKeySolution(LoopbackChannel(BlobStoreServer()), rng=rng)
    if name == "individual-key":
        return IndividualKeySolution(LoopbackChannel(BlobStoreServer()), rng=rng)
    if name == "our-work":
        return KeyModulationScheme(LoopbackChannel(CloudServer()), rng=rng)
    raise ValueError(name)


def measure_scaling(name: str, grid: list[int] | None = None) -> SchemeScaling:
    """Measure one solution's deletion cost across the size grid."""
    grid = grid if grid is not None else complexity_grid()
    storage: dict[int, float] = {}
    comm: dict[int, float] = {}
    comp: dict[int, float] = {}
    for n in grid:
        scheme = _build(name, seed=f"tab1-{name}-{n}")
        items = make_items(n, _ITEM_SIZE, DeterministicRandom(f"items-{n}"))
        item_ids = scheme.outsource(items)
        storage[n] = float(scheme.client_storage_bytes())

        pick = DeterministicRandom(f"pick-{name}-{n}")
        live = list(item_ids)
        # The O(n) scheme's deletions are ms-to-seconds and noise-free;
        # three samples suffice there, while the microsecond-scale schemes
        # get the full count to beat timer noise.
        deletes = 3 if name == "master-key" else _DELETES_PER_POINT
        for _ in range(min(deletes, len(live))):
            victim = live.pop(pick.below(len(live)))
            scheme.delete(victim)
        records = scheme.metrics.for_op("delete")
        comm[n] = _robust([float(r.overhead_bytes) for r in records])
        comp[n] = _robust([r.client_seconds for r in records])
    return SchemeScaling(name=name, storage_bytes=storage, comm_bytes=comm,
                         comp_seconds=comp)


#: The paper's Table I claims, for side-by-side rendering.
PAPER_CLAIMS = {
    "master-key": ("O(1)", "O(n)", "O(n)"),
    "individual-key": ("O(n)", "O(1)", "O(1)"),
    "our-work": ("O(1)", "O(log n)", "O(log n)"),
}


def run_table1(grid: list[int] | None = None) -> tuple[str, dict[str, tuple]]:
    """Regenerate Table I; returns (rendered text, fitted classes)."""
    results = {}
    rows = []
    for name in ("master-key", "individual-key", "our-work"):
        scaling = measure_scaling(name, grid)
        fitted = scaling.classified()
        results[name] = fitted
        paper = PAPER_CLAIMS[name]
        rows.append([
            name,
            f"{fitted[0]} (paper {paper[0]})",
            f"{fitted[1]} (paper {paper[1]})",
            f"{fitted[2]} (paper {paper[2]})",
        ])
    table = render_table(
        "Table I -- complexity comparison (measured fit vs paper claim)",
        ["solution", "client storage", "deletion comm", "deletion comp"],
        rows)
    return table, results

"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from typing import Optional

import numpy as np

# Name resolution is owned by the facade; re-exported here because the
# experiment harnesses historically imported it from this module.
from repro.api import resolve_cluster, resolve_model
from repro.runner import RunSpec, run_cached, run_many
from repro.schedulers.base import ScheduleResult

__all__ = [
    "resolve_cluster",
    "resolve_model",
    "format_table",
    "throughput_objective",
]


def format_table(rows: list[dict], columns: Optional[list[str]] = None) -> str:
    """Fixed-width text table of dict rows (for CLI / bench output)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    rendered = []
    for row in rows:
        rendered.append(
            {col: _fmt(row.get(col, "")) for col in columns}
        )
    widths = {
        col: max(len(col), *(len(r[col]) for r in rendered)) for col in columns
    }
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    body = [
        "  ".join(r[col].ljust(widths[col]) for col in columns) for r in rendered
    ]
    return "\n".join([header, separator, *body])


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


class throughput_objective:
    """Cached throughput-vs-buffer-size objective for one workload.

    Fig. 3 and Fig. 10 evaluate the same black-box function many times
    (across tuners and seeds); this wrapper snaps queries onto a fine
    log grid and memoises simulator calls, keeping the sweeps cheap
    while changing each query point by under half a grid step.
    """

    def __init__(
        self,
        model,
        cluster,
        low: float = 1e6,
        high: float = 100e6,
        grid_points: int = 96,
        iterations: int = 5,
        noise_std: float = 0.0,
        seed: int = 0,
    ):
        self.model = resolve_model(model)
        self.cluster = resolve_cluster(cluster)
        self.grid = np.logspace(np.log10(low), np.log10(high), grid_points)
        self.iterations = iterations
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        self._cache: dict[float, float] = {}
        self.evaluations = 0

    def snap(self, buffer_bytes: float) -> float:
        """Nearest grid point (in log space)."""
        index = int(np.argmin(np.abs(np.log(self.grid) - np.log(buffer_bytes))))
        return float(self.grid[index])

    def _spec(self, buffer_bytes: float) -> RunSpec:
        return RunSpec.create(
            "dear",
            self.model,
            self.cluster,
            fusion="buffer",
            buffer_bytes=buffer_bytes,
            iterations=self.iterations,
        )

    def true_value(self, buffer_bytes: float) -> float:
        """Noise-free throughput at the snapped buffer size (samples/s)."""
        snapped = self.snap(buffer_bytes)
        if snapped not in self._cache:
            result: ScheduleResult = run_cached(self._spec(snapped))
            self._cache[snapped] = result.throughput
            self.evaluations += 1
        return self._cache[snapped]

    def prefetch(self, jobs: Optional[int] = None) -> None:
        """Evaluate every grid point through the parallel runner.

        Fills the in-memory memo (and the on-disk cache) in one
        fan-out; subsequent queries are pure lookups.
        """
        missing = [float(x) for x in self.grid if float(x) not in self._cache]
        if not missing:
            return
        results = run_many([self._spec(x) for x in missing], jobs=jobs)
        for x, result in zip(missing, results):
            self._cache[x] = result.throughput
            self.evaluations += 1

    def optimum(self, jobs: Optional[int] = None) -> tuple[float, float]:
        """(buffer size, throughput) of the best grid point."""
        self.prefetch(jobs=jobs)
        best_x, best_y = None, -np.inf
        for x in self.grid:
            y = self.true_value(float(x))
            if y > best_y:
                best_x, best_y = float(x), y
        return best_x, best_y

    def __call__(self, buffer_bytes: float) -> float:
        value = self.true_value(buffer_bytes)
        if self.noise_std:
            value *= 1.0 + self.noise_std * self._rng.standard_normal()
        return value

"""Fig. 3: Bayesian-optimisation example on DenseNet-201.

The paper's running example: tune the fusion buffer size for training
DenseNet-201 with 9 BO samples; the GP posterior localises the optimum
(~35 MB in their setup) with good confidence.  The harness runs the
same loop against the simulated throughput function and reports the
samples, the posterior over the 1-100 MB range, and the gap between
the BO pick and the exhaustive-grid optimum.
"""

from __future__ import annotations

import numpy as np

from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.search import tune
from repro.experiments.common import format_table, throughput_objective

__all__ = ["run", "format_rows"]


def run(
    model="densenet201",
    cluster="10gbe",
    samples: int = 9,
    seed: int = 0,
    posterior_points: int = 25,
) -> list[dict]:
    """One BO run; rows tagged ``kind`` = sample | posterior | summary."""
    objective = throughput_objective(model, cluster)
    optimizer = BayesianOptimizer(1e6, 100e6, xi=0.1, seed=seed)
    tune(optimizer, objective, samples)
    rows: list[dict] = [
        {"kind": "sample", "trial": trial, "buffer_mb": x / 1e6, "throughput": y}
        for trial, (x, y) in enumerate(optimizer.observations, start=1)
    ]

    xs = np.logspace(np.log10(1e6), np.log10(100e6), posterior_points)
    mean, std = optimizer.posterior(xs)
    for x, m, s in zip(xs, mean, std):
        rows.append(
            {
                "kind": "posterior",
                "buffer_mb": x / 1e6,
                "mean": float(m),
                "std": float(s),
            }
        )

    best_x, best_y = optimizer.best
    opt_x, opt_y = objective.optimum()
    rows.append(
        {
            "kind": "summary",
            "bo_best_mb": best_x / 1e6,
            "bo_best_throughput": best_y,
            "grid_optimum_mb": opt_x / 1e6,
            "grid_optimum_throughput": opt_y,
            "fraction_of_optimum": best_y / opt_y,
        }
    )
    return rows


def format_rows(rows: list[dict]) -> str:
    return format_table([r for r in rows if r["kind"] != "posterior"])

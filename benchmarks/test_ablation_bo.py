"""Ablation: BO internals — the EI exploration parameter and acquisition.

The paper sets the EI hyper-parameter xi = 0.1 "to prefer buffer size
exploration" (§IV-B).  This bench sweeps xi and compares EI against
GP-UCB on the real tuning objective, reporting trials-to-97%-of-optimum
averaged over seeds.
"""

import numpy as np

from benchmarks.conftest import run_and_report
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.search import tune
from repro.experiments.common import format_table, throughput_objective

SEEDS = (0, 1, 2, 3, 4)
MAX_TRIALS = 30


def _trials(make_tuner, objective, target):
    counts = []
    for seed in SEEDS:
        objective._rng = np.random.default_rng(seed)
        counts.append(
            tune(
                make_tuner(seed), objective, MAX_TRIALS, target=target,
                true_value=objective.true_value,
            )
        )
    return float(np.mean(counts)), float(np.std(counts))


def run():
    rows = []
    for model in ("resnet50", "densenet201"):
        objective = throughput_objective(model, "10gbe", noise_std=0.01)
        _, optimum = objective.optimum()
        target = 0.97 * optimum
        for xi in (0.0, 0.05, 0.1, 0.5, 1.0):
            mean, std = _trials(
                lambda seed, xi=xi: BayesianOptimizer(1e6, 100e6, xi=xi, seed=seed),
                objective, target,
            )
            rows.append(
                {"model": model, "acquisition": "ei", "param": xi,
                 "mean_trials": mean, "std_trials": std}
            )
        for kappa in (1.0, 2.0, 4.0):
            mean, std = _trials(
                lambda seed, kappa=kappa: BayesianOptimizer(
                    1e6, 100e6, acquisition="ucb", kappa=kappa, seed=seed
                ),
                objective, target,
            )
            rows.append(
                {"model": model, "acquisition": "ucb", "param": kappa,
                 "mean_trials": mean, "std_trials": std}
            )
    return rows


def test_ablation_bo(benchmark):
    rows = run_and_report(benchmark, "ablation_bo", run, format_table)
    # Every configuration converges within the budget on average.
    assert all(row["mean_trials"] <= MAX_TRIALS for row in rows)
    # The paper's xi = 0.1 must be competitive: within 2x of the best
    # EI setting per model.
    for model in ("resnet50", "densenet201"):
        ei_rows = [r for r in rows if r["model"] == model and r["acquisition"] == "ei"]
        best = min(r["mean_trials"] for r in ei_rows)
        paper = next(r for r in ei_rows if r["param"] == 0.1)
        assert paper["mean_trials"] <= max(2.0 * best, best + 4.0)

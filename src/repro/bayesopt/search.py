"""The tuning loop and the random- and grid-search baselines of Fig. 10.

Every tuner — these two baselines and
:class:`~repro.bayesopt.optimizer.BayesianOptimizer` — shares the
``suggest``/``observe``/``best`` interface of :class:`_SearchBase`, and
:func:`tune` is the one loop that drives any of them: DeAR's run-time
fusion tuning, Fig. 3's BO example and Fig. 10's "tuning cost" (how
many trials a tuner needs before its best-so-far enters a tolerance
band around the optimum) all call it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.telemetry.registry import default_registry

__all__ = [
    "RandomSearch",
    "GridSearch",
    "tune",
    "publish_observation",
    "tuned_fusion_search",
    "compare_fusion_strategies",
]


def publish_observation(tuner: str, trial: int, best_y: float) -> None:
    """One tuner step into the registry: eval count + best-so-far curve.

    Shared by every suggest/observe tuner (including the Bayesian
    optimiser), so Fig. 10 style convergence comparisons can be read
    straight out of a metrics snapshot.
    """
    registry = default_registry()
    registry.counter(
        "bayesopt.evals", "objective evaluations, by tuner"
    ).inc(tuner=tuner)
    registry.series(
        "bayesopt.best_so_far", "best objective value after each trial"
    ).append(trial, best_y, tuner=tuner)


def tuned_fusion_search(
    model,
    cluster,
    algorithm: str = "auto",
    tuned_table=None,
    bo_trials: int = 15,
    iterations: int = 5,
    seed: Optional[int] = 0,
):
    """The paper's BO fusion search, scored under a collective choice.

    Runs DeAR's run-time Bayesian-optimisation loop (``fusion="bo"``)
    with the cost model built for ``algorithm`` — ``"auto"`` scores
    every fusion candidate under autotuned (algorithm, protocol,
    channels) collectives, so fusion and collective selection are
    optimised *jointly* instead of fusion-only as in the paper.  With
    ``tuned_table=None`` the cluster's table is built (and registered)
    on demand; pass ``algorithm="ring"`` for the paper's baseline.

    Returns the final :class:`~repro.schedulers.base.ScheduleResult`
    (its ``extras`` carry ``buffer_bytes`` and the BO history).
    """
    from repro.models.profiles import TimingModel
    from repro.network.cost_model import CollectiveTimeModel
    from repro.schedulers.base import get_scheduler

    if algorithm == "auto" and tuned_table is None:
        from repro.network.autotuner import ensure_table

        tuned_table = ensure_table(cluster)
    timing = TimingModel.for_model(model)
    cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=tuned_table)
    scheduler = get_scheduler(
        "dear", fusion="bo", bo_trials=bo_trials, bo_seed=seed
    )
    result = scheduler.run(timing, cost, iterations=iterations)
    result.extras["algorithm"] = algorithm
    return result


def compare_fusion_strategies(
    model,
    cluster,
    bo_trials: int = 15,
    iterations: int = 5,
    seed: Optional[int] = 0,
) -> dict:
    """Ring-only vs. jointly-tuned BO fusion search on one workload.

    The acceptance check for the co-optimisation: the jointly-tuned
    plan's iteration time must be <= the ring-only plan's (an autotuned
    model never prices a collective above plain ring, and the BO loop
    scores candidates under whichever model it is given).
    """
    ring = tuned_fusion_search(
        model, cluster, algorithm="ring",
        bo_trials=bo_trials, iterations=iterations, seed=seed,
    )
    tuned = tuned_fusion_search(
        model, cluster, algorithm="auto",
        bo_trials=bo_trials, iterations=iterations, seed=seed,
    )
    return {
        "ring": ring,
        "tuned": tuned,
        "ring_iteration_time": ring.iteration_time,
        "tuned_iteration_time": tuned.iteration_time,
        "speedup": ring.iteration_time / tuned.iteration_time,
    }


class _SearchBase:
    """Observation bookkeeping shared by every tuner over ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
        self.low = low
        self.high = high
        self._xs: list[float] = []
        self._ys: list[float] = []

    @property
    def observations(self) -> list[tuple[float, float]]:
        """All (x, y) pairs observed so far."""
        return list(zip(self._xs, self._ys))

    @property
    def best(self) -> tuple[float, float]:
        """Best (x, y) observed so far."""
        if not self._ys:
            raise RuntimeError("no observations yet")
        index = int(np.argmax(self._ys))
        return self._xs[index], self._ys[index]

    def observe(self, x: float, y: float) -> None:
        """Record one measurement of the objective."""
        if not self.low <= x <= self.high:
            raise ValueError(f"x={x} outside the domain [{self.low}, {self.high}]")
        if not np.isfinite(y):
            raise ValueError(f"objective must be finite, got {y}")
        self._xs.append(float(x))
        self._ys.append(float(y))
        publish_observation(type(self).__name__, len(self._ys), max(self._ys))

    def _grid(self, points: int, log_scale: bool) -> np.ndarray:
        """``points`` values spanning the domain, log- or evenly spaced."""
        if log_scale:
            grid = np.logspace(np.log10(self.low), np.log10(self.high), points)
        else:
            grid = np.linspace(self.low, self.high, points)
        # logspace's end points can round just outside [low, high].
        return np.clip(grid, self.low, self.high)


class RandomSearch(_SearchBase):
    """Uniformly random sampling (log-uniform over the buffer domain)."""

    def __init__(self, low: float, high: float, log_scale: bool = True,
                 seed: Optional[int] = None):
        super().__init__(low, high)
        self.log_scale = log_scale
        self._rng = np.random.default_rng(seed)

    def suggest(self) -> float:
        if self.log_scale:
            value = np.exp(self._rng.uniform(np.log(self.low), np.log(self.high)))
        else:
            value = self._rng.uniform(self.low, self.high)
        # exp(log(bound)) can round just outside [low, high].
        return float(np.clip(value, self.low, self.high))


class GridSearch(_SearchBase):
    """Sequential sweep over a fixed grid (log-spaced by default).

    Cycles through the grid in order; in practice the budget runs out
    long before the grid does, which is exactly the pathology Fig. 10
    highlights.
    """

    def __init__(self, low: float, high: float, points: int = 20, log_scale: bool = True):
        super().__init__(low, high)
        if points < 2:
            raise ValueError(f"grid needs at least 2 points, got {points}")
        self._points = self._grid(points, log_scale)
        self._cursor = 0

    def suggest(self) -> float:
        value = float(self._points[self._cursor % len(self._points)])
        self._cursor += 1
        return value


def tune(
    tuner,
    objective: Callable[[float], float],
    trials: int,
    target: Optional[float] = None,
    true_value: Optional[Callable[[float], float]] = None,
) -> int:
    """Run ``tuner``'s suggest/measure/observe loop; returns trials run.

    Each trial observes ``objective(tuner.suggest())``.  Without
    ``target`` all ``trials`` run.  With one, the loop stops at the
    (1-based) trial whose best-so-far first meets ``target`` and
    returns it, or ``trials`` if the budget runs out first.  With a
    noisy ``objective``, pass ``true_value`` to judge convergence on
    the noise-free value of the tuner's best point instead of its
    (noisy) observation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for trial in range(1, trials + 1):
        x = tuner.suggest()
        tuner.observe(x, objective(x))
        if target is None:
            continue
        best_x, best_y = tuner.best
        achieved = true_value(best_x) if true_value is not None else best_y
        if achieved >= target:
            return trial
    return trials

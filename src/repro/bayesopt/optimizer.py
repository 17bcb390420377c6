"""The suggest/observe Bayesian-optimisation loop.

One-dimensional by design (DeAR tunes a single buffer-size knob), with
the domain searched on a log scale: buffer sizes from 1 MB to 100 MB
span two decades, and throughput responds to *ratios* of buffer size,
not differences (paper Fig. 3 uses the same range).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bayesopt.acquisition import expected_improvement, upper_confidence_bound
from repro.bayesopt.gp import GaussianProcess
from repro.bayesopt.search import _SearchBase

__all__ = ["BayesianOptimizer"]


class BayesianOptimizer(_SearchBase):
    """Maximise a black-box scalar function of one positive parameter.

    Usage::

        bo = BayesianOptimizer(1e6, 100e6, seed=0)
        tune(bo, measure, 15)       # first trial: the 25 MB default
        best_x, best_y = bo.best    # (paper §IV-B), EI-guided after it
    """

    def __init__(
        self,
        low: float,
        high: float,
        xi: float = 0.1,
        acquisition: str = "ei",
        kappa: float = 2.0,
        initial: Optional[float] = 25e6,
        candidates: int = 256,
        log_scale: bool = True,
        noise: float = 1e-2,
        seed: Optional[int] = None,
    ):
        super().__init__(low, high)
        if acquisition not in ("ei", "ucb"):
            raise ValueError(f"unknown acquisition {acquisition!r}")
        self.xi = xi
        self.kappa = kappa
        self.acquisition = acquisition
        self.log_scale = log_scale
        self.noise = noise
        self._rng = np.random.default_rng(seed)
        self._initial = initial if initial is not None and low <= initial <= high else None
        self._candidates = self._grid(candidates, log_scale)

    def observe(self, x: float, y: float) -> None:
        """Record one measurement of the objective."""
        # Defined here, not only inherited, so a profiler can wrap the
        # optimiser's own suggest/observe pair.
        super().observe(x, y)

    # -- suggestion ----------------------------------------------------------

    def _warp(self, x: np.ndarray) -> np.ndarray:
        """Map domain values to the GP's [0, 1] input space."""
        x = np.asarray(x, dtype=float)
        if self.log_scale:
            return (np.log(x) - np.log(self.low)) / (np.log(self.high) - np.log(self.low))
        return (x - self.low) / (self.high - self.low)

    def posterior(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, std) of the surrogate at domain points ``xs``.

        Useful for plotting the Fig. 3 style confidence band.
        """
        gp = GaussianProcess(noise=self.noise)
        gp.fit(self._warp(np.asarray(self._xs))[:, None], self._ys)
        return gp.predict(self._warp(xs)[:, None])

    def suggest(self) -> float:
        """Next point to evaluate.

        The first suggestion is the 25 MB default the paper starts
        from; the second (with one observation, the GP is flat) probes
        a random point; afterwards the acquisition optimum over the
        candidate grid, with observed points masked out.
        """
        if not self._xs and self._initial is not None:
            return float(self._initial)
        if len(self._xs) < 2:
            return float(
                self._candidates[self._rng.integers(len(self._candidates))]
            )
        observed = self._warp(np.asarray(self._xs))
        candidates = self._warp(self._candidates)
        gp = GaussianProcess(noise=self.noise)
        gp.fit(observed[:, None], self._ys)
        mean, std = gp.predict(candidates[:, None])
        best_y = max(self._ys)
        if self.acquisition == "ei":
            scores = expected_improvement(mean, std, best_y, xi=self.xi)
        else:
            scores = upper_confidence_bound(mean, std, kappa=self.kappa)
        # Avoid re-evaluating (numerically) already-observed points.
        distance = np.abs(candidates[None, :] - observed[:, None])
        scores[(distance < 1e-3).any(axis=0)] = -np.inf
        if not np.isfinite(scores).any():
            return float(self._candidates[self._rng.integers(len(self._candidates))])
        return float(self._candidates[int(np.argmax(scores))])

"""Gaussian-process regression with an RBF kernel.

Implemented directly on numpy: Cholesky factorisation for the posterior
solves, log-marginal-likelihood for hyperparameter selection over a
small grid (full gradient-based optimisation is overkill for the 1-D,
tens-of-points problems BO faces here).

Inputs are expected pre-normalised (the optimiser maps the search
domain to [0, 1]); targets are standardised internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["RBFKernel", "GaussianProcess"]

_JITTER = 1e-10


@dataclass(frozen=True)
class RBFKernel:
    """Squared-exponential kernel ``s^2 exp(-|x - x'|^2 / (2 l^2))``."""

    length_scale: float = 0.2
    signal_variance: float = 1.0

    def __post_init__(self):
        if self.length_scale <= 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if self.signal_variance <= 0:
            raise ValueError(
                f"signal_variance must be positive, got {self.signal_variance}"
            )

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix between row-stacked inputs ``a`` (n,d) and ``b`` (m,d)."""
        return self.signal_variance * np.exp(
            -0.5 * _squared_distances(a, b) / self.length_scale**2
        )


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a_i - b_j|^2`` of row-stacked inputs, clipped at zero."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq -= 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


class GaussianProcess:
    """GP posterior over noisy observations.

    Args:
        kernel: covariance function; if ``None`` the length scale is
            selected by log-marginal likelihood over a grid at fit time.
        noise: observation noise variance (relative to the standardised
            targets).  Throughput measurements are noisy, so the default
            is deliberately non-trivial.
    """

    _LENGTH_SCALE_GRID = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)

    def __init__(self, kernel: Optional[RBFKernel] = None, noise: float = 1e-2):
        if noise < 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self._fixed_kernel = kernel
        self.kernel = kernel or RBFKernel()
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def fitted(self) -> bool:
        return self._x is not None

    def fit(self, x: Sequence, y: Sequence[float]) -> "GaussianProcess":
        """Condition the GP on observations (x_i, y_i)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and x.shape[1] > 1:
            x = x.T  # accept 1-D input vectors
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} inputs vs {y.shape[0]} targets")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")

        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        y_norm = (y - self._y_mean) / self._y_std

        kernels = ([self._fixed_kernel] if self._fixed_kernel is not None else
                   [RBFKernel(length_scale=scale) for scale in self._LENGTH_SCALE_GRID])
        self.kernel, self._chol, self._alpha = self._select_kernel(kernels, x, y_norm)
        self._x = x
        return self

    def _select_kernel(
        self, kernels: list[RBFKernel], x: np.ndarray, y_norm: np.ndarray
    ) -> tuple[RBFKernel, np.ndarray, np.ndarray]:
        """The kernel of highest log marginal likelihood (the first of
        equal ones), with its Cholesky factor and ``alpha = K^-1 y``.

        The grams are built in one broadcast and factored in one stacked
        ``cholesky``.  A grid scale whose gram is not positive definite
        drops out; a fixed kernel's raises ``LinAlgError``.
        """
        n = len(y_norm)
        variances = np.array([k.signal_variance for k in kernels])[:, None, None]
        scales = np.array([k.length_scale**2 for k in kernels])[:, None, None]
        grams = variances * np.exp(-0.5 * _squared_distances(x, x) / scales)
        grams[:, np.arange(n), np.arange(n)] += self.noise + _JITTER
        candidates = list(range(len(kernels)))
        try:
            chols = np.linalg.cholesky(grams)
        except np.linalg.LinAlgError:
            candidates = [k for k in candidates
                          if len(kernels) > 1 and _positive_definite(grams[k])]
            if not candidates:
                raise
            chols = np.linalg.cholesky(grams[candidates])
        targets = np.broadcast_to(y_norm[:, None], (len(candidates), n, 1))
        alphas = np.linalg.solve(
            np.swapaxes(chols, 1, 2), np.linalg.solve(chols, targets)
        )[..., 0]
        lmls = (
            np.array([-0.5 * y_norm @ alpha for alpha in alphas])
            - np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
            - 0.5 * n * np.log(2 * np.pi)
        )
        best = int(np.argmax(lmls))
        return kernels[candidates[best]], chols[best], alphas[best]

    def predict(self, x_query: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the query points."""
        if not self.fitted:
            raise RuntimeError("GP not fitted; call fit() first")
        x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
        if x_query.shape[1] != self._x.shape[1]:
            x_query = x_query.reshape(-1, self._x.shape[1])
        k_star = self.kernel(x_query, self._x)
        mean = k_star @ self._alpha
        v = np.linalg.solve(self._chol, k_star.T)
        variance = self.kernel.signal_variance - np.sum(v * v, axis=0)
        np.maximum(variance, 0.0, out=variance)
        std = np.sqrt(variance)
        return mean * self._y_std + self._y_mean, std * self._y_std


def _positive_definite(gram: np.ndarray) -> bool:
    try:
        return np.linalg.cholesky(gram) is not None
    except np.linalg.LinAlgError:
        return False

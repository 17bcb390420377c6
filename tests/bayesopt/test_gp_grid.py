"""Stacked length-scale selection == the per-scale loop, bit for bit.

``GaussianProcess`` picks its RBF length scale by log marginal
likelihood over a six-point grid.  It builds the six grams in one
broadcast, factors them with one stacked ``np.linalg.cholesky`` and
reuses the winner's factor and ``alpha`` for the posterior.
:class:`LoopGP` keeps the loop it replaced — one gram, one factor and
one LML per scale, then the winner factored again — as the oracle, and
the properties below pin that the chosen kernel, ``chol``, ``alpha`` and
``predict`` agree byte for byte, including when a scale's gram is not
positive definite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayesopt.gp import _JITTER, GaussianProcess, RBFKernel


class LoopGP(GaussianProcess):
    """The per-scale selection loop (the oracle)."""

    def fit(self, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and x.shape[1] > 1:
            x = x.T
        y = np.asarray(y, dtype=float).reshape(-1)
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        if self._fixed_kernel is None:
            best_kernel, best_lml = None, -np.inf
            for length_scale in self._LENGTH_SCALE_GRID:
                kernel = RBFKernel(length_scale=length_scale)
                lml = self._lml(kernel, x, y_norm)
                if lml > best_lml:
                    best_kernel, best_lml = kernel, lml
            self.kernel = best_kernel
        gram = self.kernel(x, x)
        gram[np.diag_indices_from(gram)] += self.noise + _JITTER
        chol = np.linalg.cholesky(gram)
        self._x = x
        self._chol = chol
        self._alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_norm))
        return self

    def _lml(self, kernel, x, y_norm) -> float:
        gram = kernel(x, x)
        gram[np.diag_indices_from(gram)] += self.noise + _JITTER
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_norm))
        return float(
            -0.5 * y_norm @ alpha
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * len(y_norm) * np.log(2 * np.pi)
        )


#: Query points: the BO candidate grid's size, spread past [0, 1].
QUERY = np.linspace(-0.1, 1.1, 256)[:, None]

# A small pool makes duplicate inputs common.
inputs = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False),
    ),
    min_size=1, max_size=15,
)


def _targets(n: int):
    return st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n
    )


def _assert_same(stacked: GaussianProcess, loop: GaussianProcess) -> None:
    assert stacked.kernel == loop.kernel
    assert stacked._chol.tobytes() == loop._chol.tobytes()
    assert stacked._alpha.tobytes() == loop._alpha.tobytes()
    for got, want in zip(stacked.predict(QUERY), loop.predict(QUERY)):
        assert got.tobytes() == want.tobytes()


def _fit_both(x, y, noise: float):
    stacked, loop = GaussianProcess(), LoopGP()
    # Set directly: a negative noise (which the constructor rejects)
    # makes the long scales' grams indefinite.
    stacked.noise = loop.noise = noise
    return stacked.fit(np.array(x)[:, None], y), loop.fit(np.array(x)[:, None], y)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), x=inputs, noise=st.sampled_from([0.0, 1e-2]))
def test_stacked_selection_matches_the_loop(data, x, noise):
    y = data.draw(_targets(len(x)))
    _assert_same(*_fit_both(x, y, noise))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), x=inputs)
def test_an_indefinite_scale_drops_out(data, x):
    y = data.draw(_targets(len(x)))
    try:
        loop = LoopGP()
        loop.noise = -0.5
        loop.fit(np.array(x)[:, None], y)
    except (np.linalg.LinAlgError, TypeError):
        # No scale factors: the loop had no kernel; the stacked fit raises.
        stacked = GaussianProcess()
        stacked.noise = -0.5
        with pytest.raises(np.linalg.LinAlgError):
            stacked.fit(np.array(x)[:, None], y)
        return
    _assert_same(*_fit_both(x, y, -0.5))


def test_indefinite_long_scales_leave_the_short_ones():
    """Spread points: the short scales factor, the long ones do not."""
    x = np.linspace(0.0, 1.0, 8)
    y = np.sin(6 * x)
    stacked, loop = _fit_both(x, y, -0.5)
    grams = [
        RBFKernel(length_scale=scale)(x[:, None], x[:, None])
        + (-0.5 + _JITTER) * np.eye(len(x))
        for scale in GaussianProcess._LENGTH_SCALE_GRID
    ]
    definite = [bool(np.all(np.linalg.eigvalsh(g) > 0)) for g in grams]
    assert definite[0] and not definite[-1]
    _assert_same(stacked, loop)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), x=inputs,
       scale=st.sampled_from(GaussianProcess._LENGTH_SCALE_GRID),
       variance=st.sampled_from([0.5, 1.0, 2.0]))
def test_fixed_kernel_matches_the_loop(data, x, scale, variance):
    y = data.draw(_targets(len(x)))
    kernel = RBFKernel(length_scale=scale, signal_variance=variance)
    points = np.array(x)[:, None]
    _assert_same(GaussianProcess(kernel).fit(points, y),
                 LoopGP(kernel).fit(points, y))


def test_fixed_indefinite_kernel_raises():
    gp = GaussianProcess(RBFKernel(length_scale=1.0))
    gp.noise = -0.5
    with pytest.raises(np.linalg.LinAlgError):
        gp.fit(np.linspace(0.0, 1.0, 5)[:, None], np.arange(5.0))

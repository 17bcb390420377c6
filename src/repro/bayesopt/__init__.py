"""Bayesian optimisation, from scratch (paper §IV-B).

DeAR tunes its tensor-fusion buffer size at run time with Bayesian
optimisation: a Gaussian-process surrogate over the unknown
throughput-vs-buffer-size function and an expected-improvement
acquisition with exploration parameter ``xi = 0.1`` (the paper's
setting, chosen to "prefer buffer size exploration").

- :mod:`repro.bayesopt.gp` — Gaussian-process regression (RBF kernel,
  Cholesky solves, marginal-likelihood hyperparameter selection);
- :mod:`repro.bayesopt.acquisition` — expected improvement and upper
  confidence bound;
- :mod:`repro.bayesopt.optimizer` — the Bayesian suggest/observe tuner;
- :mod:`repro.bayesopt.search` — :func:`tune`, the one
  suggest/measure/observe loop every tuner runs through, plus random
  and grid search baselines.
"""

from repro.bayesopt.acquisition import expected_improvement, upper_confidence_bound
from repro.bayesopt.gp import GaussianProcess, RBFKernel
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.search import GridSearch, RandomSearch, tune

__all__ = [
    "BayesianOptimizer",
    "GaussianProcess",
    "GridSearch",
    "RBFKernel",
    "RandomSearch",
    "expected_improvement",
    "tune",
    "upper_confidence_bound",
]

"""Tests for acquisition functions, the BO loop, and search baselines."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bayesopt.acquisition import expected_improvement, upper_confidence_bound
from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.search import GridSearch, RandomSearch, tune


class TestExpectedImprovement:
    def test_zero_when_mean_far_below_best(self):
        ei = expected_improvement(np.array([0.0]), np.array([1e-9]), best=10.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_mean_above_best(self):
        ei = expected_improvement(np.array([11.0]), np.array([0.1]), best=10.0, xi=0.0)
        assert ei[0] > 0.9

    def test_uncertainty_raises_ei(self):
        certain = expected_improvement(np.array([10.0]), np.array([0.01]), 10.0, xi=0.0)
        uncertain = expected_improvement(np.array([10.0]), np.array([1.0]), 10.0, xi=0.0)
        assert uncertain[0] > certain[0]

    def test_xi_penalises_marginal_improvements(self):
        eager = expected_improvement(np.array([10.5]), np.array([0.2]), 10.0, xi=0.0)
        cautious = expected_improvement(np.array([10.5]), np.array([0.2]), 10.0, xi=1.0)
        assert cautious[0] < eager[0]

    def test_zero_std_exact(self):
        ei = expected_improvement(
            np.array([12.0, 8.0]), np.array([0.0, 0.0]), best=10.0, xi=0.0
        )
        np.testing.assert_allclose(ei, [2.0, 0.0])

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.array([1.0]), np.array([1.0]), 0.0, xi=-0.1)

    def test_ucb(self):
        ucb = upper_confidence_bound(np.array([1.0]), np.array([2.0]), kappa=2.0)
        assert ucb[0] == pytest.approx(5.0)


class TestBayesianOptimizer:
    def test_first_suggestion_is_paper_default(self):
        bo = BayesianOptimizer(1e6, 100e6, seed=0)
        assert bo.suggest() == pytest.approx(25e6)

    def test_suggestions_within_bounds(self):
        bo = BayesianOptimizer(1e6, 100e6, seed=1)
        for _ in range(10):
            x = bo.suggest()
            assert 1e6 <= x <= 100e6
            bo.observe(x, -(np.log(x) - np.log(10e6)) ** 2)

    def test_finds_smooth_optimum(self):
        """BO should localise a log-quadratic peak within ~12 trials."""
        optimum = 20e6
        bo = BayesianOptimizer(1e6, 100e6, xi=0.1, seed=0)
        for _ in range(12):
            x = bo.suggest()
            bo.observe(x, -(np.log(x / optimum)) ** 2)
        best_x, _ = bo.best
        assert abs(np.log(best_x / optimum)) < np.log(2.0)  # within 2x

    def test_beats_few_shot_random_on_average(self):
        def objective(x):
            return -(np.log(x / 15e6)) ** 2

        def best_after(tuner, trials):
            for _ in range(trials):
                x = tuner.suggest()
                tuner.observe(x, objective(x))
            return tuner.best[1]

        bo_scores = [
            best_after(BayesianOptimizer(1e6, 100e6, seed=s), 8) for s in range(5)
        ]
        random_scores = [
            best_after(RandomSearch(1e6, 100e6, seed=s), 8) for s in range(5)
        ]
        assert np.mean(bo_scores) >= np.mean(random_scores)

    def test_observe_out_of_domain_rejected(self):
        bo = BayesianOptimizer(1e6, 100e6)
        with pytest.raises(ValueError):
            bo.observe(1e9, 1.0)

    def test_observe_nan_rejected(self):
        bo = BayesianOptimizer(1e6, 100e6)
        with pytest.raises(ValueError):
            bo.observe(10e6, float("nan"))

    def test_best_requires_observations(self):
        with pytest.raises(RuntimeError):
            BayesianOptimizer(1e6, 100e6).best

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(10.0, 1.0)

    def test_unknown_acquisition(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(1.0, 2.0, acquisition="vibes")

    def test_posterior_shapes(self):
        bo = BayesianOptimizer(1e6, 100e6, seed=0)
        for x, y in [(2e6, 1.0), (20e6, 3.0), (80e6, 2.0)]:
            bo.observe(x, y)
        xs = np.logspace(6, 8, 10)
        mean, std = bo.posterior(xs)
        assert mean.shape == (10,) and std.shape == (10,)

    def test_deterministic_given_seed(self):
        def run(seed):
            bo = BayesianOptimizer(1e6, 100e6, seed=seed)
            xs = []
            for _ in range(6):
                x = bo.suggest()
                xs.append(x)
                bo.observe(x, -(np.log(x / 30e6)) ** 2)
            return xs

        assert run(7) == run(7)


class TestSearchBaselines:
    def test_random_search_within_bounds(self):
        rs = RandomSearch(1e6, 100e6, seed=0)
        for _ in range(50):
            assert 1e6 <= rs.suggest() <= 100e6

    def test_random_search_log_spread(self):
        rs = RandomSearch(1e6, 100e6, seed=0)
        xs = [rs.suggest() for _ in range(200)]
        below_10mb = sum(1 for x in xs if x < 10e6)
        # log-uniform: ~half the samples in each decade
        assert 60 < below_10mb < 140

    def test_grid_search_sweeps_in_order(self):
        gs = GridSearch(1e6, 100e6, points=5)
        xs = [gs.suggest() for _ in range(5)]
        assert xs == sorted(xs)
        assert xs[0] == pytest.approx(1e6)
        assert xs[-1] == pytest.approx(100e6)

    def test_grid_search_cycles(self):
        gs = GridSearch(1e6, 100e6, points=3)
        xs = [gs.suggest() for _ in range(6)]
        assert xs[:3] == xs[3:]

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            GridSearch(1.0, 2.0, points=1)

    def test_random_search_stays_inside_its_domain(self):
        # exp(log(1e6)) rounds to just below 1e6.
        rs = RandomSearch(1e6, 100e6, seed=0)
        rs._rng = SimpleNamespace(uniform=lambda low, high: low)
        assert rs.suggest() == 1e6

    def test_grid_search_stays_inside_its_domain(self):
        # logspace rounds the last of these 20 points past 7e7.
        gs = GridSearch(3e5, 7e7, points=20)
        xs = [gs.suggest() for _ in range(20)]
        assert all(3e5 <= x <= 7e7 for x in xs)
        assert xs[-1] == 7e7

    @pytest.mark.parametrize("tuner", [
        GridSearch(1.0, 100.0, points=4),
        RandomSearch(1.0, 100.0, seed=0),
        BayesianOptimizer(1.0, 100.0, seed=0),
    ], ids=lambda tuner: type(tuner).__name__)
    def test_observe_rejects_points_outside_the_domain(self, tuner):
        for x in (0.5, 100.5):
            with pytest.raises(ValueError, match="outside the domain"):
                tuner.observe(x, 1.0)
        assert tuner.observations == []

    def test_tune_immediate(self):
        gs = GridSearch(1.0, 100.0, points=4)
        assert tune(gs, lambda x: 1.0, 50, target=0.5) == 1

    def test_tune_budget_exhausted(self):
        gs = GridSearch(1.0, 100.0, points=4)
        assert tune(gs, lambda x: 0.0, 7, target=1.0) == 7

    def test_tune_true_value_criterion(self):
        rs = RandomSearch(1.0, 100.0, seed=0)
        # Noisy observations, but the true value never reaches the target:
        rng = np.random.default_rng(0)
        result = tune(
            rs,
            lambda x: 0.5 + rng.normal(0, 0.5),
            10,
            target=0.9,
            true_value=lambda x: 0.5,
        )
        assert result == 10

    def test_tune_without_target_runs_every_trial(self):
        gs = GridSearch(1.0, 100.0, points=4)
        assert tune(gs, lambda x: x, 6) == 6
        xs = [x for x, _ in gs.observations]
        assert len(xs) == 6 and xs[4:] == xs[:2]

    def test_tune_needs_a_trial(self):
        with pytest.raises(ValueError):
            tune(GridSearch(1.0, 100.0), lambda x: x, 0)

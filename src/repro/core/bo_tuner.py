"""Run-time buffer-size tuner (paper §IV-B).

The tuner wraps :class:`~repro.bayesopt.optimizer.BayesianOptimizer`
into the measurement loop the paper describes: start from the 25 MB
default, measure average system throughput over ``steps_per_trial``
training steps, feed the observation to BO, and adopt the suggested
buffer size for the next trial.  After ``max_trials`` trials the tuner
locks in the best configuration seen.

The tuner is clock-agnostic: callers report (samples, elapsed) pairs,
so it works identically against wall-clock training and the
discrete-event simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.bayesopt.optimizer import BayesianOptimizer

__all__ = ["BufferSizeTuner"]


class BufferSizeTuner:
    """Suggest/measure loop around the fusion buffer size.

    Usage::

        tuner = BufferSizeTuner(steps_per_trial=10)
        while training:
            run_step(buffer_bytes=tuner.buffer_bytes)
            new_size = tuner.record_step(samples=batch, elapsed=dt)
            if new_size is not None:
                refuse_groups(new_size)   # tuner moved to a new trial
    """

    def __init__(
        self,
        low: float = 1e6,
        high: float = 100e6,
        initial: float = 25e6,
        steps_per_trial: int = 10,
        max_trials: int = 20,
        xi: float = 0.1,
        seed: Optional[int] = 0,
    ):
        if steps_per_trial < 1:
            raise ValueError(f"steps_per_trial must be >= 1, got {steps_per_trial}")
        if max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {max_trials}")
        self.steps_per_trial = steps_per_trial
        self.max_trials = max_trials
        initial = float(min(max(initial, low), high))  # clamp into the domain
        self._bo = BayesianOptimizer(low, high, xi=xi, initial=initial, seed=seed)
        self.buffer_bytes = initial
        self._samples = 0.0
        self._elapsed = 0.0
        self._steps = 0
        self.trials_completed = 0
        self.converged = False

    def record_step(self, samples: float, elapsed: float) -> Optional[float]:
        """Report one training step; returns a new buffer size when the
        current trial completes (None otherwise)."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        if self.converged:
            return None
        self._samples += samples
        self._elapsed += elapsed
        self._steps += 1
        if self._steps < self.steps_per_trial:
            return None
        throughput = self._samples / self._elapsed
        self._bo.observe(self.buffer_bytes, throughput)
        self.trials_completed += 1
        self._samples = self._elapsed = 0.0
        self._steps = 0
        if self.trials_completed >= self.max_trials:
            self.buffer_bytes, _ = self._bo.best
            self.converged = True
        else:
            self.buffer_bytes = self._bo.suggest()
        return self.buffer_bytes

    @property
    def history(self) -> list[tuple[float, float]]:
        """Every completed trial's (buffer size, throughput), in order."""
        return self._bo.observations

    @property
    def best(self) -> tuple[float, float]:
        """Best (buffer size, throughput) observed so far."""
        return self._bo.best

"""Auto-tuning the decoupling configuration (§VII-A future work).

"We leave decoupling more all-reduce algorithms as our future work, and
the decoupling configuration can be automatically tuned using BO."
This module implements that: for each decomposable collective family
(ring RS+AG, double-binary-tree reduce+broadcast, recursive
halving+doubling, hierarchical two-level ring), DeAR's own
Bayesian-optimisation fusion tuning (``fusion="bo"``) picks the buffer,
and the best (algorithm, buffer) pair overall wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.models.layers import ModelSpec
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.schedulers.base import get_scheduler

__all__ = ["DecouplingChoice", "tune_decoupling"]

_ALL_FAMILIES = ("ring", "halving_doubling", "tree", "hierarchical")


@dataclass
class DecouplingChoice:
    """The tuner's verdict plus the full search record."""

    algorithm: str
    buffer_bytes: float
    throughput: float
    iteration_time: float
    per_algorithm: dict[str, tuple[float, float]] = field(default_factory=dict)
    history: list[tuple[str, float, float]] = field(default_factory=list)

    def describe(self) -> str:
        ranked = sorted(
            self.per_algorithm.items(), key=lambda item: -item[1][1]
        )
        lines = [
            f"best: {self.algorithm} @ {self.buffer_bytes / 1e6:.1f} MB "
            f"-> {self.throughput:.0f} samples/s"
        ]
        for algorithm, (buffer_bytes, throughput) in ranked:
            lines.append(
                f"  {algorithm:<17} best buffer {buffer_bytes / 1e6:>6.1f} MB "
                f"-> {throughput:>10.0f} samples/s"
            )
        return "\n".join(lines)


def tune_decoupling(
    model: ModelSpec,
    cluster: ClusterSpec,
    algorithms: Optional[Sequence[str]] = None,
    bo_trials: int = 10,
    bo_low: float = 1e6,
    bo_high: float = 100e6,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
    iterations: int = 5,
    seed: int = 0,
) -> DecouplingChoice:
    """Pick the best (collective family, fusion buffer) for a workload.

    Families whose preconditions the cluster violates (halving-doubling
    on a non-power-of-two world) are skipped automatically.
    """
    timing = TimingModel.for_model(
        model, batch_size=batch_size, iteration_compute=iteration_compute
    )
    candidates = list(algorithms) if algorithms is not None else list(_ALL_FAMILIES)

    choice: Optional[DecouplingChoice] = None
    per_algorithm: dict[str, tuple[float, float]] = {}
    history: list[tuple[str, float, float]] = []

    for algorithm in candidates:
        try:
            cost = CollectiveTimeModel(cluster, algorithm=algorithm)
        except ValueError:
            continue  # e.g. halving_doubling on non-power-of-two worlds
        result = get_scheduler(
            "dear", fusion="bo", bo_trials=bo_trials, bo_low=bo_low,
            bo_high=bo_high, bo_seed=seed,
        ).run(timing, cost, iterations)
        best_buffer = result.extras["buffer_bytes"]
        per_algorithm[algorithm] = (best_buffer, result.throughput)
        history.extend(
            (algorithm, buffer_bytes, throughput)
            for buffer_bytes, throughput in result.extras["bo_history"]
        )
        if choice is None or result.throughput > choice.throughput:
            choice = DecouplingChoice(
                algorithm=algorithm,
                buffer_bytes=best_buffer,
                throughput=result.throughput,
                iteration_time=result.iteration_time,
            )

    if choice is None:
        raise ValueError(
            f"no usable collective family among {candidates} on {cluster.name}"
        )
    choice.per_algorithm = per_algorithm
    choice.history = history
    return choice

"""Retrying, group-rebuilding communicator over a faulty transport.

:class:`ResilientCommunicator` mirrors the
:class:`~repro.collectives.communicator.Communicator` API but survives
the faults a :class:`~repro.faults.transport.FaultyTransport` injects:

- **timeouts** (dropped or delayed messages) — the whole collective is
  retried from a pre-attempt snapshot of the participating buffers,
  with deterministic bounded exponential backoff
  (:class:`RetryPolicy`).  Failures explained by the plan's finite
  fault budget retry freely (the budget strictly decreases, so they
  self-limit); failures with no budget left count against
  ``max_retries`` and eventually raise
  :class:`~repro.faults.transport.UnrecoverableFault`;
- **rank death** — the group is rebuilt over the surviving ranks
  (a fresh, smaller transport; ranks compacted), buffers are restored
  from the snapshot, and the collective re-runs over the survivors.
  If the configured algorithm no longer fits the shrunken group
  (halving-doubling needs a power of two, hierarchical needs
  node-divisibility), it **degrades to ring** — the ladder the paper's
  NCCL baseline also walks when topology assumptions break.

Because every attempt restores the snapshot first, a completed
collective is value-identical to a clean run over the final survivor
set: RS+AG stays bit-exact vs the fused all-reduce, faults or not.
Termination is guaranteed structurally: total attempts per collective
are bounded by ``fault_budget + max_retries`` plus one rebuild per
rank death (itself bounded by the world size).

Every recovery action publishes into the telemetry registry
(``faults.retries``, ``faults.timeouts``, ``faults.rebuilds``,
``faults.backoff_seconds``, ``faults.algorithm_fallbacks``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.collectives.synthesis import algorithm_schedule, run_schedule
from repro.faults.plan import FaultPlan, RankFailure
from repro.faults.transport import (
    FaultyTransport,
    RankDeadError,
    TransportTimeout,
    UnrecoverableFault,
)
from repro.telemetry.registry import default_registry

__all__ = ["ResilientCommunicator", "RetryPolicy"]

ALGORITHMS = ("ring", "halving_doubling", "tree", "hierarchical")

#: Seed-stream discriminator for the backoff jitter RNG, so it never
#: correlates with the transport's fault stream.
_BACKOFF_STREAM = 0xB0FF


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for faulty collectives.

    The n-th retry of one collective waits
    ``min(base_delay * multiplier**n, max_delay)`` (virtual) seconds,
    optionally stretched by up to ``jitter`` drawn from the caller's
    seeded RNG — so the full backoff sequence is deterministic under a
    fixed seed.
    """

    max_retries: int = 8
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry_index: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retry ``retry_index`` (0-based)."""
        raw = min(self.base_delay * self.multiplier**retry_index, self.max_delay)
        if rng is not None and self.jitter:
            raw *= 1.0 + self.jitter * float(rng.random())
        return raw


class ResilientCommunicator:
    """Fault-tolerant collective endpoint with graceful degradation.

    The caller keeps one buffer per *initial global* rank; collectives
    operate on the survivors' buffers only, leaving dead ranks' buffers
    untouched.  ``reduce_scatter`` / ``all_gather`` follow the chunk
    conventions of the compacted survivor group.

    Note the degradation ladder's one hard floor: a *standalone*
    ``all_gather`` cannot recover from a rank death, because the dead
    rank's reduced shard is information that no longer exists anywhere
    — use :meth:`rs_ag` (or :meth:`all_reduce`), which redoes the
    reduce-scatter over the survivors, for death-tolerant aggregation.
    """

    def __init__(
        self,
        world_size: int,
        plan: FaultPlan,
        algorithm: str = "ring",
        gpus_per_node: Optional[int] = None,
        zero_copy: bool = False,
        policy: Optional[RetryPolicy] = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if algorithm == "hierarchical" and gpus_per_node is None:
            raise ValueError("hierarchical algorithm requires gpus_per_node")
        for failure in plan.rank_failures:
            if failure.rank >= world_size:
                raise ValueError(
                    f"rank failure for rank {failure.rank} outside "
                    f"world of size {world_size}"
                )
        self.world_size = world_size
        self.plan = plan
        self.requested_algorithm = algorithm
        self.algorithm = algorithm
        self.gpus_per_node = gpus_per_node
        self.zero_copy = zero_copy
        self.policy = policy if policy is not None else RetryPolicy()
        #: global ranks still participating, ascending.
        self.survivors: list[int] = list(range(world_size))
        self.completed_collectives = 0
        # Recovery accounting (mirrored into the telemetry registry).
        self.retries = 0
        self.timeouts = 0
        self.rebuilds = 0
        self.backoff_seconds = 0.0
        #: (collective index, description) of each degradation step.
        self.degradations: list[tuple[int, str]] = []
        self._rng = np.random.default_rng((plan.seed, _BACKOFF_STREAM))
        self._budget = plan.fault_budget
        self._generation = 0
        registry = default_registry()
        self._retry_counter = registry.counter(
            "faults.retries", "collective attempts retried after a fault"
        ).labels()
        self._timeout_counter = registry.counter(
            "faults.timeouts", "transport timeouts observed by the communicator"
        ).labels()
        self._rebuild_counter = registry.counter(
            "faults.rebuilds", "group rebuilds after rank loss"
        ).labels()
        self._death_counter = registry.counter(
            "faults.rank_deaths", "ranks lost from the group"
        ).labels()
        self._backoff_counter = registry.counter(
            "faults.backoff_seconds", "virtual seconds spent backing off"
        ).labels()
        self._fallback_counter = registry.counter(
            "faults.algorithm_fallbacks",
            "degradations to ring after the group shrank",
        ).labels()
        self.transport: FaultyTransport
        self._build_group()

    # -- group lifecycle -------------------------------------------------------

    def _build_group(self) -> None:
        """(Re)build the transport over the current survivor set."""
        survivors = self.survivors
        local_of_global = {g: i for i, g in enumerate(survivors)}
        failures = tuple(
            RankFailure(local_of_global[f.rank], f.after_collectives)
            for f in self.plan.rank_failures
            if f.rank in local_of_global
        )
        p = len(survivors)
        reason = None
        if self.requested_algorithm == "halving_doubling" and p & (p - 1):
            reason = f"halving_doubling needs a power-of-two group, have {p}"
        elif self.requested_algorithm == "hierarchical" and (
            self.gpus_per_node is None or p % self.gpus_per_node
        ):
            reason = (
                f"hierarchical needs a group divisible by "
                f"gpus_per_node={self.gpus_per_node}, have {p}"
            )
        algorithm = "ring" if reason else self.requested_algorithm
        if reason and self.algorithm != "ring":
            self.degradations.append(
                (self.completed_collectives, f"fell back to ring: {reason}")
            )
            self._fallback_counter.inc()
        self.algorithm = algorithm
        self.transport = FaultyTransport(
            p,
            self.plan,
            zero_copy=self.zero_copy,
            failures=failures,
            generation=self._generation,
            fault_budget=self._budget,
        )

    def _handle_death(self) -> None:
        """Shrink to the survivors and rebuild the group."""
        dead_local = self.transport.dead
        dead_global = [self.survivors[i] for i in sorted(dead_local)]
        self.survivors = [
            g for i, g in enumerate(self.survivors) if i not in dead_local
        ]
        if not self.survivors:
            raise UnrecoverableFault("every rank died; nothing left to rebuild")
        self._budget = self.transport.faults_remaining
        self._generation += 1
        self.rebuilds += 1
        self._rebuild_counter.inc()
        self._death_counter.inc(len(dead_global))
        self.degradations.append(
            (
                self.completed_collectives,
                f"lost rank(s) {dead_global}; "
                f"rebuilt over {len(self.survivors)} survivors",
            )
        )
        self._build_group()

    # -- recoverable execution -------------------------------------------------

    def _snapshot(self, buffers: Sequence[np.ndarray]) -> dict[int, np.ndarray]:
        return {g: buffers[g].copy() for g in self.survivors}

    def _restore(
        self, buffers: Sequence[np.ndarray], snapshot: dict[int, np.ndarray]
    ) -> None:
        for g in self.survivors:
            buffers[g][...] = snapshot[g]

    def _check_buffers(self, buffers: Sequence[np.ndarray]) -> None:
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-global-rank buffers, "
                f"got {len(buffers)}"
            )

    def _run_recoverable(
        self,
        ops: tuple[str, ...],
        buffers: Sequence[np.ndarray],
        average: bool,
    ) -> None:
        """Run ``ops`` as one atomic recovery unit over the survivors.

        Any fault inside the unit restores the pre-unit snapshot and
        re-runs the whole unit (over a rebuilt group if ranks died), so
        the final values always equal a clean run over the final
        survivor set.
        """
        self._check_buffers(buffers)
        snapshot = self._snapshot(buffers)
        retries = 0
        unexplained_failures = 0
        while True:
            self.transport.advance_epoch(self.completed_collectives)
            budget_before = self.transport.faults_remaining
            active = [buffers[g] for g in self.survivors]
            try:
                for op in ops:
                    run_schedule(self.transport, active, algorithm_schedule(
                        self.algorithm, op, len(active), self.gpus_per_node))
            except RankDeadError:
                if ops == ("all_gather",):
                    raise UnrecoverableFault(
                        "a rank died holding reduced shards; a standalone "
                        "all-gather cannot recover them — use rs_ag() or "
                        "all_reduce() for death-tolerant aggregation"
                    ) from None
                self._handle_death()
                # Old snapshot keys cover the new (smaller) survivor set.
                self._restore(buffers, snapshot)
                continue
            except TransportTimeout:
                consumed = budget_before - self.transport.faults_remaining
                self._budget = self.transport.faults_remaining
                self.timeouts += 1
                self._timeout_counter.inc()
                # A failure that consumed injected-fault budget is
                # expected and self-limiting (the budget is finite and
                # strictly decreases); only failures the budget cannot
                # explain count against the retry policy.  Total
                # attempts are therefore bounded by
                # fault_budget + max_retries (+ one per rank death).
                if consumed <= 0:
                    unexplained_failures += 1
                    if unexplained_failures > self.policy.max_retries:
                        raise UnrecoverableFault(
                            f"collective failed {unexplained_failures} times "
                            f"with no fault budget left (policy allows "
                            f"{self.policy.max_retries} retries)"
                        ) from None
                delay = self.policy.delay(retries, self._rng)
                self.backoff_seconds += delay
                self._backoff_counter.inc(delay)
                retries += 1
                self.retries += 1
                self._retry_counter.inc()
                self.transport.drain()
                self._restore(buffers, snapshot)
                continue
            self._budget = self.transport.faults_remaining
            self.completed_collectives += len(ops)
            self.transport.drain()  # sweep trailing duplicates
            if average:
                for g in self.survivors:
                    buffers[g][...] /= len(self.survivors)
            return

    # -- public collectives ----------------------------------------------------

    def all_reduce(
        self, buffers: Sequence[np.ndarray], average: bool = False
    ) -> None:
        """Fault-tolerant fused all-reduce over the surviving ranks."""
        self._run_recoverable(("all_reduce",), buffers, average)

    def reduce_scatter(self, buffers: Sequence[np.ndarray]) -> None:
        """Fault-tolerant decoupled OP1 over the surviving ranks."""
        self._run_recoverable(("reduce_scatter",), buffers, False)

    def all_gather(
        self, buffers: Sequence[np.ndarray], average: bool = False
    ) -> None:
        """Fault-tolerant decoupled OP2 (timeout-recoverable only)."""
        self._run_recoverable(("all_gather",), buffers, average)

    def rs_ag(
        self, buffers: Sequence[np.ndarray], average: bool = False
    ) -> None:
        """The decoupled RS+AG pair as one death-tolerant unit.

        Equivalent in value to :meth:`all_reduce` (DeAR's OP1+OP2
        decomposition); recovery re-runs *both* halves so a death
        between them cannot strand reduced shards.
        """
        self._run_recoverable(("reduce_scatter", "all_gather"), buffers, average)

    # -- introspection ---------------------------------------------------------

    @property
    def stats(self):
        """Traffic counters of the *current* transport generation."""
        return self.transport.stats

    def fault_summary(self) -> dict:
        """JSON-ready recovery summary (chaos CLI, tests, reports)."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "backoff_seconds": self.backoff_seconds,
            "survivors": list(self.survivors),
            "algorithm": self.algorithm,
            "requested_algorithm": self.requested_algorithm,
            "degradations": [list(entry) for entry in self.degradations],
            "faults_remaining": self.transport.faults_remaining,
        }

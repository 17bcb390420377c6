"""Timing-domain fault injection for the simulated timeline.

:class:`TimingFaultInjector` turns the timing-level fields of a
:class:`~repro.faults.plan.FaultPlan` — link-degradation windows and
compute stragglers — into perturbed job durations for the scheduler
engine.  It never touches the simulation kernels themselves: a job
starting inside a fault window is charged the degraded time for its
whole duration (factors are sampled at start, matching the plan's
documented semantics), with the sampling instant supplied by whichever
engine runs the schedule.  Every engine records the same *priced*
duration placeholders: :class:`PricedCompute` / :class:`PricedCollective`
(one duration per job or collective, a
:class:`~repro.sim.resources.DeferredDuration` the event kernel's
streams and the rendezvous resolve at start, and the vectorized replay
at the replayed start) and :class:`RankPricedCompute` (one per lane —
rank class — of a multi-rank :class:`~repro.sim.fastpath.Timeline`).
All of them perform the same float operations on the same (base, start)
arguments, so faulty runs stay on the vectorized replay and the engines
stay bit-for-bit comparable — pinned by the fault test suite and the
multirank differential suite.  That includes the straggler total: every
slowed job's extra seconds join it in the order the placeholders were
*created* (slot-major, ranks in rank order), whatever order an engine
resolves them in.

Link degradation is priced by real degraded cost models, not by naive
scaling: each distinct ``plan.link_factors(now)`` combination gets one
:class:`~repro.network.cost_model.CollectiveTimeModel` built over
``cluster.degraded(...)`` by
:meth:`~repro.network.cost_model.CollectiveTimeModel.with_cluster`
(which keeps the healthy model's algorithm, protocol, channels, chunking
and selection table) and cached, so e.g. a hierarchical collective
correctly feels an *inter-node-only* fault on its inter phase while the
intra phase stays at full speed.

Every perturbation is recorded: ``faults.degraded_link_seconds`` /
``faults.straggler_seconds`` counters into the telemetry registry, and
per-event instant markers into the tracer (rendered as globally-scoped
"i" events in Perfetto) via :meth:`TimingFaultInjector.publish`.  The
event log is columnar where the rank axis makes it large: one resolved
multi-rank compute slot appends a single :class:`StragglerRows` block —
the slowed ranks' starts, factors and extra seconds as arrays — rather
than one tuple and one dict per rank; :meth:`TimingFaultInjector.event_rows`
expands the log into markers, in order, only when a tracer asks.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.network.cost_model import CollectiveTimeModel
from repro.sim.fastpath import DeferredRankDurations
from repro.sim.resources import DeferredDuration
from repro.telemetry.registry import default_registry

__all__ = [
    "TimingFaultInjector",
    "PricedCompute",
    "PricedCollective",
    "RankPricedCompute",
    "StragglerRows",
]

#: The healthy factor combination (shares the caller's cost model).
_HEALTHY = (1.0, 1.0, 1.0, 1.0)

#: A straggler-ledger entry whose placeholder has not been priced yet.
_UNPRICED = object()


class StragglerRows(NamedTuple):
    """The ``fault.straggler`` markers of one multi-rank compute slot.

    Row ``i`` is the marker one scalar
    :meth:`TimingFaultInjector.compute_duration` call would have logged
    for the ``i``-th slowed rank (in rank order): its start, its combined
    factor and its extra seconds.
    """

    starts: np.ndarray
    factors: np.ndarray
    extras: np.ndarray


class TimingFaultInjector:
    """Prices compute and collective jobs under a plan's timing faults.

    Args:
        plan: the fault plan; only ``link_faults`` / ``stragglers``
            are consumed here.
        cost: the healthy cost model the run would otherwise use;
            degraded variants are derived from its cluster and cached
            per factor combination.
    """

    def __init__(self, plan: FaultPlan, cost: CollectiveTimeModel):
        self.plan = plan
        self.cost = cost
        self._models: dict[tuple[float, float, float, float], CollectiveTimeModel] = {
            _HEALTHY: cost
        }
        #: extra comm seconds attributable to degraded links.
        self.degraded_link_seconds = 0.0
        #: extra compute seconds attributable to stragglers: a strict
        #: left fold of every slowed job's extra in placeholder creation
        #: order (:meth:`_fold`).
        self.straggler_seconds = 0.0
        #: the extras, one entry per priced placeholder in creation
        #: order: ``_UNPRICED``, ``None`` (not slowed), a float (one job)
        #: or a rank-order array (one multi-rank slot); the first
        #: ``_folded`` entries are in ``straggler_seconds``.
        self._straggler_extras: list = []
        self._folded = 0
        #: markers for the tracer, in injection order: ``(time, name,
        #: args)`` tuples and :class:`StragglerRows` blocks
        #: (:meth:`event_rows` expands both).
        self.events: list = []

    # -- pricing ---------------------------------------------------------------

    def _model_for(
        self, factors: tuple[float, float, float, float]
    ) -> CollectiveTimeModel:
        model = self._models.get(factors)
        if model is None:
            model = self.cost.with_cluster(self.cost.cluster.degraded(*factors))
            self._models[factors] = model
        return model

    def _fold(self) -> None:
        """Add priced ledger entries to ``straggler_seconds``, in creation
        order, up to the first unpriced one.

        A scalar ``+=`` per slowed job, a seeded ``np.cumsum`` (the same
        strict left fold) per multi-rank slot.  The event kernel prices a
        multi-rank run's jobs in completion order and the replay slot by
        slot, so folding in creation order is what makes their totals
        bit-identical; both have priced every job by the end of a run.
        """
        extras = self._straggler_extras
        total = self.straggler_seconds
        index = self._folded
        while index < len(extras) and extras[index] is not _UNPRICED:
            extra = extras[index]
            if type(extra) is float:
                total += extra
            elif extra is not None:
                chain = np.empty(len(extra) + 1)
                chain[0] = total
                chain[1:] = extra
                total = float(np.cumsum(chain)[-1])
            index += 1
        self.straggler_seconds = total
        self._folded = index

    def compute_duration(self, base: float, now: float) -> float:
        """Duration of a compute job of healthy length ``base`` starting at ``now``."""
        return self.compute_priced(base).resolve(now)

    def _compute_job(self, base: float, now: float, entry: int) -> float:
        """Price one compute job into its ledger ``entry``."""
        factor = self.plan.compute_factor(now)
        slowed = base
        if factor == 1.0:
            self._straggler_extras[entry] = None
        else:
            slowed = base * factor
            self._straggler_extras[entry] = slowed - base
            self.events.append(
                (now, "fault.straggler", {"factor": factor, "extra": slowed - base})
            )
        if entry == self._folded:
            self._fold()
        return slowed

    def compute_durations(self, bases: np.ndarray, starts: np.ndarray,
                          inverse: Optional[np.ndarray] = None) -> np.ndarray:
        """:meth:`compute_duration` for every rank of a slot at once.

        ``bases`` and ``starts`` hold one entry per lane, and
        ``inverse`` maps each rank to its lane (``None``: one lane per
        rank).  The same float operations, lane by lane: the combined
        factor is the plan's stragglers folded in order (``factor *
        compute_factor`` where the window covers the start), and a
        slowed lane takes ``base * factor``.  Every rank of a lane
        starts with it, so that prices each rank.  The accounting is per
        rank: factors and extras are gathered to the slowed ranks in
        rank order, whose extras form the slot's entry of
        :attr:`straggler_seconds` and whose markers append as one
        :class:`StragglerRows` block.
        """
        factors = np.ones(len(starts))
        for straggler in self.plan.stragglers:
            factors = np.where(
                (straggler.start <= starts) & (starts < straggler.end),
                factors * straggler.compute_factor,
                factors,
            )
        slowed_lanes = factors != 1.0
        if not slowed_lanes.any():
            return bases
        durations = np.where(slowed_lanes, bases * factors, bases)
        # The lane of each slowed rank, in rank order.
        hit = (
            np.flatnonzero(slowed_lanes) if inverse is None
            else inverse[slowed_lanes[inverse]]
        )
        extras = durations[hit] - bases[hit]
        self._straggler_extras.append(extras)
        self._fold()
        self.events.append(StragglerRows(starts[hit], factors[hit], extras))
        return durations

    def collective_price(
        self, kind: str, nbytes: float, extra: float, now: float
    ) -> float:
        """What :meth:`collective_duration` charges at ``now``, without
        recording it (ByteScheduler's dispatch check prices with it)."""
        factors = self.plan.link_factors(now)
        return getattr(self._model_for(factors), kind)(nbytes) + extra

    def collective_duration(
        self, kind: str, nbytes: float, extra: float, now: float
    ) -> float:
        """Duration of a collective starting at ``now`` (``extra`` serialised on top)."""
        factors = self.plan.link_factors(now)
        degraded = getattr(self._model_for(factors), kind)(nbytes) + extra
        if factors != _HEALTHY:
            healthy = getattr(self.cost, kind)(nbytes) + extra
            self.degraded_link_seconds += degraded - healthy
            self.events.append(
                (
                    now,
                    "fault.degraded_link",
                    {
                        "kind": kind,
                        "bytes": nbytes,
                        "factors": factors,
                        "extra": degraded - healthy,
                    },
                )
            )
        return degraded

    # -- priced placeholders (every engine) -----------------------------------

    def compute_priced(self, base: float) -> "PricedCompute":
        """One compute duration priced at the job's start."""
        self._straggler_extras.append(_UNPRICED)
        return PricedCompute(self, base, len(self._straggler_extras) - 1)

    def collective_priced(
        self, kind: str, nbytes: float, extra: float
    ) -> "PricedCollective":
        """One collective duration priced at the (rendezvous) start."""
        return PricedCollective(self, kind, nbytes, extra)

    def compute_priced_ranks(
        self, bases: np.ndarray, inverse: np.ndarray
    ) -> "RankPricedCompute":
        """Per-lane compute durations the multi-rank replay prices;
        ``inverse`` maps each rank to its lane."""
        return RankPricedCompute(self, bases, inverse)

    # -- reporting -------------------------------------------------------------

    def event_rows(self) -> Iterator[tuple[float, str, dict]]:
        """Every marker as ``(time, name, args)``, in injection order."""
        for event in self.events:
            if type(event) is StragglerRows:
                for time, factor, extra in zip(
                    event.starts.tolist(), event.factors.tolist(),
                    event.extras.tolist(),
                ):
                    yield (
                        time, "fault.straggler",
                        {"factor": factor, "extra": extra},
                    )
            else:
                yield event

    def publish(self, tracer=None) -> None:
        """Flush markers into ``tracer`` and totals into the registry."""
        if tracer is not None:
            for time, name, args in self.event_rows():
                tracer.record_instant(name, time, args=args)
        registry = default_registry()
        if self.degraded_link_seconds:
            registry.counter(
                "faults.degraded_link_seconds",
                "extra virtual comm seconds due to degraded links",
            ).inc(self.degraded_link_seconds)
        if self.straggler_seconds:
            registry.counter(
                "faults.straggler_seconds",
                "extra virtual compute seconds due to stragglers",
            ).inc(self.straggler_seconds)

    def summary(self) -> dict:
        """JSON-ready totals (chaos CLI, result extras)."""
        return {
            "degraded_link_seconds": self.degraded_link_seconds,
            "straggler_seconds": self.straggler_seconds,
            "events": sum(
                len(event.starts) if type(event) is StragglerRows else 1
                for event in self.events
            ),
        }


class PricedCompute(DeferredDuration):
    """Compute duration resolved at job start, on any engine.

    Both the event kernel and the replay price it through the injector,
    so they charge bit-identical durations and record identical fault
    events.  ``entry`` is its place in the straggler total's creation
    order.
    """

    __slots__ = ("injector", "base", "entry")

    def __init__(self, injector: TimingFaultInjector, base: float, entry: int):
        self.injector = injector
        self.base = base
        self.entry = entry

    def resolve(self, start: float) -> float:
        return self.injector._compute_job(self.base, start, self.entry)


class PricedCollective(DeferredDuration):
    """Collective duration resolved at the (rendezvous) start time."""

    __slots__ = ("injector", "kind", "nbytes", "extra")

    def __init__(self, injector: TimingFaultInjector, kind: str,
                 nbytes: float, extra: float):
        self.injector = injector
        self.kind = kind
        self.nbytes = nbytes
        self.extra = extra

    def resolve(self, start: float) -> float:
        return self.injector.collective_duration(
            self.kind, self.nbytes, self.extra, start
        )


class RankPricedCompute(DeferredRankDurations):
    """Per-lane compute durations the multi-rank replay prices at start.

    ``bases`` holds one healthy duration per lane (rank class) and
    ``inverse`` each rank's lane (``None``: one lane per rank).
    Resolution is :meth:`TimingFaultInjector.compute_durations`: one
    vectorised pass over the slot's lanes that performs the scalar
    :meth:`~TimingFaultInjector.compute_duration`'s float operations per
    lane, and so per rank, so the durations and the straggler total are
    bit-identical to the event kernel's per-rank :class:`PricedCompute`
    jobs.  The replay resolves slots in submission order, which is
    creation order.  Only the order fault *markers* are logged in
    differs (slot-major here, chronological on the kernel), which the
    sorted trace export normalises away.
    """

    __slots__ = ("injector", "bases", "inverse")

    def __init__(self, injector: TimingFaultInjector, bases: np.ndarray,
                 inverse: Optional[np.ndarray] = None):
        self.injector = injector
        self.bases = bases
        self.inverse = inverse

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        return self.injector.compute_durations(self.bases, starts, self.inverse)

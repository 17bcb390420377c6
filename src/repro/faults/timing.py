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
chain of multi-rank compute slots appends a single :class:`StragglerRows`
block — the slowed ranks' starts, factors and extra seconds as arrays,
slot-major — rather than one tuple and one dict per rank;
:meth:`TimingFaultInjector.event_rows` expands the log into markers, in
order, only when a tracer asks.
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

#: Rank-order extras one seeded cumsum of :meth:`StragglerRows.fold` adds.
_FOLD_ENTRIES = 1 << 16


class StragglerRows(NamedTuple):
    """The ``fault.straggler`` markers of one chain of multi-rank
    compute slots, kept per lane.

    ``starts``, ``factors`` and ``extras`` hold one row per slowed slot
    of the chain and one column per lane; ``slowed`` marks the lanes
    each row slowed, and ``inverse`` maps each rank to its lane
    (``None``: one lane per rank).  :meth:`ranked` lays a column out in
    marker order — one entry per slowed (slot, rank) pair, slot-major
    and in rank order within a slot — where entry ``i`` is what one
    scalar :meth:`TimingFaultInjector.compute_duration` call would have
    logged for that job.
    """

    starts: np.ndarray
    factors: np.ndarray
    extras: np.ndarray
    slowed: np.ndarray
    inverse: Optional[np.ndarray]

    def _hit(self, rows: slice = slice(None)) -> np.ndarray:
        """The slowed (slot, rank) pairs of ``rows``: rank-wide flags."""
        hit = self.slowed[rows]
        return hit if self.inverse is None else hit[:, self.inverse]

    def ranked(self, column: np.ndarray,
               rows: slice = slice(None)) -> np.ndarray:
        """A ``(rows, lanes)`` column, one entry per marker of ``rows``."""
        hit = self._hit(rows)
        column = column[rows]
        if self.inverse is not None:
            column = column[:, self.inverse]
        return column.ravel() if hit.all() else column[hit]

    def markers(self) -> int:
        """How many markers the block expands to."""
        return int(np.count_nonzero(self._hit()))

    def fold(self, total: float) -> float:
        """``total`` plus every extra in marker order: a strict left fold,
        as seeded ``np.cumsum`` runs over a few rows at a time, which
        bounds the rank-order copies."""
        ranks = (self.slowed.shape[1] if self.inverse is None
                 else len(self.inverse))
        step = max(1, _FOLD_ENTRIES // ranks)
        for first in range(0, len(self.slowed), step):
            ranked = self.ranked(self.extras, slice(first, first + step))
            chain = np.empty(len(ranked) + 1)
            chain[0] = total
            chain[1:] = ranked
            total = float(np.cumsum(chain, out=chain)[-1])
        return total


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
        #: or a :class:`StragglerRows` block (one chain of multi-rank
        #: slots that slowed something); the first
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

        A scalar ``+=`` per slowed job, seeded ``np.cumsum`` runs (the
        same strict left fold) per chain of multi-rank slots.  The event
        kernel prices a multi-rank run's jobs in completion order and the
        replay chain by chain, so folding in creation order is what makes
        their totals bit-identical; both have priced every job by the end
        of a run.
        """
        extras = self._straggler_extras
        total = self.straggler_seconds
        index = self._folded
        while index < len(extras) and extras[index] is not _UNPRICED:
            extra = extras[index]
            if type(extra) is float:
                total += extra
            elif extra is not None:
                total = extra.fold(total)
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

    def compute_chain(self, bases: np.ndarray, start: np.ndarray,
                      inverse: Optional[np.ndarray] = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`compute_duration` for every rank of a chain of slots.

        The chain is consecutive compute slots of a multi-rank replay,
        each starting when the one before it ends.  ``bases`` holds one
        row per slot and one column per lane, ``start`` the first row's
        ``(lanes,)`` starts, and ``inverse`` maps each rank to its lane
        (``None``: one lane per rank).  Every rank of a lane starts
        with it, so pricing a lane prices each of its ranks.

        A row's start depends on the rows before it, so the factors are
        a fixed point, found exactly.  Each round assumes a factor per
        (row, lane), takes durations ``base * factor`` (exact where the
        factor is 1), cumsums them seeded with ``start`` — the replay's
        own left fold — and recomputes the factors from those starts:
        the plan's stragglers folded in order (``factor *
        compute_factor`` where the window covers the start), as the
        scalar loop does.  With the rows before ``r`` exact, row ``r``'s
        start and factor are exact, so each round fixes at least one
        more row, and once the recomputed factors agree with the
        assumed ones on every row but the last, all of them are exact.
        That takes at most ``rows`` rounds, in practice one per window
        edge a lane crosses, plus one.

        The accounting is per rank: factors and extras are gathered to
        the slowed (row, rank) pairs, slot-major and in rank order
        within a slot.  Their extras form one entry of
        :attr:`straggler_seconds` and their markers one
        :class:`StragglerRows` block, which fold and expand exactly as
        one entry and one block per slot would.

        Returns ``(slowed, durations)``: the indices of the rows with a
        slowed lane, and those rows' durations as one compact block.
        Every other row's durations are its bases.
        """
        # The fixed point's (rows, lanes) buffers die with this call,
        # before the fold makes its rank-order copies.
        slowed, durations, block = _slowed_rows(
            bases, *self._chain_factors(bases, start), inverse
        )
        if block is not None:
            self._straggler_extras.append(block)
            self._fold()
            self.events.append(block)
        return slowed, durations

    def _chain_factors(self, bases: np.ndarray, start: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The fixed point of :meth:`compute_chain`: every row's starts
        and combined factors, ``(rows, lanes)`` each."""
        rows, lanes = bases.shape
        stragglers = self.plan.stragglers
        # Row r's start: `start` plus the durations of the rows before it.
        starts = np.empty((rows, lanes))
        starts[0] = start
        factors = np.empty((rows, lanes))
        inside = np.empty((rows, lanes), dtype=bool)
        below = np.empty((rows, lanes), dtype=bool)
        assumed = np.ones((rows, lanes)) if rows > 1 else None
        for _ in range(rows):
            if rows > 1:
                np.multiply(bases[:-1], assumed[:-1], out=starts[1:])
                np.cumsum(starts, axis=0, out=starts)
            factors.fill(1.0)
            for straggler in stragglers:
                np.greater_equal(starts, straggler.start, out=inside)
                np.less(starts, straggler.end, out=below)
                inside &= below
                np.multiply(factors, straggler.compute_factor, out=factors,
                            where=inside)
            if rows == 1 or np.array_equal(factors[:-1], assumed[:-1]):
                return starts, factors
            assumed, factors = factors, assumed
        raise RuntimeError(  # pragma: no cover - each round fixes a row
            "straggler pricing did not reach its fixed point"
        )

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
                    event.ranked(event.starts).tolist(),
                    event.ranked(event.factors).tolist(),
                    event.ranked(event.extras).tolist(),
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
                event.markers() if type(event) is StragglerRows else 1
                for event in self.events
            ),
        }


def _slowed_rows(bases: np.ndarray, starts: np.ndarray, factors: np.ndarray,
                 inverse: Optional[np.ndarray]):
    """A priced chain's slowed rows: ``(indices, durations, block)``.

    The durations are ``base * factor``, one compact block; the
    :class:`StragglerRows` block is ``None`` when nothing slowed.
    """
    slowed_lanes = factors != 1.0
    if not slowed_lanes.any():
        return np.empty(0, dtype=np.intp), bases[:0], None
    slowed = np.flatnonzero(slowed_lanes.any(axis=1))
    base = bases[slowed]
    factors = factors[slowed]
    durations = base * factors
    block = StragglerRows(starts[slowed], factors, durations - base,
                          slowed_lanes[slowed], inverse)
    return slowed, durations, block


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

    def renew(self) -> "PricedCompute":
        """A fresh placeholder with its own, next ledger entry."""
        return self.injector.compute_priced(self.base)


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
    ``inverse`` each rank's lane (``None``: one lane per rank).  The
    replay resolves consecutive gate-free slots as one chain
    (:meth:`resolve_chain`, one
    :meth:`TimingFaultInjector.compute_chain` pass) and any other slot
    as a chain of one row (:meth:`resolve`).  Either way each lane, and
    so each rank, gets the scalar
    :meth:`~TimingFaultInjector.compute_duration`'s float operations,
    so the durations and the straggler total are bit-identical to the
    event kernel's per-rank :class:`PricedCompute` jobs.  The replay
    resolves slots in submission order, which is creation order.  Only
    the order fault *markers* are logged in differs (slot-major here,
    chronological on the kernel), which the sorted trace export
    normalises away.
    """

    __slots__ = ("injector", "bases", "inverse")

    def __init__(self, injector: TimingFaultInjector, bases: np.ndarray,
                 inverse: Optional[np.ndarray] = None):
        self.injector = injector
        self.bases = bases
        self.inverse = inverse

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        slowed, durations = self.injector.compute_chain(
            self.bases[None], starts, self.inverse
        )
        return durations[0] if len(slowed) else self.bases

    @classmethod
    def resolve_chain(cls, bodies: list, start: np.ndarray) -> list:
        """Price ``bodies`` as one chain when they share one injector and
        one rank-to-lane index (every chain a run records); otherwise
        row by row.  An unslowed row resolves to its own ``bases``, a
        slowed one to a row of the chain's compact block of slowed
        rows, so a resolved recording keeps no chain-sized buffer."""
        head = bodies[0]
        injector = head.injector
        inverse = head.inverse
        if any(type(body) is not cls or body.injector is not injector
               or body.inverse is not inverse for body in bodies):
            return super().resolve_chain(bodies, start)
        rows = [body.bases for body in bodies]
        slowed, durations = injector.compute_chain(
            np.array(rows, dtype=float), start, inverse
        )
        for index, row in zip(slowed.tolist(), durations):
            rows[index] = row
        return rows

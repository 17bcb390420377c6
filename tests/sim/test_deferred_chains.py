"""Deferred compute chains: one pricing pass for a run of deferred slots.

The multi-rank replay resolves each gate-free run of per-lane deferred
slots as one chain (:meth:`DeferredRankDurations.resolve_chain`); the
timing-fault pricer solves for every start of the chain at once
(:meth:`TimingFaultInjector.compute_chain`).  A chain must price
exactly what slot-by-slot resolution prices:

- a hypothesis property against the row-by-row
  :meth:`RankPricedCompute.resolve` loop, and that loop against the
  scalar per-rank ``compute_duration`` — durations, ends, the straggler
  total, the marker log and the summary, bit for bit;
- a whole-run differential at 64 ranks against the event kernel
  (``fastpath=False``) for every policy and several slowed-rank counts,
  every replay checked by :func:`tests.sim.invariants.verify_timeline`;
- a chain that resolves a negative or NaN duration is rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.faults.timing import RankPricedCompute, TimingFaultInjector
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.schedulers.multirank import POLICIES, _Run
from repro.sim.fastpath import DeferredRankDurations, Timeline
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.conftest import build_tiny_model
from tests.sim.invariants import verify_replays


def _bits(value):
    """``value`` with every float replaced by its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    return value


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


# -- compute_chain against the row-by-row loop ---------------------------------

#: Bases and starts that add exactly, so healthy starts land on window
#: edges drawn from them.
_EXACT = st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1.0))
_ANY = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
#: Includes pairs whose product is exactly 1.0.
_FACTORS = st.one_of(
    st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0)),
    st.floats(0.1, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _chains(draw):
    """``(plan, bases, start, inverse)``: a chain of ``(rows, lanes)``
    bases from ``start``, with windows at its healthy starts or
    anywhere, and a random rank-to-lane map (``None``: one lane per
    rank)."""
    lanes = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 12))
    value = st.one_of(_EXACT, _ANY)
    bases = np.array(draw(st.lists(
        st.lists(value, min_size=lanes, max_size=lanes),
        min_size=rows, max_size=rows,
    )))
    start = np.array(draw(st.lists(_EXACT, min_size=lanes, max_size=lanes)))
    edges = np.cumsum(np.vstack([start, bases]), axis=0).ravel().tolist()
    instant = st.one_of(
        st.sampled_from(edges), st.floats(0.0, max(edges) + 1.0)
    )
    stragglers = []
    for _ in range(draw(st.integers(1, 3))):
        low, high = sorted((draw(instant), draw(instant)))
        if high <= low:
            high = low + draw(st.sampled_from((0.25, 1.0, math.inf)))
        stragglers.append(StragglerFault(low, high, compute_factor=draw(_FACTORS)))
    if draw(st.booleans()):
        # Two overlapping windows that cancel: factor 2.0 * 0.5 == 1.0.
        low = draw(instant)
        stragglers.append(StragglerFault(low, low + 1.0, compute_factor=2.0))
        stragglers.append(StragglerFault(low, low + 0.5, compute_factor=0.5))
    inverse = None
    if draw(st.booleans()):
        world = draw(st.integers(lanes, 3 * lanes))
        inverse = np.array(draw(st.permutations(
            list(range(lanes)) + draw(st.lists(
                st.integers(0, lanes - 1),
                min_size=world - lanes, max_size=world - lanes,
            ))
        )))
    plan = FaultPlan(stragglers=tuple(draw(st.permutations(stragglers))))
    return plan, bases, start, inverse


#: Lanes cross a window's edges at different rows, one of them exactly
#: on an edge, with a zero base and a pair of factors that cancel.
_CROSSING = (
    FaultPlan(stragglers=(
        StragglerFault(0.5, 1.25, compute_factor=1.5),
        StragglerFault(0.75, 2.0, compute_factor=2.0),
        StragglerFault(0.75, 1.0, compute_factor=0.5),
    )),
    np.array([[0.25, 0.5, 0.0], [0.25, 0.5, 0.125], [0.25, 0.25, 0.0],
              [0.5, 0.125, 0.25], [0.125, 0.5, 0.0]]),
    np.array([0.0, 0.25, 0.75]),
    np.array([2, 0, 1, 1, 2, 0, 2]),
)


@settings(deadline=None, max_examples=200)
@given(case=_chains())
@example(case=_CROSSING)
def test_chain_equals_row_by_row_resolution(case, ethernet_cluster):
    plan, bases, start, inverse = case
    cost = CollectiveTimeModel(ethernet_cluster)
    chained = TimingFaultInjector(plan, cost)
    by_row = TimingFaultInjector(plan, cost)
    scalar = TimingFaultInjector(plan, cost)
    rows, lanes = bases.shape
    ranks = list(range(lanes)) if inverse is None else inverse.tolist()

    resolved = RankPricedCompute.resolve_chain(
        [RankPricedCompute(chained, row, inverse) for row in bases], start
    )
    assert len(resolved) == rows

    expected = []
    ends = []
    row_start = start
    for row in bases:
        durations = RankPricedCompute(by_row, row, inverse).resolve(row_start)
        # The scalar oracle, rank by rank in rank order.
        assert _bits(durations[ranks].tolist()) == _bits([
            scalar.compute_duration(float(row[lane]), float(row_start[lane]))
            for lane in ranks
        ])
        expected.append(durations)
        row_start = row_start + durations
        ends.append(row_start)

    for got, want in zip(resolved, expected):
        assert got.shape == (lanes,)
        assert got.tobytes() == want.tobytes()
    chain_ends = np.cumsum(np.vstack([start, np.array(resolved)]), axis=0)[1:]
    assert chain_ends.tobytes() == np.array(ends).tobytes()
    for injector in (by_row, scalar):
        assert _bits(chained.straggler_seconds) == _bits(injector.straggler_seconds)
        assert _bits(list(chained.event_rows())) == _bits(list(injector.event_rows()))
        assert chained.summary() == injector.summary()
    # At most one marker block per chain.
    assert len(chained.events) <= 1


def test_mixed_pricers_resolve_row_by_row(ethernet_cluster):
    """Bodies of two injectors are not one chain; each prices its own."""
    cost = CollectiveTimeModel(ethernet_cluster)
    plan = FaultPlan(stragglers=(StragglerFault(0.5, 3.0, compute_factor=3.0),))
    first, second = (TimingFaultInjector(plan, cost) for _ in range(2))
    bodies = [RankPricedCompute(first, np.array([0.5, 1.0])),
              RankPricedCompute(second, np.array([0.5, 1.0])),
              RankPricedCompute(first, np.array([0.25, 0.25]))]
    resolved = RankPricedCompute.resolve_chain(bodies, np.array([0.0, 0.0]))
    assert [row.tolist() for row in resolved] == [
        [0.5, 1.0], [1.5, 3.0], [0.75, 0.25]
    ]
    assert first.summary()["events"] == 1 and second.summary()["events"] == 2


# -- whole runs at 64 ranks against the event kernel ---------------------------

CLUSTER = cluster_10gbe(nodes=16, gpus_per_node=4)
MODEL = build_tiny_model()
FAULTS = FaultPlan(
    stragglers=(StragglerFault(0.02, 0.2, compute_factor=1.6),
                StragglerFault(0.1, 0.3, compute_factor=1.25)),
    link_faults=(LinkFault(0.05, 0.25, beta_factor=2.5),),
)
#: The (policy, slowed count) pairs whose traces are compared too.
TRACED = {("dear", 16), ("wfbp", 1), ("horovod", 64)}


@pytest.fixture
def verified(monkeypatch):
    return verify_replays(monkeypatch)


def _scales(slowed: int) -> tuple[float, ...]:
    rng = np.random.default_rng(slowed)
    scales = np.ones(CLUSTER.world_size)
    chosen = rng.choice(CLUSTER.world_size, size=slowed, replace=False)
    scales[chosen] = np.round(rng.uniform(1.1, 2.0, size=slowed), 6)
    return tuple(scales.tolist())


@pytest.mark.parametrize("slowed", (1, 16, 64))
@pytest.mark.parametrize("policy", POLICIES)
def test_faulted_runs_match_the_event_kernel(policy, slowed, verified,
                                             registry):
    trace = (policy, slowed) in TRACED
    fast, slow = (
        _Run(policy, MODEL, CLUSTER, _scales(slowed), faults=FAULTS,
             iteration_compute=0.03, collapse=False,
             ).simulate(fastpath=fastpath, trace=trace)
        for fastpath in (True, False)
    )
    assert fast.extras["engine"] == "multirank-fastpath"
    assert slow.extras["engine"] == "multirank-event"
    assert _bits(fast.iteration_times) == _bits(slow.iteration_times)
    assert fast.extras["timing_faults"] == slow.extras["timing_faults"]
    assert fast.extras["timing_faults"]["straggler_seconds"] > 0
    if trace:
        assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()
    assert verified, "no multi-rank replay was checked"
    chained = registry.counter("sim.replay.deferred_slots").value(how="chain")
    assert chained > 0


# -- rejected resolutions and the slot counter ---------------------------------


class _Returns(DeferredRankDurations):
    """Resolves to fixed durations, whatever the start."""

    def __init__(self, durations):
        self.durations = np.asarray(durations, dtype=float)

    def resolve(self, starts):
        return self.durations


@pytest.mark.parametrize("bad", (-1.0, float("nan")), ids=("negative", "nan"))
def test_a_chain_that_resolves_an_invalid_duration_is_rejected(bad):
    timeline = Timeline(2)
    stream = timeline.stream("s")
    stream.submit(_Returns([1.0, 1.0]))
    stream.submit(_Returns([1.0, bad]))
    with pytest.raises(ValueError, match="slot 1"):
        timeline.replay()


@pytest.mark.parametrize("bad", (-1.0, float("nan")), ids=("negative", "nan"))
def test_a_lone_slot_that_resolves_an_invalid_duration_is_rejected(bad):
    timeline = Timeline(2)
    stream = timeline.stream("s")
    stream.submit(_Returns([bad, 1.0]))
    with pytest.raises(ValueError, match="slot 0"):
        timeline.replay()


def test_default_chain_resolution_passes_each_slot_its_start():
    seen = []

    class _Recording(_Returns):
        def resolve(self, starts):
            seen.append(starts.tolist())
            return self.durations

    timeline = Timeline(2)
    stream = timeline.stream("s")
    for durations in ([1.0, 2.0], [0.5, 0.25], [0.0, 1.0]):
        stream.submit(_Recording(durations))
    assert timeline.replay() == 3.25
    assert seen == [[0.0, 0.0], [1.0, 2.0], [1.5, 2.25]]


def test_slots_are_counted_by_how_they_resolved(registry):
    timeline = Timeline(2)
    compute = timeline.stream("compute")
    comm = timeline.stream("comm")
    for _ in range(3):
        compute.submit(_Returns([1.0, 2.0]))
    done = comm.submit_collective(0.5)
    compute.submit(_Returns([1.0, 1.0]), gate=done.done)
    timeline.replay()
    counter = registry.counter("sim.replay.deferred_slots")
    assert counter.value(how="chain") == 3
    assert counter.value(how="slot") == 1

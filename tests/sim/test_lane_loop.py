"""The multi-rank replay against the loop it replaced.

``repro.sim.fastpath._replay_lanes`` runs each stretch of fixed or
per-lane deferred slots through the gates that do not bind and restarts
at the first that does; a faulted pass is one priced body.  The oracle
(``tests/sim/lane_loop_oracle.py``) takes every gated slot one at a time
and every body one slot at a time.  A hypothesis property draws
multi-rank timelines — binding, free and exactly tied gates, gates on
several slots, rendezvous collectives, one to three configs, straggler
windows that open mid-pass, zero bases, lanes at compute scale 1e308
(huge and ``inf`` bases), generic one-slot pricers —
records each twice, and compares the two replays bit for bit: starts,
ends, resolved durations, every injector's straggler total, markers and
summary, and the starts each generic pricer saw; each straggler total
must also be the left fold of its markers' extras.  Every replay passes
:func:`tests.sim.invariants.verify_timeline`.
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
from repro.sim.fastpath import DeferredRankDurations, Gate, Timeline, replay
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.sim.invariants import verify_timeline
from tests.sim.lane_loop_oracle import replay_lanes

#: Durations that add exactly, so gate ends often tie with running ends.
_EXACT = st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0))
_ANY = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
#: Includes a factor below 1 and pairs whose product is 1.
_FACTORS = st.sampled_from((0.5, 0.75, 1.5, 2.0))
#: inf stands for a profile that overflowed at a scale near 1e308.
_LANE_SCALES = (1.0, 1.0, 1.0, 1e308, math.inf)
_COST = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=2))


def _bits(value):
    """``value`` with every float replaced by its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    return value


class _Logged(DeferredRankDurations):
    """Resolves to its bases, logging the start it was priced at: the
    row-by-row default pricer must price each slot once, from its
    start."""

    __slots__ = ("log", "bases")

    def __init__(self, log: list, bases: np.ndarray):
        self.log = log
        self.bases = bases

    def resolve(self, starts):
        self.log.append(starts.tobytes())
        return self.bases


@st.composite
def _cases(draw):
    """A multi-rank schedule and each config's durations.

    The schedule is a list of steps, each a compute pass or a run of
    collectives on one of two streams, with each slot's gate on earlier
    slots (``None``, one slot or two).  A config carries ``(lanes,)``
    bases per compute slot, a duration per collective (``None``: priced
    under the config's link fault) and its fault plan: ``None`` for a
    healthy config, whose compute is fixed at record time, ``"logged"``
    for compute priced through :class:`_Logged` bodies.
    """
    world = draw(st.integers(2, 5))
    lanes = draw(st.integers(1, world))
    rest = list(range(1, lanes)) + draw(st.lists(
        st.integers(0, lanes - 1), min_size=world - lanes,
        max_size=world - lanes,
    ))
    inverse = np.array([0] + draw(st.permutations(rest)))
    density = draw(st.sampled_from((0.0, 0.3, 0.8)))
    steps = []
    slots = 0
    for _ in range(draw(st.integers(1, 6))):
        compute = draw(st.booleans())
        stream = draw(st.sampled_from((0, 0, 1) if compute else (0, 1, 1)))
        count = draw(st.integers(1, 7))
        gates = []
        for slot in range(slots, slots + count):
            if not slot or not draw(st.floats(0, 1)) < density:
                gates.append(None)
                continue
            ids = draw(st.lists(st.integers(0, slot - 1), min_size=1,
                                max_size=2, unique=True))
            gates.append(tuple(ids))
        steps.append((compute, stream, count, gates))
        slots += count
    value = st.one_of(_EXACT, _ANY) if draw(st.booleans()) else _EXACT
    scale = draw(st.sampled_from((0.25, 1.0, 4.0)))
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        durations = []
        # A lane at compute scale 1e308: huge bases, sums that overflow.
        scales = np.array(draw(st.lists(st.sampled_from(_LANE_SCALES),
                                        min_size=lanes, max_size=lanes)))
        for compute, _, count, _ in steps:
            if compute:
                bases = np.array(draw(st.lists(
                    st.lists(value, min_size=lanes, max_size=lanes),
                    min_size=count, max_size=count,
                )))
                # inf where the lane's profile overflowed; 0 stays 0.
                durations.append(np.multiply(bases, scales, out=bases,
                                             where=bases > 0))
            else:
                durations.append([
                    None if draw(st.booleans()) else draw(value) * scale
                    for _ in range(count)
                ])
        plan = draw(st.sampled_from((None, "logged", "faulted")))
        if plan == "faulted":
            # Windows on the grid the exact durations add up on, so
            # they open and close exactly on slot edges, mid-pass too.
            instant = st.integers(0, 8 * slots).map(lambda tick: tick / 8)
            stragglers = []
            for _ in range(draw(st.integers(1, 3))):
                low = draw(instant)
                stragglers.append(StragglerFault(
                    low, low + draw(st.sampled_from((0.125, 0.5, 2.0, 1e9))),
                    compute_factor=draw(_FACTORS),
                ))
            low = draw(instant)
            plan = FaultPlan(stragglers=tuple(stragglers), link_faults=(
                LinkFault(low, low + 1.0, beta_factor=2.0),
            ))
        configs.append((durations, plan))
    return world, inverse, steps, configs


def _record(case, config, blocks: bool):
    """One config's timeline and pricer (its injector or log).  With
    ``blocks`` a faulted pass is one priced body; without, one body per
    slot (the oracle's)."""
    world, inverse, steps, configs = case
    durations, plan = configs[config]
    injector = log = None
    if plan == "logged":
        log = []
    elif plan is not None:
        injector = TimingFaultInjector(plan, _COST)
    timeline = Timeline(world, rank_lanes=inverse)
    streams = (timeline.stream("compute"), timeline.stream("comm"))
    for index, ((is_compute, stream, count, gates), bodies) in enumerate(
        zip(steps, durations)
    ):
        gates = [None if ids is None else Gate(ids) for ids in gates]
        compute = streams[stream]
        if not is_compute:
            compute.submit_collectives([
                injector.collective_priced("all_reduce", 4e6, 0.0)
                if body is None and injector is not None
                else 0.5 if body is None else body
                for body in bodies
            ], gates, "comm.ar", lambda position: (f"c.{position}", {}))
        elif log is not None:
            compute.submit_chain([_Logged(log, row) for row in bodies], gates,
                                 "ff", ("ff", index, range(count)))
        elif injector is None:
            compute.submit_chain(list(bodies), gates, "ff",
                                 ("ff", index, range(count)))
        elif blocks:
            compute.submit_chain(
                injector.compute_priced_ranks(bodies, timeline._inverse),
                gates, "ff", ("ff", index, range(count)),
            )
        else:
            compute.submit_chain(
                [RankPricedCompute(injector, row, timeline._inverse)
                 for row in bodies],
                gates, "ff", ("ff", index, range(count)),
            )
    return timeline, injector if log is None else log


def _priced(pricer):
    """What a config's pricing recorded: an injector's totals and
    markers, or the starts a logged pricer saw (``None``: healthy)."""
    if pricer is None or type(pricer) is list:
        return pricer
    # The ledger is the left fold of the markers' extras, in their order.
    total = 0.0
    for _, name, args in pricer.event_rows():
        if name == "fault.straggler":
            total += args["extra"]
    assert total.hex() == pricer.straggler_seconds.hex()
    return [
        pricer.straggler_seconds.hex(),
        pricer.degraded_link_seconds.hex(),
        _bits(list(pricer.event_rows())),
        _bits(pricer.summary()),
    ]


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


#: A faulted pass, a priced collective and another faulted pass in one
#: segment, whose gates stream order subsumes.
_SEGMENT = (3, np.array([0, 1, 1]), [
    (True, 0, 2, [None, None]), (False, 0, 1, [None]),
    (True, 0, 2, [None, (0, 2)]),
], [([np.array([[1.0, 0.5], [0.5, 0.0]]), [None],
      np.array([[0.25, 0.5], [0.0, 1.0]])],
     FaultPlan(stragglers=(StragglerFault(0.5, 2.0, compute_factor=0.5),),
               link_faults=(LinkFault(0.0, 1.0, beta_factor=2.0),)))])


def _split(plan, gates=(None, (0,), None, (0,), (0, 1), None)):
    """Three collectives ending at 0.5, 1.0 and 1.5, then a pass of six
    0.25 s slots from 0.0 gated on them: the second slot's gate binds and
    the fifth waits for two collectives.  After the bind the replay
    looks ahead by fewer gates."""
    return (2, np.array([0, 1]), [
        (False, 1, 3, [None] * 3), (True, 0, 6, list(gates)),
    ], [([[0.5] * 3, np.full((6, 2), 0.25)], plan)])


@settings(deadline=None, max_examples=200)
@given(case=_cases())
@example(case=_SEGMENT)
@example(case=_split(None))
@example(case=_split(FaultPlan(stragglers=(
    StragglerFault(1.25, 2.0, compute_factor=2.0),
))))
def test_lane_loop_equals_the_slot_by_slot_loop(case):
    configs = range(len(case[3]))
    new = [_record(case, config, blocks=True) for config in configs]
    old = [_record(case, config, blocks=False) for config in configs]
    replay([timeline for timeline, _ in new])
    starts, ends = replay_lanes([timeline for timeline, _ in old])
    for config, ((timeline, pricer), (reference, oracle)) in enumerate(
        zip(new, old)
    ):
        verify_timeline(timeline)
        assert timeline._starts.tobytes() == starts[:, config].tobytes()
        assert timeline._ends.tobytes() == ends[:, config].tobytes()
        assert ([np.asarray(body).tobytes() for body in timeline._durations]
                == [np.asarray(body).tobytes() for body in reference._durations])
        assert _priced(pricer) == _priced(oracle)


def _tied(gate_end: float):
    """A two-slot compute pass whose second slot waits for a collective
    that ends at ``gate_end``, the pass's running end being 1.0."""
    timeline = Timeline(2)
    compute = timeline.stream("compute")
    comm = timeline.stream("comm")
    collective = comm.submit_collective(gate_end)
    compute.submit_chain([np.array([1.0, 1.0]), np.array([0.5, 0.5])],
                         [None, collective.done], "ff", ("ff", 0, range(2)))
    return timeline


@pytest.mark.parametrize("gate_end,bound", ((1.0, 0), (1.25, 1)),
                         ids=("tie", "later"))
def test_a_tied_gate_is_free_and_a_later_one_binds(gate_end, bound, registry):
    timeline = _tied(gate_end)
    timeline.replay()
    assert timeline._starts[2].tolist() == [max(1.0, gate_end)] * 2
    gates = registry.counter("sim.replay.gates")
    assert gates.value(outcome="bound") == bound
    assert gates.value(outcome="free") == 1 - bound


@pytest.mark.parametrize("plan", (None, FaultPlan(
    stragglers=(StragglerFault(1.25, 2.0, compute_factor=2.0),),
)), ids=("healthy", "faulted"))
def test_a_gate_that_binds_where_a_step_ends_is_counted(plan, registry):
    # The fourth slot's gate (1.5 against 1.0) binds where the step after
    # the first bind ends, not inside a step.
    case = _split(plan, gates=(None, (0,), None, (2,), (0, 1), None))
    timeline, _ = _record(case, 0, blocks=True)
    replay([timeline])
    assert timeline._starts[3:7, 0].tolist() == [0.0, 0.5, 0.75, 1.5]
    gates = registry.counter("sim.replay.gates")
    assert (gates.value(outcome="bound"), gates.value(outcome="free")) == (2, 1)

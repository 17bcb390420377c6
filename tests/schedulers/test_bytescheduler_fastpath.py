"""ByteScheduler on the vectorized replay equals its credit engine.

``fastpath=False`` runs the credit engine on the event kernel: the
oracle.  The replay records a guessed dispatch order and confirms it
against the replayed times
(:meth:`~repro.schedulers.engine.FastIterationContext.record_verified`).
Every run here must give the oracle's iteration times, exposed times
and ``extras`` (timing-fault totals included) exactly, on the replay
(nothing falls back to the kernel), and every replay must pass
:func:`tests.sim.invariants.verify_timeline`.  The grid is every zoo
model under credit 1, 2 and 4, three partition sizes, negotiation on
and off, both fabrics and both algorithm choices, healthy and under
the chaos sweep's timing faults; a subset compares Chrome traces byte
for byte.  A hypothesis property drives tiny random models built to
tie — compute durations drawn from the partitions' all-reduce prices,
zero-duration FF and BP layers, link faults — so ready times meet
channel free times, which :func:`_dispatch` orders as the kernel does.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.chaos_cmd import _timing_scenarios
from repro.faults.plan import FaultPlan, LinkFault
from repro.models.layers import ModelBuilder
from repro.models.profiles import ComputeProfile, TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.autotuner import build_selection_table
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, paper_testbed
from repro.schedulers.base import get_scheduler
from repro.schedulers.bytescheduler import _dispatch
from repro.schedulers.engine import FastIterationContext
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.sim.invariants import verify_timeline

ITERATIONS = 5
CREDITS = (1, 2, 4)
PARTITIONS = (16e6, 1e6, 100e3)
FABRICS = ("10gbe", "100gbib")
ALGORITHMS = ("ring", "auto")
FAULTS = {name: plan for name, plan in _timing_scenarios() if plan is not None}


@pytest.fixture(scope="module")
def tables():
    return {fabric: build_selection_table(paper_testbed(fabric))
            for fabric in FABRICS}


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


def _run(scheduler, timing, cost, fastpath=True, **kwargs):
    """``scheduler.run`` on the engine ``fastpath`` names; a replayed
    run's timeline must keep the invariants."""
    contexts = []
    measure = scheduler.measure
    scheduler.measure = lambda ctx, iterations: (
        contexts.append(ctx) or measure(ctx, iterations)
    )
    result = scheduler.run(timing, cost, iterations=ITERATIONS,
                           fastpath=fastpath, **kwargs)
    assert isinstance(contexts[0], FastIterationContext) == fastpath
    if fastpath:
        verify_timeline(contexts[0]._timeline)
    return result


def _differences(options, timing, cost, trace=False, faults=None) -> list[str]:
    """What differs between the replay and the credit engine."""
    fast, slow = (
        _run(get_scheduler("bytescheduler", **options), timing, cost,
             fastpath=fastpath, trace=trace, faults=faults)
        for fastpath in (True, False)
    )
    found = []
    if fast.iteration_times != slow.iteration_times:
        found.append("iteration_times")
    if ((fast.exposed_comm, fast.exposed_rs, fast.exposed_ag)
            != (slow.exposed_comm, slow.exposed_rs, slow.exposed_ag)):
        found.append("exposed")
    if fast.extras != slow.extras:
        found.append("extras")
    if trace and fast.tracer.to_chrome_trace() != slow.tracer.to_chrome_trace():
        found.append("trace")
    return found


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("credit", CREDITS)
def test_healthy_runs_equal_the_credit_engine(credit, model, tables):
    timing = TimingModel.for_model(get_model(model))
    mismatches = []
    for partition, negotiate, fabric, algorithm in itertools.product(
        PARTITIONS, (True, False), FABRICS, ALGORITHMS
    ):
        cost = CollectiveTimeModel(
            paper_testbed(fabric), algorithm=algorithm,
            table=tables[fabric] if algorithm == "auto" else None,
        )
        options = {"credit": credit, "partition_bytes": partition,
                   "negotiate": negotiate}
        # Traces on a subset: one partition size, ring, negotiating.
        trace = partition == PARTITIONS[0] and negotiate and algorithm == "ring"
        mismatches.extend(
            f"{partition:g}/{negotiate}/{fabric}/{algorithm}: {what}"
            for what in _differences(options, timing, cost, trace=trace)
        )
    assert mismatches == []


@pytest.mark.parametrize("credit", CREDITS)
@pytest.mark.parametrize("plan", sorted(FAULTS))
def test_faulted_runs_equal_the_credit_engine(plan, credit):
    mismatches = []
    for model, fabric in itertools.product(MODEL_NAMES, FABRICS):
        timing = TimingModel.for_model(get_model(model))
        cost = CollectiveTimeModel(paper_testbed(fabric))
        trace = model == "resnet50"
        mismatches.extend(
            f"{model}/{fabric}: {what}"
            for what in _differences({"credit": credit}, timing, cost,
                                     trace=trace, faults=FAULTS[plan])
        )
    assert mismatches == []


def test_an_order_that_settles_after_iteration_0_is_not_periodic(registry):
    """A slow link over iteration 0 alone changes only that iteration's
    claims.  A tiled run repeats iteration 1, whose FF gates point into
    iteration 0's claims, so the order is periodic only when iteration
    0's claims match the rest too.  Checking from iteration 1 tiled this
    run and gave iteration 1 0.671406 s against the credit engine's
    0.672571 s; the run records in full and equals the engine."""
    timing = TimingModel.for_model(get_model("densenet201"))
    cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=4))
    faults = FaultPlan(link_faults=(
        LinkFault(0.05, 0.6, alpha_factor=2.5, beta_factor=2.5, link="both"),
    ))
    assert _differences({}, timing, cost, trace=True, faults=faults) == []
    full = registry.snapshot()["sim.record.full"]["values"]
    assert [entry["labels"] for entry in full] == [{"reason": "aperiodic"}]


def test_unconfirmed_order_is_an_internal_error(monkeypatch):
    """Each rejected round settles one more iteration, so the bound of
    ``iterations + 1`` rounds cannot run out.  Cut to one round, a run
    whose first guess the replay rejects (a slow link the healthy guess
    does not price) raises ``RuntimeError``: an internal error, never a
    fall back to the event kernel."""
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(paper_testbed("10gbe"))
    record_verified = FastIterationContext.record_verified
    monkeypatch.setattr(
        FastIterationContext, "record_verified",
        lambda self, plan, iterations, rounds:
            record_verified(self, plan, iterations, 1),
    )
    with pytest.raises(RuntimeError, match="still changing after 1 rounds"):
        get_scheduler("bytescheduler").run(timing, cost,
                                           faults=FAULTS["slow_link"])


def test_a_tie_rides_the_fast_path(registry):
    """Layer 0's BP job and layer 1's all-reduce start at one instant
    and last equally long, so layer 0 is ready the instant the channel
    frees.  The BP job's timer was scheduled first, so the kernel
    handles the readiness first; the replay orders the tie the same way
    and its trace is the kernel's."""
    builder = ModelBuilder(name="tie", display_name="Tie",
                           default_batch_size=8, sample_description="sample")
    for index in range(2):
        builder.add_layer(f"layer{index}", "conv", [("weight", 1000)],
                          flops=1e6)
    model = builder.build()
    cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=2))
    duration = cost.all_reduce(model.tensors_backward_order()[0].nbytes)
    timing = TimingModel(ComputeProfile(model, 8, (1e-3, 1e-3),
                                        (duration, 2e-3)))
    assert _differences({"negotiate": False}, timing, cost, trace=True) == []
    runs = registry.snapshot()["sim.runs"]["values"]
    assert {entry["labels"]["engine"]: entry["value"] for entry in runs} == {
        "fastpath": 1.0, "event": 1.0,
    }


@pytest.mark.parametrize("credit", CREDITS)
def test_zero_duration_claims_equal_the_credit_engine(credit):
    """On one GPU every all-reduce is free: a claim ends as it starts,
    and its channel takes its next turn behind those already queued."""
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(cluster_10gbe(nodes=1, gpus_per_node=1))
    assert cost.all_reduce(1e6) == 0.0
    for negotiate in (True, False):
        options = {"credit": credit, "negotiate": negotiate,
                   "partition_bytes": 1e6}
        assert _differences(options, timing, cost, trace=True) == []


# -- _dispatch: the credit engine's choices ------------------------------------

#: The owner start of a readiness no claim of its iteration can precede.
_FIRST = float("-inf")


def _fixed(durations):
    return lambda k, start: durations[k]


def test_dispatch_takes_the_best_ready_partition():
    claims, channels = _dispatch(
        [0.0, 0.0, 0.0, 5.0], [_FIRST] * 3 + [4.0], _fixed([1.0] * 4),
        [(2, 0), (0, 0), (1, 0), (0, 1)], [0],
    )
    # Partition 3 outranks 0 and 2 but is not ready until 5.0.
    assert claims == [(1, 0), (2, 0), (0, 0), (3, 0)]
    assert channels == [0]


def test_dispatch_wakes_idle_channels_in_order():
    claims, channels = _dispatch(
        [1.0, 1.0, 1.0], [0.0] * 3, _fixed([2.0, 3.0, 1.0]),
        [(0, 0), (0, 1), (0, 2)], [1, 0],
    )
    # Channel 1 went idle first, so it wakes and claims first, frees
    # first (at 3.0) and takes the last partition.  Both channels free
    # at 4.0, and go idle in the order their jobs started.
    assert claims == [(0, 1), (1, 0), (2, 1)]
    assert channels == [0, 1]


#: Two channels, 0 idle before 1; partition 0 is ready at 0.0 and runs
#: on channel 0 until 1.0, the instant partition 1 is ready.
_TIE = ([0.0, 1.0], _fixed([1.0, 1.0]), [(0, 0), (0, 1)], [0, 1])


def test_dispatch_frees_a_channel_that_started_earlier_first():
    """Partition 1's owner started after channel 0's claim: channel 0's
    timer pops first, it finds nothing ready and idles behind channel
    1, and the readiness wakes channel 1 first."""
    ready, price, priorities, idle = _TIE
    claims, channels = _dispatch(ready, [_FIRST, 0.5], price, priorities, idle)
    assert claims == [(0, 0), (1, 1)]
    assert channels == [0, 1]


@pytest.mark.parametrize("owner", [0.0, -0.5])
def test_dispatch_readiness_goes_first_when_its_owner_started_no_later(owner):
    """An owner that started with the claim, or before it, was scheduled
    first: the readiness comes first and the freed channel claims it."""
    ready, price, priorities, idle = _TIE
    claims, channels = _dispatch(ready, [_FIRST, owner], price, priorities, idle)
    assert claims == [(0, 0), (1, 0)]
    assert channels == [1, 0]


def test_dispatch_freed_channel_claims_before_the_channels_it_wakes():
    """The freed channel's turn is one hop from its timer; the idle
    channel the readiness wakes takes its turn a hop later, so the
    freed channel gets the best partition."""
    claims, _ = _dispatch(
        [0.0, 1.0, 1.0], [_FIRST, 0.0, 0.0], _fixed([1.0, 1.0, 1.0]),
        [(0, 0), (2, 0), (1, 0)], [0, 1],
    )
    assert claims == [(0, 0), (2, 0), (1, 1)]


def test_dispatch_zero_duration_claims_take_turns():
    """A zero-duration claim ends as it starts: its channel's next turn
    comes behind the turns already queued."""
    claims, channels = _dispatch(
        [0.0, 0.0, 0.0], [_FIRST] * 3, _fixed([0.0, 0.0, 0.0]),
        [(0, 0), (0, 1), (0, 2)], [0, 1],
    )
    assert claims == [(0, 0), (1, 1), (2, 0)]
    assert channels == [1, 0]


# -- random tiny models built to tie ------------------------------------------

#: The fabric of the tie property: 4 GPUs, so all-reduces cost time.
TIED_COST = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=2))


@st.composite
def tied_runs(draw):
    """A tiny model whose FF and BP layers last zero or one of its
    partitions' all-reduce prices, with credit 1-4 and, 30% of the
    time, a slow link over part of the run."""
    layers = draw(st.integers(1, 5))
    sizes = st.sampled_from([1000, 4000, 250_000])
    builder = ModelBuilder(name="tied", display_name="Tied",
                           default_batch_size=8, sample_description="sample")
    for index in range(layers):
        tensors = draw(st.lists(sizes, min_size=1, max_size=2))
        builder.add_layer(
            f"layer{index}", "conv",
            [(f"t{slot}", size) for slot, size in enumerate(tensors)],
            flops=1e6,
        )
    model = builder.build()
    options = {
        "credit": draw(st.integers(1, 4)),
        "partition_bytes": draw(st.sampled_from([4000.0, 16000.0, 1e6])),
        "negotiate": draw(st.booleans()),
    }
    scheduler = get_scheduler("bytescheduler", **options)
    extra = scheduler._overhead(SimpleNamespace(cost=TIED_COST))
    prices = sorted({
        TIED_COST.all_reduce(tensor.nbytes / parts) + extra
        for tensor in model.tensors_backward_order()
        for parts in [max(1, math.ceil(tensor.nbytes / options["partition_bytes"]))]
    })
    times = st.sampled_from([0.0, 0.0, 1e-4, *prices, *(2 * p for p in prices)])
    ff = tuple(draw(times) for _ in range(layers))
    bp = tuple(draw(times) for _ in range(layers))
    faults = None
    if draw(st.integers(0, 9)) < 3:
        start = draw(st.sampled_from([0.0, 2e-4, 1e-3, 3e-3]))
        length = draw(st.sampled_from([5e-4, 2e-3, 1.0]))
        faults = FaultPlan(link_faults=(
            LinkFault(start, start + length, alpha_factor=2.5,
                      beta_factor=2.5, link="both"),
        ))
    return TimingModel(ComputeProfile(model, 8, ff, bp)), options, faults


@settings(deadline=None, max_examples=200)
@given(case=tied_runs())
def test_tied_tiny_models_match_without_fallback(case):
    timing, options, faults = case
    assert _differences(options, timing, TIED_COST, trace=True,
                        faults=faults) == []

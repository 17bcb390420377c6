"""ByteScheduler on the vectorized replay equals its credit engine.

``fastpath=False`` runs the credit engine on the event kernel: the
oracle.  The replay records a guessed dispatch order and confirms it
against the replayed times
(:meth:`~repro.schedulers.engine.FastIterationContext.record_verified`).
Every run here must give the oracle's iteration times, exposed times
and ``extras`` (timing-fault totals included) exactly, with no
``sim.fallbacks``, and every replay must pass
:func:`tests.sim.invariants.verify_timeline`.  The grid is every zoo
model under credit 1, 2 and 4, three partition sizes, negotiation on
and off, both fabrics and both algorithm choices, healthy and under
the chaos sweep's timing faults; a subset compares Chrome traces byte
for byte.  A hypothesis property drives tiny random models built to
tie: zero-duration BP layers and equal-size partitions.
"""

from __future__ import annotations

import itertools

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
from repro.schedulers.bytescheduler import _NEVER, _dispatch
from repro.schedulers.engine import FastIterationContext
from repro.sim.fastpath import FastPathUnsupported
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


def _fallbacks(registry: MetricsRegistry) -> dict:
    family = registry.snapshot().get("sim.fallbacks", {"values": []})
    return {
        tuple(entry["labels"][key] for key in ("from", "to", "reason")):
            entry["value"]
        for entry in family["values"]
    }


def _run(scheduler, timing, cost, fastpath=True, **kwargs):
    """``scheduler.run``; a replayed run's timeline must keep the invariants."""
    contexts = []
    measure = scheduler.measure
    scheduler.measure = lambda ctx, iterations: (
        contexts.append(ctx) or measure(ctx, iterations)
    )
    result = scheduler.run(timing, cost, iterations=ITERATIONS,
                           fastpath=fastpath, **kwargs)
    if isinstance(contexts[0], FastIterationContext):
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
def test_healthy_runs_equal_the_credit_engine(credit, model, tables, registry):
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
    assert _fallbacks(registry) == {}


@pytest.mark.parametrize("credit", CREDITS)
@pytest.mark.parametrize("plan", sorted(FAULTS))
def test_faulted_runs_equal_the_credit_engine(plan, credit, registry):
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
    assert _fallbacks(registry) == {}


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
    assert _fallbacks(registry) == {}


def test_unconfirmed_order_is_counted_not_wrong(registry, monkeypatch):
    """With one round, a run whose first guess the replay rejects (a
    slow link the healthy guess does not price) falls back, counted."""
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(paper_testbed("10gbe"))
    faults = FAULTS["slow_link"]
    record_verified = FastIterationContext.record_verified
    monkeypatch.setattr(
        FastIterationContext, "record_verified",
        lambda self, plan, iterations, rounds:
            record_verified(self, plan, iterations, 1),
    )
    fast = get_scheduler("bytescheduler").run(timing, cost, faults=faults)
    assert _fallbacks(registry) == {("fastpath", "event", "dispatch_order"): 1.0}
    slow = get_scheduler("bytescheduler").run(timing, cost, faults=faults,
                                              fastpath=False)
    assert repr(fast) == repr(slow)


def test_a_tie_falls_back_counted(registry):
    """Layer 0's BP ends the instant layer 1's all-reduce does: the
    kernel orders the two by heap sequence numbers, so the run falls
    back."""
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
    fast, slow = (
        get_scheduler("bytescheduler", negotiate=False).run(
            timing, cost, fastpath=fastpath, trace=True)
        for fastpath in (True, False)
    )
    assert _fallbacks(registry) == {("fastpath", "event", "dispatch_order"): 1.0}
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


# -- _dispatch: the credit engine's choices ------------------------------------


def _fixed(durations):
    return lambda k, start: durations[k]


def test_dispatch_takes_the_best_ready_partition():
    claims, channels = _dispatch(
        [0.0, 0.0, 0.0, 5.0], _fixed([1.0] * 4),
        [(2, 0), (0, 0), (1, 0), (0, 1)], [(0, _NEVER)],
    )
    # Partition 3 outranks 0 and 2 but is not ready until 5.0.
    assert claims == [(1, 0), (2, 0), (0, 0), (3, 0)]
    assert channels == [(0, 6.0)]


def test_dispatch_wakes_idle_channels_in_order():
    claims, channels = _dispatch(
        [1.0, 1.0, 1.0], _fixed([2.0, 3.0, 1.0]), [(0, 0), (0, 1), (0, 2)],
        [(1, _NEVER), (0, _NEVER)],
    )
    # Channel 1 went idle first, so it wakes and claims first, frees
    # first (at 3.0) and takes the last partition.  Both channels free
    # at 4.0, and go idle in the order their jobs started.
    assert claims == [(0, 1), (1, 0), (2, 1)]
    assert channels == [(0, 4.0), (1, 4.0)]


def test_dispatch_raises_on_a_tie_unless_guessing():
    args = ([0.0, 1.0], _fixed([1.0, 1.0]), [(1, 0), (0, 0)], [(0, _NEVER)])
    with pytest.raises(FastPathUnsupported) as info:
        _dispatch(*args)
    assert info.value.reason == "dispatch_order"
    assert _dispatch(*args, strict=False)[0] == [(0, 0), (1, 0)]
    with pytest.raises(FastPathUnsupported):
        _dispatch([0.0], _fixed([1.0]), [(0, 0)], [(0, 0.0)])


# -- random tiny models built to tie ------------------------------------------


@st.composite
def tied_runs(draw):
    """A tiny model with zero-duration BP layers and equal-size tensors."""
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
    times = st.sampled_from([0.0, 0.0, 1e-4, 3e-4, 1e-3])
    profile = ComputeProfile(
        model, 8,
        tuple(draw(times) + 1e-4 for _ in range(layers)),
        tuple(draw(times) for _ in range(layers)),
    )
    options = {
        "credit": draw(st.sampled_from(CREDITS)),
        "partition_bytes": draw(st.sampled_from([4000.0, 16000.0, 1e6])),
        "negotiate": draw(st.booleans()),
    }
    return TimingModel(profile), options


@settings(deadline=None, max_examples=60)
@given(case=tied_runs())
def test_tied_tiny_models_match_or_fall_back_counted(case):
    timing, options = case
    cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=2))
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    try:
        found = _differences(options, timing, cost, trace=True)
    finally:
        reset_default_registry()
    assert found == []
    assert set(_fallbacks(fresh)) <= {("fastpath", "event", "dispatch_order")}

"""ByteScheduler's array check confirms only what ``_dispatch`` derives.

:func:`~repro.schedulers.bytescheduler._confirm` decides from the
replay's arrays whether an iteration's recorded claims are the credit
engine's; :func:`~repro.schedulers.bytescheduler._dispatch` re-derives
them one instant at a time and stays the oracle.  The properties here
check that the array check never accepts an order ``_dispatch`` would
change: on every round of the tie-heavy draws of
``test_bytescheduler_fastpath.py`` (credit 1-4, link faults), under the
chaos plans' faults and on one GPU (zero-duration claims), and on
orders broken on purpose.  The rest pins the healthy prices, the
``schedulers.bytescheduler.verify{how}`` counter and the one replay a
confirmed context takes.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.layers import ModelBuilder
from repro.models.profiles import ComputeProfile, TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.autotuner import build_selection_table
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, paper_testbed
from repro.runner import batched
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler
from repro.schedulers.bytescheduler import _confirm, _dispatch, _DispatchPlan, _Layout
from repro.schedulers.engine import FastIterationContext
from repro.sim import fastpath
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.schedulers.test_bytescheduler_fastpath import (
    FAULTS,
    TIED_COST,
    _differences,
    tied_runs,
)

ITERATIONS = 5
#: One GPU: every all-reduce is free, so every claim ends as it starts.
ONE_GPU = CollectiveTimeModel(cluster_10gbe(nodes=1, gpus_per_node=1))


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


def _verify_counts(registry) -> dict:
    values = registry.snapshot()["schedulers.bytescheduler.verify"]["values"]
    return {entry["labels"]["how"]: entry["value"] for entry in values}


def _replayed(plan: _DispatchPlan, timing, cost, faults) -> FastIterationContext:
    """A fresh context holding ``plan``'s current orders, replayed."""
    ctx = FastIterationContext(timing, cost, faults=faults)
    ctx.record(plan, ITERATIONS, periodic=plan.periodic)
    ctx._timeline.replay()
    return ctx


def _assert_sound(plan: _DispatchPlan, ctx: FastIterationContext) -> list:
    """Every iteration the array check decides, ``_dispatch`` derives
    as recorded.  Returns each iteration's claims as ``_dispatch``
    derives them, channels carried over from it."""
    idle = range(plan.credit)
    derived = []
    for iteration in range(ITERATIONS):
        claims, idle = plan.derive(ctx, iteration, idle)
        if plan.confirm(ctx, iteration):
            assert claims == plan.orders[iteration], iteration
        derived.append(claims)
    return derived


def _plan(case):
    timing, options, faults, cost = case
    scheduler = get_scheduler("bytescheduler", **options)
    return _DispatchPlan(scheduler, FastIterationContext(timing, cost, faults=faults),
                         ITERATIONS)


@st.composite
def checked_runs(draw):
    """``tied_runs`` on the tie fabric or one GPU, with its own link
    fault or one of the chaos plans' fault plans."""
    timing, options, faults = draw(tied_runs())
    cost = draw(st.sampled_from([TIED_COST, TIED_COST, ONE_GPU]))
    if faults is None and draw(st.integers(0, 3)) == 0:
        faults = FAULTS[draw(st.sampled_from(sorted(FAULTS)))]
    return timing, options, faults, cost


@settings(deadline=None, max_examples=200)
@given(case=checked_runs())
def test_the_array_check_accepts_only_what_dispatch_derives(case):
    """Every round of a verified recording, the first guesses included
    (a faulted run's guess prices no fault, so its check must reject)."""
    timing, _, faults, cost = case
    plan = _plan(case)
    for _ in range(ITERATIONS + 1):
        ctx = _replayed(plan, timing, cost, faults)
        _assert_sound(plan, ctx)
        if plan.verify(ctx):
            break
    else:
        pytest.fail("dispatch order still changing")


@settings(deadline=None, max_examples=200)
@given(case=checked_runs(), data=st.data())
def test_a_broken_order_is_rejected_or_left_to_dispatch(case, data):
    """A confirmed order with two claims of one channel swapped, or a
    claim moved to another channel, is never accepted by the array
    check unless ``_dispatch`` derives it too (with more than one
    channel the check leaves every iteration to ``_dispatch``)."""
    timing, options, faults, cost = case
    plan = _plan(case)
    for _ in range(ITERATIONS + 1):
        if plan.verify(_replayed(plan, timing, cost, faults)):
            break
    iteration = data.draw(st.integers(0, ITERATIONS - 1))
    claims = list(plan.orders[iteration])
    if not claims:
        return
    moves = ["swap"] + (["move"] if plan.credit > 1 else [])
    if data.draw(st.sampled_from(moves)) == "swap":
        by_channel = {}
        for position, (_, channel) in enumerate(claims):
            by_channel.setdefault(channel, []).append(position)
        shared = [positions for positions in by_channel.values() if len(positions) > 1]
        if not shared:
            return
        positions = data.draw(st.sampled_from(shared))
        a, b = sorted(data.draw(st.lists(st.sampled_from(positions), min_size=2,
                                         max_size=2, unique=True)))
        claims[a], claims[b] = (claims[b][0], claims[a][1]), (claims[a][0], claims[b][1])
    else:
        position = data.draw(st.integers(0, len(claims) - 1))
        k, channel = claims[position]
        other = data.draw(st.sampled_from(
            [c for c in range(plan.credit) if c != channel]))
        claims[position] = (k, other)
    plan.orders[iteration] = claims
    plan.layouts[iteration] = _Layout(plan, claims)
    plan._update_periodic()
    ctx = _replayed(plan, timing, cost, faults)
    if _assert_sound(plan, ctx)[iteration] != claims:
        assert not plan.confirm(ctx, iteration)


@pytest.mark.parametrize("fabric", ["10gbe", "100gbib"])
@pytest.mark.parametrize("algorithm", ["ring", "auto"])
def test_healthy_prices_take_one_collective_times_pass(fabric, algorithm):
    """``collective_times("all_reduce", sizes)`` is the per-size
    ``all_reduce`` bit for bit, with the same ``costmodel`` counts, over
    the zoo's partition sizes; the plan's healthy prices are those plus
    the negotiation round."""
    cluster = paper_testbed(fabric)
    table = build_selection_table(cluster) if algorithm == "auto" else None
    for name, partition in itertools.product(MODEL_NAMES, (16e6, 1e6, 100e3)):
        scheduler = get_scheduler("bytescheduler", partition_bytes=partition)
        counts, times = [], []
        for batched_pass in (True, False):
            fresh = MetricsRegistry()
            set_default_registry(fresh)
            try:
                cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=table)
                ctx = FastIterationContext(TimingModel.for_model(get_model(name)), cost)
                plan = _DispatchPlan(scheduler, ctx, ITERATIONS)
                sizes = [nbytes for _, nbytes, _ in plan.parts]
                fresh_cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=table)
                priced = (fresh_cost.collective_times("all_reduce", sizes) if batched_pass
                          else [fresh_cost.all_reduce(nbytes) for nbytes in sizes])
                snapshot = fresh.snapshot()
            finally:
                reset_default_registry()
            times.append(priced)
            counts.append({
                metric: sorted((tuple(sorted(entry["labels"].items())), entry["value"])
                               for entry in snapshot[metric]["values"])
                for metric in ("costmodel.queries", "costmodel.memo_hits")
            })
            assert plan.healthy == [
                cost.all_reduce(nbytes) + plan.extra for nbytes in sizes
            ]
        assert times[0] == times[1], name
        assert counts[0] == counts[1], name


def test_a_healthy_sweep_spec_is_confirmed_from_arrays(registry):
    """Every zoo model on both fabrics and both algorithm choices, as a
    sweep runs them: every iteration is decided by the array check."""
    for model, fabric, algorithm in itertools.product(
        MODEL_NAMES, ("10gbe", "100gbib"), ("ring", "auto")
    ):
        RunSpec.create("bytescheduler", model, fabric, algorithm=algorithm,
                       batch_size=64).run()
    assert _verify_counts(registry) == {"array": 20.0 * ITERATIONS}


def test_a_tie_is_left_to_dispatch(registry):
    """The setup of ``test_a_tie_rides_the_fast_path``: layer 0 is ready
    the instant the channel frees, which ``_dispatch`` orders."""
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
    assert _verify_counts(registry).get("dispatch", 0) > 0


# -- one replay per confirmed context -----------------------------------------


@pytest.fixture
def replays(monkeypatch):
    """Counts each timeline's replays, by identity, through every entry
    point: ``Timeline.replay`` and the batched runner's aliases."""
    counts: dict[int, int] = {}
    replay = fastpath.replay

    def counting(timelines, tracers=None):
        for timeline in timelines:
            counts[id(timeline)] = counts.get(id(timeline), 0) + 1
        return replay(timelines, tracers)

    monkeypatch.setattr(fastpath, "replay", counting)
    monkeypatch.setattr(batched, "replay_fast_batch", counting)
    monkeypatch.setattr(batched, "replay_multirank_batch", counting)
    return counts


@pytest.fixture
def rounds(monkeypatch):
    """The timelines ``record_verified`` replays, one per round."""
    seen: list = []
    verify = _DispatchPlan.verify

    def counting(self, ctx):
        seen.append(ctx._timeline)
        return verify(self, ctx)

    monkeypatch.setattr(_DispatchPlan, "verify", counting)
    return seen


SPEC = dict(scheduler="bytescheduler", model="resnet50", cluster="10gbe")


@pytest.mark.parametrize("faults", [None, "slow_link"])
def test_a_solo_untraced_run_replays_each_round_once(replays, rounds, faults):
    spec = RunSpec.create(**SPEC, faults=FAULTS.get(faults))
    spec.run()
    assert len(rounds) == (1 if faults is None else 2)
    assert [replays[id(timeline)] for timeline in rounds] == [1] * len(rounds)
    assert sum(replays.values()) == len(rounds)


def test_a_batch_replays_a_confirmed_context_once(replays, rounds, tmp_path):
    specs = [RunSpec.create(**SPEC, batch_size=size) for size in (32, 48)]
    specs.append(RunSpec.create("wfbp", "resnet50", "10gbe"))
    solo = [spec.run() for spec in specs]
    replays.clear()
    rounds.clear()
    together = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
    assert [replays[id(timeline)] for timeline in rounds] == [1, 1]
    # The one other replay is the wfbp spec's, in its own group.
    assert sum(replays.values()) == len(rounds) + 1
    assert [r.iteration_times for r in together] == [r.iteration_times for r in solo]


def test_a_traced_run_replays_again_to_emit_its_spans(replays, rounds):
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(paper_testbed("10gbe"))
    fast = get_scheduler("bytescheduler").run(timing, cost, trace=True)
    assert [replays[id(timeline)] for timeline in rounds] == [2]
    slow = get_scheduler("bytescheduler").run(timing, cost, trace=True,
                                              fastpath=False)
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


def test_a_submission_after_a_replay_clears_replayed():
    timeline = fastpath.Timeline()
    stream = timeline.stream("compute")
    stream.submit(1.0)
    assert not timeline.replayed
    timeline.replay()
    assert timeline.replayed
    stream.submit(2.0)
    assert not timeline.replayed
    timeline.replay()
    stream.submit_chain([1.0, 1.0], None, "ff", ("ff", 0, range(2)))
    assert not timeline.replayed
    timeline.replay()
    timeline.tile(0, 1)
    assert not timeline.replayed
    assert timeline.replay() == 10.0


def test_run_replays_a_context_that_recorded_after_its_replay(replays):
    timing = TimingModel.for_model(get_model("resnet50"))
    ctx = FastIterationContext(timing, CollectiveTimeModel(paper_testbed("10gbe")))
    ctx.compute.submit(1.0, name="first")
    ctx._timeline.replay()
    ctx.compute.submit(2.0, name="second")
    assert ctx.run() == 3.0
    assert replays[id(ctx._timeline)] == 2
    assert ctx.run() == 3.0
    assert replays[id(ctx._timeline)] == 2


# -- _confirm on hand-built claims ---------------------------------------------


def _layout(claims):
    """The :class:`_Layout` of ``claims`` over partitions ranked by index."""
    count = len(claims)
    plan = SimpleNamespace(
        layers=1, healthy=[1.0] * count,
        parts=[(0, 1.0, f"p{k}") for k in range(count)],
        bp_slots=np.zeros(count, dtype=np.intp), ranks=np.arange(count),
    )
    return _Layout(plan, claims)


def _check(claims, starts, ends, ready):
    return _confirm(np.array(starts), np.array(ends), np.array(ready),
                    _layout(claims))


def test_confirm_takes_the_best_ready_partition():
    """Partitions 1 and 2 both wait for the channel; partition 1 ranks
    better, so claiming 2 first is not the engine's."""
    claims, _ = _dispatch([0.0, 0.5, 0.5], [-math.inf] * 3,
                          lambda k, start: 1.0, [(0, 0), (0, 1), (0, 2)], [0])
    assert claims == [(0, 0), (1, 0), (2, 0)]
    timed = dict(starts=[0.0, 1.0, 2.0], ends=[1.0, 2.0, 3.0], ready=[0.0, 0.5, 0.5])
    assert _check(claims, **timed)
    assert not _check([(0, 0), (2, 0), (1, 0)], **timed)


def test_confirm_leaves_a_start_the_replay_would_not_give_undecided():
    assert not _check([(0, 0)], starts=[1.0], ends=[2.0], ready=[0.5])


def test_confirm_leaves_a_zero_duration_claim_undecided():
    """A claim that ends as it starts is :func:`_dispatch`'s to order,
    untied or not."""
    assert not _check([(0, 0), (1, 0)], starts=[0.0, 1.0], ends=[1.0, 1.0],
                      ready=[0.0, 0.5])
    assert _check([(0, 0), (1, 0)], starts=[0.0, 1.0], ends=[1.0, 1.5],
                  ready=[0.0, 0.5])


def test_more_than_one_channel_is_left_to_dispatch(registry):
    """With ``credit > 1`` the channels' turns and wake order are
    :func:`_dispatch`'s to decide: no iteration is confirmed from arrays."""
    RunSpec.create("bytescheduler", "resnet50", "10gbe", credit=2).run()
    assert _verify_counts(registry) == {"dispatch": 1.0 * ITERATIONS}

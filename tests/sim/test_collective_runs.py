"""Collective runs, plan-static gates and the one-pass float replay.

A policy submits a fusion plan's collectives of one kind as one run
(:meth:`~repro.schedulers.engine.IterationContext.submit_collectives`):
the fast engine records it with one list ``extend`` per column, prices
it in one memo pass and gates it from positions the
:class:`~repro.core.fusion.FusionPlan` computes once.  These tests pin
that all of it is invisible in results, against the per-slot submit
kept here as the oracle (one ``submit_collective`` per group, gates
from ``done_of`` and ``all_of``):

- every ported policy, on every zoo model, healthy and faulted, traced
  and untraced, on one rank and on 16 heterogeneous ranks, records the
  same timeline signature, durations and category codes, measures the
  same results and exports the same Chrome trace bytes;
- a run still counts one ``costmodel.queries`` per slot and one
  ``costmodel.memo_hits`` per memoised slot;
- the one-pass float loop replays like the loop it replaced
  (:mod:`tests.sim.float_loop_oracle`), bit for bit;
- both engines reject a duration that is not ``>= 0`` at submit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import get_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.schedulers import multirank
from repro.sim.engine import Simulator
from repro.sim.fastpath import DeferredDuration, Gate, Timeline
from repro.sim.resources import Stream
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.sim.float_loop_oracle import replay_floats
from tests.sim.invariants import profile_classes, verify_timeline

ITERATIONS = 4

#: Every policy that records its collectives as runs.
PORTED = [
    ("dear", {"fusion": "buffer"}),
    ("wfbp", {}),
    ("ddp", {}),
    ("horovod", {}),
    ("mg_wfbp", {}),
    ("zero", {}),
    ("serial", {}),
]

FAULTS = {
    "healthy": None,
    "slow_link": FaultPlan(link_faults=(
        LinkFault(0.05, 0.6, alpha_factor=2.5, beta_factor=2.5, link="both"),
    )),
    "straggler": FaultPlan(stragglers=(
        StragglerFault(0.05, 0.6, compute_factor=1.5),
    )),
}

#: 16 ranks in three compute classes.
SCALES = [1.0] * 10 + [1.2] * 4 + [1.5] * 2


# -- the per-slot oracle ---------------------------------------------------------


class _PerSlotRun(list):
    """The oracle's run: its jobs, gated on through ``all_of``."""

    def __init__(self, jobs: list, sim):
        super().__init__(jobs)
        self._sim = sim

    def done_of(self, positions):
        return self._sim.all_of([self[position].done for position in positions])

    @property
    def done(self):
        return self.done_of(range(len(self)))


def _per_slot_collectives(ctx, kind, groups, iteration, gates=None,
                          extras=None, prefix=""):
    jobs = [
        ctx.submit_collective(
            kind, group.nbytes, iteration, label=f"{prefix}g{group.index}",
            gate=None if gates is None else gates[position],
            extra_time=0.0 if extras is None else extras[position],
            metadata={
                "group": group.index,
                "layers": group.layer_indices,
                "num_tensors": len(group.tensors),
            },
        )
        for position, group in enumerate(groups)
    ]
    return _PerSlotRun(jobs, ctx.sim)


@contextmanager
def _per_slot():
    """Submit collectives one at a time, gated through ``all_of``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IterationContext, "submit_collectives",
                      _per_slot_collectives)
        patch.setattr(FastIterationContext, "ready_gates",
                      IterationContext.ready_gates)
        patch.setattr(FastIterationContext, "cover_gates",
                      IterationContext.cover_gates)
        yield


def _body(duration) -> bytes:
    return np.asarray(duration, dtype=float).tobytes()


@contextmanager
def _observed(recordings: list, classes: bool = False):
    """Verify every fast-path replay and keep its recorded facts."""
    run = FastIterationContext.run

    def observed(self):
        final = run(self)
        timeline = self._timeline
        verify_timeline(timeline, profile_classes(self) if classes else None)
        recordings.append((
            timeline.signature(),
            [_body(duration) for duration in timeline._durations],
            list(timeline._codes),
        ))
        return final

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastIterationContext, "run", observed)
        yield


def _facts(result, traced: bool, chrome: bool = True) -> tuple:
    """What a run reports: its results and, traced, every span with its
    metadata in key order and (``chrome``) the exported trace bytes."""
    spans = trace = None
    if traced:
        spans = [(span.name, span.category, span.actor, span.start, span.end,
                  list(span.metadata.items())) for span in result.tracer.spans]
        trace = result.tracer.to_chrome_trace() if chrome else None
    return result.iteration_times, result.iteration_time, result.extras, spans, trace


# -- runs against the oracle ------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("name,options", PORTED,
                         ids=[name for name, _ in PORTED])
def test_one_rank_runs_equal_per_slot_submits(name, options, fault, traced):
    cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=4))
    for model in MODEL_NAMES:
        timing = TimingModel.for_model(get_model(model))
        sides = []
        for oracle in (True, False):
            recordings: list = []
            with _observed(recordings), (_per_slot() if oracle else nullcontext()):
                result = get_scheduler(name, **options).run(
                    timing, cost, iterations=ITERATIONS, faults=FAULTS[fault],
                    trace=traced,
                )
            sides.append((recordings, _facts(result, traced)))
        assert sides[0] == sides[1], model


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("policy", multirank.POLICIES)
def test_heterogeneous_runs_equal_per_slot_submits(policy, fault, traced):
    cluster = cluster_10gbe(nodes=4, gpus_per_node=4)
    for model in MODEL_NAMES:
        sides = []
        for oracle in (True, False):
            recordings: list = []
            with _observed(recordings, classes=True), (
                _per_slot() if oracle else nullcontext()
            ):
                result = multirank._Run(
                    policy, get_model(model), cluster, SCALES, collapse=False,
                    iteration_compute=0.03, faults=FAULTS[fault],
                    iterations=ITERATIONS,
                ).simulate(fastpath=True, trace=traced)
            assert result.extras["engine"] == "multirank-fastpath"
            # Exporting 16 ranks' spans is slow: one model's bytes.
            sides.append((recordings, _facts(result, traced, model == "bert_base")))
        assert sides[0] == sides[1], model


def test_collective_spans_keep_their_metadata_order(tiny_timing, ethernet_cost):
    result = get_scheduler("dear", fusion="buffer").run(
        tiny_timing, ethernet_cost, iterations=ITERATIONS, trace=True,
    )
    keys = {tuple(span.metadata) for span in result.tracer.spans
            if span.category in ("comm.rs", "comm.ag")}
    assert keys == {("iteration", "bytes", "extra", "algorithm", "flow",
                     "group", "layers", "num_tensors")}


# -- counters ------------------------------------------------------------------------


@pytest.mark.parametrize("name,options", PORTED,
                         ids=[name for name, _ in PORTED])
def test_runs_count_every_slot(name, options):
    for model in MODEL_NAMES:
        counts = []
        for oracle in (True, False):
            registry = MetricsRegistry()
            set_default_registry(registry)
            try:
                # The cost model binds its counters when it is built.
                cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=4))
                with _per_slot() if oracle else nullcontext():
                    get_scheduler(name, **options).run(
                        TimingModel.for_model(get_model(model)), cost,
                        iterations=ITERATIONS,
                    )
                snapshot = registry.snapshot()
            finally:
                reset_default_registry()
            counts.append({
                metric: snapshot[metric]["values"]
                for metric in ("costmodel.queries", "costmodel.memo_hits")
            })
        assert counts[0] == counts[1], model
        assert any(entry["value"] for entry in counts[1]["costmodel.memo_hits"])


# -- the one-pass float loop ------------------------------------------------------------


class _Priced(DeferredDuration):
    """A deferred body priced from its start: slower after ``after``."""

    def __init__(self, base: float, after: float):
        self.base = base
        self.after = after

    def resolve(self, start: float) -> float:
        return self.base * 2.0 if start >= self.after else self.base


@st.composite
def one_rank_recordings(draw):
    """Per slot: its stream, body and the earlier slots its gate names."""
    streams = draw(st.integers(1, 3))
    # Few distinct values, zero included, so that ends tie exactly.
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 0.1, 1e-9])
    slots = []
    for index in range(draw(st.integers(0, 32))):
        if draw(st.integers(0, 4)) == 0:
            body = ("deferred", draw(values), draw(st.sampled_from([0.0, 0.5, 2.0])))
        else:
            body = ("plain", draw(values))
        gate = (
            draw(st.lists(st.integers(0, index - 1), max_size=4))
            if index and draw(st.booleans()) else []
        )
        slots.append((draw(st.integers(0, streams - 1)), body, gate))
    return streams, slots


def _one_rank(streams: int, slots: list) -> Timeline:
    timeline = Timeline()
    lanes = [timeline.stream(f"s{sid}") for sid in range(streams)]
    for sid, body, gate_ids in slots:
        duration = body[1] if body[0] == "plain" else _Priced(*body[1:])
        lanes[sid].submit(
            duration, gate=Gate(tuple(gate_ids)) if gate_ids else None
        )
    return timeline


@settings(deadline=None, max_examples=200)
@given(spec=one_rank_recordings())
def test_one_pass_loop_equals_the_loop_it_replaced(spec):
    replayed, oracle = _one_rank(*spec), _one_rank(*spec)
    replayed.replay()
    verify_timeline(replayed)
    starts, ends = replay_floats(oracle)
    assert replayed._starts[:, 0].tobytes() == starts.tobytes()
    assert replayed._ends[:, 0].tobytes() == ends.tobytes()
    assert _body(replayed._durations) == _body(oracle._durations)


# -- durations that are not >= 0 -----------------------------------------------------------


BAD = [float("nan"), -1.0, -math.inf]


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_event_kernel_rejects_a_bad_duration_at_submit(bad):
    stream = Stream(Simulator(), "s")
    stream.submit(1.0, name="ok")
    with pytest.raises(ValueError, match="'late'"):
        stream.submit(bad, name="late")


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_replay_rejects_a_bad_duration_at_submit(bad):
    timeline = Timeline()
    stream = timeline.stream("s")
    with pytest.raises(ValueError, match="'late'"):
        stream.submit(bad, name="late")
    with pytest.raises(ValueError, match="'late'"):
        stream.submit_collective(bad, name="late")
    with pytest.raises(ValueError, match="'ff.0.1'"):
        stream.submit_chain([1.0, bad, 1.0], None, "ff", ("ff", 0, range(3)))
    with pytest.raises(ValueError, match="'all_reduce.0.g1'"):
        stream.submit_collectives(
            [1.0, bad], None, "comm.ar",
            lambda position: (f"all_reduce.0.g{position}", {}),
        )
    assert timeline.slots_recorded == 0


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_lane_replay_rejects_a_bad_duration_at_submit(bad):
    timeline = Timeline(2)
    stream = timeline.stream("s")
    with pytest.raises(ValueError, match="'late'"):
        stream.submit(np.array([1.0, bad]), name="late")
    with pytest.raises(ValueError, match="'late'"):
        stream.submit_collective(bad, name="late")
    with pytest.raises(ValueError, match="'bp.0.0'"):
        stream.submit_chain(
            [np.array([1.0, 1.0]), np.array([bad, 1.0])], None, "bp",
            ("bp", 0, range(1, -1, -1)),
        )
    assert timeline.slots_recorded == 0


def test_collective_run_with_a_bad_body_is_rejected_by_both_engines(
        tiny_timing, ethernet_cost):
    groups = get_scheduler("wfbp").fusion_plan
    for context in (IterationContext, FastIterationContext):
        ctx = context(tiny_timing, ethernet_cost)
        plan = groups(ctx)
        with pytest.raises(ValueError, match=r"all_reduce\.0\.g0"):
            ctx.submit_collectives(
                "all_reduce", plan, 0, extras=[float("nan")] * len(plan)
            )


@pytest.mark.parametrize("fastpath", [True, False], ids=["replay", "event"])
def test_multirank_collective_with_a_bad_body_is_rejected(fastpath):
    context = (multirank.FastMultiRankContext if fastpath
               else multirank.MultiRankIterationContext)
    run = multirank._Run(
        "wfbp", get_model("resnet50"), cluster_10gbe(nodes=1, gpus_per_node=2),
        [1.0, 1.5], collapse=False, iteration_compute=0.03,
    )
    ctx = context(*run.args)
    with pytest.raises(ValueError, match=r"'all_reduce\.0\.late'"):
        ctx.submit_collective("all_reduce", 1e6, 0, "late", extra_time=-1.0)

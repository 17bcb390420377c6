"""Rank-class replay against the per-rank replay it compresses.

A multi-rank fast-path run replays one lane per rank class — ranks with
one compute profile — and expands to ranks only where a per-rank value
is read.  The oracle is the per-rank replay: the same
:class:`~repro.schedulers.multirank.FastMultiRankContext` given a
:class:`~repro.schedulers.multirank._RankDurations` with one class *per
rank*, duplicate scales and all, so the oracle has one lane per rank,
through the same code.

Over random worlds, scale patterns (a small pool of values in scrambled
rank order, zero allowed off rank 0), policies and timing-fault plans,
the two must agree exactly: every slot's expanded per-rank starts and
ends, the iteration times, the fault totals and the Chrome trace, byte
for byte.  Every replay also passes
:func:`tests.sim.invariants.verify_timeline`, whose rule 5 checks that
ranks of one profile share every start and end — on the oracle too,
where nothing forces it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.plan import LINK_SCOPES, FaultPlan, LinkFault, StragglerFault
from repro.network.presets import cluster_10gbe
from repro.schedulers.multirank import (
    POLICIES,
    _RankDurations,
    _Run,
    finalize_heterogeneous,
)
from repro.sim.fastpath import Timeline
from repro.sim.trace import Tracer
from tests.conftest import build_tiny_model
from tests.sim.invariants import verify_replays, verify_timeline

MODEL = build_tiny_model()
ITERATION_COMPUTE = 0.03
ITERATIONS = 4

#: Whole-run iteration times are ~0.1 s, so windows here cover a part.
_WINDOW_START = st.floats(0.0, 0.15)
_WINDOW_LENGTH = st.floats(0.005, 0.2)


@pytest.fixture(autouse=True)
def verified(monkeypatch):
    return verify_replays(monkeypatch)


@st.composite
def _stragglers(draw):
    start = draw(_WINDOW_START)
    return StragglerFault(
        start, start + draw(_WINDOW_LENGTH),
        compute_factor=draw(st.floats(0.5, 3.0)),
    )


@st.composite
def _link_faults(draw):
    start = draw(_WINDOW_START)
    return LinkFault(
        start, start + draw(_WINDOW_LENGTH),
        alpha_factor=draw(st.floats(1.0, 3.0)),
        beta_factor=draw(st.floats(1.0, 3.0)),
        link=draw(st.sampled_from(LINK_SCOPES)),
    )


@st.composite
def _cases(draw):
    """``(policy, gpus_per_node, scales, plan)`` for 2-64 ranks."""
    gpus = draw(st.sampled_from((1, 2, 4)))
    nodes = draw(st.integers(2 if gpus == 1 else 1, 64 // gpus))
    world = nodes * gpus
    pool = draw(st.lists(
        st.sampled_from((1.0, 1.1, 1.25, 1.6, 2.0, 0.7)),
        min_size=1, max_size=4, unique=True,
    ))
    if len(pool) > 1 and draw(st.booleans()):
        pool[-1] = 0.0  # a rank that computes nothing, never rank 0
    rank0 = draw(st.sampled_from([scale for scale in pool if scale > 0]))
    rest = draw(st.lists(
        st.sampled_from(pool), min_size=world - 1, max_size=world - 1
    ))
    plan = None
    if draw(st.booleans()):
        plan = FaultPlan(
            stragglers=tuple(draw(st.lists(_stragglers(), max_size=2))),
            link_faults=tuple(draw(st.lists(_link_faults(), max_size=2))),
        )
    return draw(st.sampled_from(POLICIES)), gpus, (rank0, *rest), plan


def _run(policy, cluster, scales, plan, per_rank: bool, trace: bool):
    """One replay; ``per_rank`` gives every rank a class of its own."""
    run = _Run(
        policy, MODEL, cluster, scales, faults=plan,
        iteration_compute=ITERATION_COMPUTE, iterations=ITERATIONS,
        collapse=False,
    )
    if per_rank:
        durations, cost = run.args
        run.args = (_RankDurations(
            durations.planning, np.array(run.compute_scales),
            np.arange(len(scales)), ITERATION_COMPUTE,
        ), cost)
    ctx = run.record(trace)
    ctx.run()
    result = finalize_heterogeneous(
        ctx, policy, MODEL, cluster, run.compute_scales, ITERATIONS
    )
    assert result.extras["engine"] == "multirank-fastpath"
    return ctx, result


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


@settings(deadline=None, max_examples=40)
@given(case=_cases())
@example(case=("dear", 4, (1.3, 0.0, 1.0, 1.3, 1.6, 1.0, 1.6, 1.3), FaultPlan(
    stragglers=(StragglerFault(0.0, 0.5, compute_factor=1.5),),
    link_faults=(LinkFault(0.1, 0.6, alpha_factor=2.0, beta_factor=3.0,
                           link="both"),),
)))
@example(case=("wfbp", 1, (1.0,) * 5, None))
def test_class_replay_equals_per_rank_replay(case):
    policy, gpus, scales, plan = case
    cluster = cluster_10gbe(nodes=len(scales) // gpus, gpus_per_node=gpus)
    lanes_ctx, lanes = _run(policy, cluster, scales, plan, False, True)
    ranks_ctx, ranks = _run(policy, cluster, scales, plan, True, True)
    assert lanes_ctx._timeline.lanes == len(set(scales))
    assert ranks_ctx._timeline.lanes == len(scales)

    handles = lanes_ctx._timeline._handles
    oracle = ranks_ctx._timeline._handles
    assert [h.name for h in handles] == [h.name for h in oracle]
    for left, right in zip(handles, oracle):
        assert left.starts.shape == (len(scales),)
        assert left.starts.tobytes() == right.starts.tobytes(), left.name
        assert left.ends.tobytes() == right.ends.tobytes(), left.name

    assert _hex(lanes.iteration_times) == _hex(ranks.iteration_times)
    assert lanes.extras.get("timing_faults") == ranks.extras.get("timing_faults")
    assert lanes.tracer.to_chrome_trace() == ranks.tracer.to_chrome_trace()

    # The untraced run measures the same.
    _, untraced = _run(policy, cluster, scales, plan, False, False)
    assert _hex(untraced.iteration_times) == _hex(ranks.iteration_times)
    assert untraced.extras.get("timing_faults") == ranks.extras.get("timing_faults")


def test_rank_zero_is_lane_zero_whatever_the_order(verified):
    """Rank 0's class comes first, so rank-0 reads take lane 0."""
    cluster = cluster_10gbe(nodes=2, gpus_per_node=4)
    scales = (2.0, 1.0, 1.0, 0.0, 2.0, 1.0, 1.25, 0.0)
    ctx, _ = _run("dear", cluster, scales, None, False, True)
    timeline = ctx._timeline
    assert timeline._inverse.tolist() == [0, 1, 1, 2, 0, 1, 3, 2]
    first_ff = ctx.ff_first_jobs[0]
    assert first_ff.start == first_ff.starts[0] == timeline._starts[first_ff.index, 0]
    np.testing.assert_array_equal(
        first_ff.starts, timeline._starts[first_ff.index][timeline._inverse]
    )
    assert verified == [timeline]


class TestLaneTimeline:
    def test_lanes_expand_to_ranks(self):
        timeline = Timeline(world=4, rank_lanes=[0, 1, 0, 1])
        assert timeline.lanes == 2 and timeline.jobs_recorded == 0
        stream = timeline.stream("compute")
        work = stream.submit(np.array([1.0, 3.0]), name="work")
        sync = stream.submit_collective(0.5)
        tracer = Tracer()
        assert timeline.replay(tracer) == 3.5
        assert timeline._starts.shape == (2, 2)
        assert work.ends.tolist() == [1.0, 3.0, 1.0, 3.0]
        assert sync.starts.tolist() == [1.0, 3.0, 1.0, 3.0]
        assert sync.ends.tolist() == [3.5] * 4
        assert work.rank_start(3) == 0.0 and sync.rank_start(3) == 3.0
        assert timeline.jobs_recorded == 8
        assert sorted((span.actor, span.end) for span in tracer.spans
                      if span.name == "work") == [
            ("rank0.compute", 1.0), ("rank1.compute", 3.0),
            ("rank2.compute", 1.0), ("rank3.compute", 3.0),
        ]
        verify_timeline(timeline)

    def test_identity_lanes_are_per_rank(self):
        timeline = Timeline(world=3, rank_lanes=[0, 1, 2])
        assert timeline.lanes == 3 and timeline._inverse is None
        assert timeline.signature() == Timeline(world=3).signature()

    def test_lane_count_is_part_of_the_signature(self):
        assert (Timeline(4, rank_lanes=[0, 1, 1, 1]).signature()
                == Timeline(4, rank_lanes=[0, 0, 0, 1]).signature())
        assert (Timeline(4, rank_lanes=[0, 1, 1, 1]).signature()
                != Timeline(4, rank_lanes=[0, 1, 2, 1]).signature())

    @pytest.mark.parametrize("rank_lanes", (
        [1, 0, 1, 0],      # rank 0 off lane 0
        [0, 2, 2, 0],      # lane 1 unused
        [0, 1, 1],         # one rank short
        [0, -1, 0, 0],     # negative lane
    ))
    def test_rejects_bad_lane_maps(self, rank_lanes):
        with pytest.raises(ValueError, match="rank_lanes"):
            Timeline(world=4, rank_lanes=rank_lanes)

    def test_slots_take_one_duration_per_lane(self):
        timeline = Timeline(world=4, rank_lanes=[0, 1, 1, 0])
        stream = timeline.stream("compute")
        with pytest.raises(ValueError, match="expected 2 durations"):
            stream.submit(np.ones(4))

    def test_rule_five_catches_a_rank_apart_from_its_class(self):
        timeline = Timeline(world=3)
        timeline.stream("compute").submit(np.array([1.0, 1.0, 2.0]))
        timeline.replay()
        verify_timeline(timeline, classes=[0, 0, 1])
        with pytest.raises(AssertionError, match="rank 2 starts|rank 2 ends"):
            verify_timeline(timeline, classes=[5, 5, 5])

"""Chain recording: whole FF/BP passes, per-stream gates, distance gates.

The fast-path recorder takes a scheduler's FF and BP passes as chains
(:meth:`~repro.sim.fastpath.Stream.submit_chain`), keeps one gate slot
per stream (:meth:`~repro.sim.fastpath.SimShim.all_of`) and stores gates
as backward distances so that tiling repeats them.  These tests pin
that all of it is invisible in results:

- a gate over every id and its per-stream reduced form replay to the
  same starts and ends, bit for bit;
- every fast-path policy, on every zoo model, healthy and faulted,
  traced and untraced, measures and traces exactly as the event kernel;
- a pass handle built after the replay reads the replay arrays;
- a tiled recording has a full recording's signature.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.sim.fastpath import DeferredDuration, Gate, Timeline
from tests.sim.invariants import verify_timeline

ITERATIONS = 4

#: One schedule-recording configuration of every registered policy
#: (DeAR's default BO mode runs many buffer-fusion schedules).
POLICIES = [
    (name, {"fusion": "buffer"} if name == "dear" else {})
    for name in SCHEDULER_NAMES
]

#: Faults whose windows open and close mid-run, so that placeholders
#: price both inside and outside them.
FAULTS = {
    "healthy": None,
    "slow_link": FaultPlan(link_faults=(
        LinkFault(0.05, 0.6, alpha_factor=2.5, beta_factor=2.5, link="both"),
    )),
    "straggler": FaultPlan(stragglers=(
        StragglerFault(0.05, 0.6, compute_factor=1.5),
    )),
}


# -- per-stream gate reduction -------------------------------------------------


@st.composite
def gated_timelines(draw):
    """A random multi-stream recording: per slot its stream, whether it
    is a collective, its durations and the earlier slots it waits on."""
    world = draw(st.integers(1, 3))
    streams = draw(st.integers(1, 3))
    durations = st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0, 0.1, 1e-9])
    slots = []
    for index in range(draw(st.integers(1, 24))):
        collective = world > 1 and draw(st.booleans())
        width = 1 if collective or world == 1 else world
        gate = (
            draw(st.lists(st.integers(0, index - 1), max_size=6))
            if index else []
        )
        slots.append((
            draw(st.integers(0, streams - 1)), collective,
            draw(st.lists(durations, min_size=width, max_size=width)), gate,
        ))
    return world, streams, slots


def _record(world, streams, slots, reduce: bool) -> Timeline:
    timeline = Timeline(world)
    lanes = [timeline.stream(f"s{sid}") for sid in range(streams)]
    for sid, collective, values, gate_ids in slots:
        gate = None
        if gate_ids:
            gate = (
                timeline.sim.all_of([Gate((gid,)) for gid in gate_ids])
                if reduce else Gate(tuple(gate_ids))
            )
        if collective:
            lanes[sid].submit_collective(values[0], gate=gate)
        else:
            body = values[0] if world == 1 else np.array(values)
            lanes[sid].submit(body, gate=gate)
    return timeline


@settings(deadline=None, max_examples=150)
@given(spec=gated_timelines())
def test_per_stream_gates_replay_like_full_gates(spec):
    world, streams, slots = spec
    full = _record(world, streams, slots, reduce=False)
    reduced = _record(world, streams, slots, reduce=True)
    for gate in reduced._gates:
        if gate is not None:
            assert len(gate) <= streams
    full.replay()
    reduced.replay()
    verify_timeline(reduced)
    assert reduced._starts.tobytes() == full._starts.tobytes()
    assert reduced._ends.tobytes() == full._ends.tobytes()


def test_all_of_keeps_the_latest_slot_of_each_stream():
    timeline = Timeline()
    first, second = timeline.stream("a"), timeline.stream("b")
    a0, b0, a1, b1 = (
        first.submit(1.0), second.submit(1.0), first.submit(1.0),
        second.submit(1.0),
    )
    gate = timeline.sim.all_of([a1.done, b0.done, a0.done, b1.done])
    assert sorted(gate.slot_ids) == [a1.index, b1.index]


# -- fast path against the event kernel ------------------------------------------


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("name,options", POLICIES,
                         ids=[name for name, _ in POLICIES])
def test_fast_path_equals_event_kernel(name, options, fault, traced):
    cost = CollectiveTimeModel(cluster_10gbe(nodes=2, gpus_per_node=4))
    mismatches = []
    for model in MODEL_NAMES:
        timing = TimingModel.for_model(get_model(model))
        runs = [
            get_scheduler(name, **options).run(
                timing, cost, iterations=ITERATIONS, faults=FAULTS[fault],
                fastpath=fastpath, trace=traced,
            )
            for fastpath in (True, False)
        ]
        fast, event = runs
        if fast.iteration_times != event.iteration_times:
            mismatches.append(f"{model}: iteration_times")
        if fast.extras != event.extras:
            mismatches.append(f"{model}: extras")
        if (fast.extras.get("timing_faults")
                != event.extras.get("timing_faults")):
            mismatches.append(f"{model}: timing_faults")
        if traced and (fast.tracer.to_chrome_trace()
                       != event.tracer.to_chrome_trace()):
            mismatches.append(f"{model}: chrome trace")
    assert mismatches == []


def test_every_registered_policy_is_compared():
    assert {name for name, _ in POLICIES} == set(SCHEDULER_NAMES)


# -- pass handles ------------------------------------------------------------------


def _recorded(scheduler, timing, cost, full: bool):
    """``scheduler`` recorded on the fast path: tiled, or every iteration."""
    with pytest.MonkeyPatch.context() as patch:
        if full:
            patch.setattr(FastIterationContext, "record",
                          IterationContext.record)
        return scheduler.record_fast(timing, cost, iterations=ITERATIONS)


def test_pass_handle_indexed_after_replay_reads_the_replay(tiny_timing,
                                                           ethernet_cost):
    ctx = FastIterationContext(tiny_timing, ethernet_cost)
    forward = ctx.submit_forward_pass(0)
    backward = ctx.submit_backward_pass(0)
    ctx.submit_collective(
        "all_reduce", 1e6, 0, "g0", gate=backward.done_of(range(len(backward)))
    )
    ctx.run()
    starts, ends = ctx._timeline._starts[:, 0], ctx._timeline._ends[:, 0]
    layers = tiny_timing.model.num_layers
    for layer in range(layers):
        for chain, slot in ((forward, layer),
                            (backward, 2 * layers - 1 - layer)):
            handle = chain[layer]
            assert handle.index == slot
            assert handle.start == starts[slot]
            assert handle.end == ends[slot]
            assert handle.metadata == {"iteration": 0, "layer": layer}
    assert backward[0].name == "bp.0.0"
    assert [job.name for job in forward] == [
        f"ff.0.{layer}" for layer in range(layers)
    ]


def test_done_of_gates_on_the_last_submitted_layer(tiny_timing,
                                                   ethernet_cost):
    ctx = FastIterationContext(tiny_timing, ethernet_cost)
    forward = ctx.submit_forward_pass(0)
    backward = ctx.submit_backward_pass(0)
    layers = tiny_timing.model.num_layers
    assert forward.done_of([0, 2, 1]).slot_ids == (2,)
    # BP runs last layer first: layer 0 is the pass's last slot.
    assert backward.done_of([3, 0, 5]).slot_ids == (2 * layers - 1,)


def test_untraced_passes_build_no_handles(tiny_timing, ethernet_cost):
    scheduler = get_scheduler("dear", fusion="buffer")
    ctx = _recorded(scheduler, tiny_timing, ethernet_cost, full=True)
    handles = ctx._timeline._handles
    # Only the first-FF handle of each iteration, read for measurement.
    built = [handle.name for handle in handles
             if handle is not None and handle.category in ("ff", "bp")]
    assert built == [f"ff.{iteration}.0" for iteration in range(ITERATIONS)]


# -- tiling ----------------------------------------------------------------------


@pytest.mark.parametrize("name,options", POLICIES,
                         ids=[name for name, _ in POLICIES])
def test_tiled_signature_equals_full_signature(name, options, tiny_timing,
                                               ethernet_cost):
    scheduler = get_scheduler(name, **options)
    tiled = _recorded(scheduler, tiny_timing, ethernet_cost, full=False)
    full = _recorded(scheduler, tiny_timing, ethernet_cost, full=True)
    assert tiled._timeline.slots_recorded > len(tiled._timeline._handles)
    assert tiled._timeline.signature() == full._timeline.signature()


# -- deferred durations ------------------------------------------------------------


class _Negative(DeferredDuration):
    def resolve(self, start):
        return -1.0


def test_negative_resolved_duration_is_rejected_by_the_float_loop():
    timeline = Timeline()
    stream = timeline.stream("s")
    stream.submit(1.0)
    stream.submit(_Negative())
    with pytest.raises(ValueError, match="slot 1"):
        timeline.replay()


def test_negative_resolved_duration_is_rejected_by_the_lane_loop():
    timeline = Timeline(2)
    stream = timeline.stream("s")
    stream.submit_collective(_Negative())
    with pytest.raises(ValueError, match="slot 0"):
        timeline.replay()

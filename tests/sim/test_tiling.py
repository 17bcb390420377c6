"""Periodic recording: two recorded iterations, tiled, equal a full recording.

A healthy, untraced fast-path run records iterations 0 and 1 through
the scheduler and tiles iteration 1's block for the rest
(:meth:`repro.schedulers.engine.FastIterationContext.record`).  This
suite records every fast-path scheduler both ways — tiled, and in full
(through the base :meth:`~repro.schedulers.engine.IterationContext.record`)
— over every zoo model, fusion plan, workload, fabric and algorithm, and
over the healthy multi-rank policies on an 8-rank skewed cluster.  Both ways must give the same
:meth:`~repro.sim.fastpath.Timeline.signature`, durations, start and
end arrays, result (``repr``-equal) and ``sim.stream.*`` counters, and
:func:`~repro.runner.executor.run_many` must return the same results.
Every replay here also passes :func:`tests.sim.invariants.verify_timeline`.
Tiling is only correct for a policy that is periodic from iteration 1,
so every registered fast-path scheduler must appear in :data:`CONFIGS`.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.autotuner import build_selection_table
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, paper_testbed
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.schedulers.multirank import POLICIES, _Run, finalize_heterogeneous
from repro.sim.fastpath import Timeline
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from repro.workloads import WORKLOAD_NAMES
from tests.sim.invariants import verify_timeline

ITERATIONS = 5

#: Every fast-path scheduler under each fusion plan that records one
#: schedule (the BO modes run many);
#: :func:`test_every_fast_path_scheduler_is_covered` keeps it complete.
CONFIGS = [
    ("serial", {}),
    ("wfbp", {}),
    ("wfbp", {"buffer_bytes": 25e6}),
    ("ddp", {}),
    ("horovod", {}),
    ("mg_wfbp", {}),
    ("bytescheduler", {}),
    ("bytescheduler", {"partition_bytes": 1e6}),
    ("dear", {"fusion": "none"}),
    ("dear", {"fusion": "layers"}),
    ("dear", {"fusion": "buffer"}),
    ("zero", {}),
    ("zero", {"buffer_bytes": None}),
]
CONFIG_IDS = [
    "-".join([name, *(f"{key}={value}" for key, value in options.items())])
    for name, options in CONFIGS
]
#: ``None`` is the classic layer-wise schedule.
WORKLOADS = (None, *WORKLOAD_NAMES)
FABRICS = ("10gbe", "100gbib")
ALGORITHMS = ("ring", "auto")

#: 8 ranks on two 4-GPU nodes, seeded compute skew (never uniform, so
#: the runs never collapse to one rank).
MULTIRANK_CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=4)
MULTIRANK_SCALES = tuple(
    float(scale)
    for scale in np.random.default_rng(3).uniform(1.0, 1.4, size=8)
)
MULTIRANK_MODELS = ("resnet50", "bert_base")


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


def _cost(fabric: str, algorithm: str, tables) -> CollectiveTimeModel:
    return CollectiveTimeModel(
        paper_testbed(fabric), algorithm=algorithm,
        table=tables[fabric] if algorithm == "auto" else None,
    )


def _durations(timeline: Timeline) -> list[bytes]:
    return [np.asarray(body).tobytes() for body in timeline._durations]


def _replay(ctx) -> dict:
    """Replay ``ctx`` under a fresh registry; its ``sim.stream.*`` totals."""
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    try:
        ctx.run()
    finally:
        reset_default_registry()
    verify_timeline(ctx._timeline)
    snapshot = fresh.snapshot()
    return {name: snapshot.get(name)
            for name in ("sim.stream.jobs", "sim.stream.busy_seconds")}


def _differences(tiled, full, measure) -> list[str]:
    """What differs between a tiled and a full recording of one run.

    ``measure(ctx)`` builds the run's result from a replayed context.
    """
    a, b = tiled._timeline, full._timeline
    if a.signature() != b.signature():
        return ["signature"]
    found = []
    if _durations(a) != _durations(b):
        found.append("durations")
    if a._categories != b._categories:
        found.append("categories")
    if ([s.jobs_submitted for s in a._streams]
            != [s.jobs_submitted for s in b._streams]):
        found.append("jobs_submitted")
    if _replay(tiled) != _replay(full):
        found.append("sim.stream counters")
    if a._starts.tobytes() != b._starts.tobytes():
        found.append("starts")
    if a._ends.tobytes() != b._ends.tobytes():
        found.append("ends")
    if repr(measure(tiled)) != repr(measure(full)):
        found.append("result")
    return found


@contextlib.contextmanager
def recording_in_full():
    """Within it, fast-path contexts record every iteration, untiled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastIterationContext, "record", IterationContext.record)
        yield


def test_every_fast_path_scheduler_is_covered():
    """A fast-path policy missing from CONFIGS would be tiled unchecked."""
    fast = {name for name in SCHEDULER_NAMES
            if get_scheduler(name).supports_fast_path}
    assert {name for name, _ in CONFIGS} == fast


@pytest.mark.parametrize("workload", WORKLOADS, ids=str)
@pytest.mark.parametrize("name,options", CONFIGS, ids=CONFIG_IDS)
def test_tiled_recording_equals_full_recording(name, options, workload,
                                               tables):
    mismatches = []
    for model, fabric, algorithm in itertools.product(
        MODEL_NAMES, FABRICS, ALGORITHMS
    ):
        timing = TimingModel.for_model(get_model(model))
        cost = _cost(fabric, algorithm, tables)
        scheduler = get_scheduler(name, **options)
        tiled = scheduler.record_fast(timing, cost, iterations=ITERATIONS,
                                      workload=workload)
        with recording_in_full():
            full = scheduler.record_fast(timing, cost, iterations=ITERATIONS,
                                         workload=workload)
        assert full._timeline.slots_recorded == len(full._timeline._handles)
        assert tiled._timeline.slots_recorded > len(tiled._timeline._handles)
        found = _differences(
            tiled, full, lambda ctx: scheduler.measure(ctx, ITERATIONS)
        )
        mismatches.extend(f"{model}/{fabric}/{algorithm}: {what}"
                          for what in found)
    assert mismatches == []


@pytest.mark.parametrize("workload", WORKLOADS, ids=str)
@pytest.mark.parametrize("fusion_buffer_bytes", [25e6, None],
                         ids=["fused", "per-tensor"])
@pytest.mark.parametrize("policy", POLICIES)
def test_multirank_tiled_recording_equals_full_recording(
    policy, fusion_buffer_bytes, workload
):
    mismatches = []
    for model in MULTIRANK_MODELS:
        runs = [
            _Run(policy, get_model(model), MULTIRANK_CLUSTER,
                 MULTIRANK_SCALES, fusion_buffer_bytes=fusion_buffer_bytes,
                 iterations=ITERATIONS, workload=workload, collapse=True)
            for _ in range(2)
        ]
        tiled = runs[0].record()
        with recording_in_full():
            full = runs[1].record()
        assert tiled._timeline.world == 8
        found = _differences(
            tiled, full,
            lambda ctx: finalize_heterogeneous(
                ctx, policy, runs[0].model, MULTIRANK_CLUSTER,
                MULTIRANK_SCALES, ITERATIONS,
            ),
        )
        mismatches.extend(f"{model}: {what}" for what in found)
    assert mismatches == []


def test_run_many_results_do_not_change(tables):
    """The batched runner over single- and multi-rank specs."""
    specs = [
        RunSpec.create(name, "resnet50", paper_testbed(fabric),
                       algorithm=algorithm, workload=workload,
                       tuned_table=tables[fabric] if algorithm == "auto" else None,
                       **options)
        for (name, options), workload, fabric, algorithm in itertools.product(
            CONFIGS, WORKLOADS, FABRICS, ALGORITHMS
        )
    ] + [
        RunSpec.create(policy, "resnet50", MULTIRANK_CLUSTER,
                       compute_scales=MULTIRANK_SCALES, workload=workload)
        for policy, workload in itertools.product(POLICIES, WORKLOADS)
    ]

    def results() -> list[str]:
        return [repr(result) for result in run_many(
            specs, jobs=1, cache=ResultCache(enabled=False)
        )]

    tiled = results()
    with recording_in_full():
        assert results() == tiled


# -- why a run is recorded in full ---------------------------------------------


def _counts(registry) -> tuple[dict, dict]:
    snapshot = registry.snapshot()

    def by(name, label):
        family = snapshot.get(name, {"values": []})
        return {value["labels"][label]: value["value"]
                for value in family["values"]}

    return by("sim.record.slots", "how"), by("sim.record.full", "reason")


class TestRecordMetrics:
    def test_healthy_run_records_two_iterations(self, registry, tiny_timing,
                                                ethernet_cost):
        ctx = get_scheduler("dear", fusion="none").record_fast(
            tiny_timing, ethernet_cost, iterations=ITERATIONS
        )
        slots, full = _counts(registry)
        block = ctx._timeline.slots_recorded // ITERATIONS
        assert slots == {"recorded": 2 * block,
                         "tiled": (ITERATIONS - 2) * block}
        assert full == {}

    def test_each_full_recording_names_its_reason(self, registry, tiny_timing,
                                                  ethernet_cost):
        dear = get_scheduler("dear", fusion="none")
        dear.run(tiny_timing, ethernet_cost, trace=True)
        dear.run(tiny_timing, ethernet_cost, faults=FaultPlan(
            stragglers=(StragglerFault(0.0, 1.0, compute_factor=1.5),)
        ))
        slots, full = _counts(registry)
        assert full == {"trace": 1, "faults": 1}
        assert slots["tiled"] == 0

    def test_aperiodic_dispatch_order_records_in_full(self, registry,
                                                     tables):
        """Four credit channels that take turns from one iteration to
        the next cannot tile; the run records in full and equals the
        event kernel's."""
        timing = TimingModel.for_model(get_model("resnet50"))
        cost = _cost("10gbe", "ring", tables)
        scheduler = get_scheduler("bytescheduler", credit=4)
        fast = scheduler.run(timing, cost, iterations=ITERATIONS)
        slots, full = _counts(registry)
        assert full == {"aperiodic": 1}
        assert slots["tiled"] == 0
        slow = scheduler.run(timing, cost, iterations=ITERATIONS,
                             fastpath=False)
        assert repr(fast) == repr(slow)

    def test_multirank_recordings_are_counted(self, registry, tiny_model):
        _Run("dear", tiny_model, MULTIRANK_CLUSTER, MULTIRANK_SCALES,
             iteration_compute=0.03, collapse=True).simulate()
        slots, full = _counts(registry)
        assert slots["tiled"] == 3 * slots["recorded"] / 2
        assert full == {}


def test_tracer_attached_after_a_tiled_recording_raises(tiny_timing,
                                                        ethernet_cost):
    """Spans need every slot's handle; a traced run records in full."""
    from repro.sim.trace import Tracer

    tiled = get_scheduler("wfbp").record_fast(
        tiny_timing, ethernet_cost, iterations=ITERATIONS
    )
    tiled.tracer = Tracer()
    with pytest.raises(RuntimeError, match="tiled"):
        tiled.run()


# -- the Timeline primitive and the invariants, on random schedules ------------


@st.composite
def periodic_schedules(draw):
    """One iteration's slots, repeated 2–6 times.

    Each slot: ``(stream, collective, durations, gates)`` where a gate is
    ``(iterations back, slot)``: 0 for an earlier slot of the same
    iteration, 1 for any slot of the previous one (skipped in
    iteration 0).
    """
    world = draw(st.integers(1, 3))
    streams = draw(st.integers(1, 3))
    durations = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
    block = []
    size = draw(st.integers(1, 8))
    for index in range(size):
        collective = world > 1 and draw(st.booleans())
        width = 1 if collective or world == 1 else world
        values = draw(st.lists(durations, min_size=width, max_size=width))
        gates = []
        if index and draw(st.booleans()):
            gates.append((0, draw(st.integers(0, index - 1))))
        if draw(st.booleans()):
            gates.append((1, draw(st.integers(0, size - 1))))
        block.append(
            (draw(st.integers(0, streams - 1)), collective, values, gates)
        )
    return world, streams, block, draw(st.integers(2, 6))


def _record_iterations(world, streams, block, iterations) -> Timeline:
    timeline = Timeline(world)
    lanes = [timeline.stream(f"s{sid}") for sid in range(streams)]
    handles = []
    for iteration in range(iterations):
        base = iteration * len(block)
        for sid, collective, values, gates in block:
            done = [handles[base - back * len(block) + slot].done
                    for back, slot in gates
                    if base - back * len(block) >= 0]
            gate = timeline.sim.all_of(done) if done else None
            if collective:
                handles.append(lanes[sid].submit_collective(values[0], gate=gate))
            else:
                body = values[0] if world == 1 else np.array(values)
                handles.append(lanes[sid].submit(body, gate=gate))
    return timeline


class TestTimelineTile:
    @settings(deadline=None, max_examples=80)
    @given(spec=periodic_schedules())
    def test_tiling_equals_recording_every_iteration(self, spec):
        world, streams, block, iterations = spec
        full = _record_iterations(world, streams, block, iterations)
        tiled = _record_iterations(world, streams, block, 2)
        assert tiled.tile(len(block), iterations - 2) == len(block)
        assert tiled.signature() == full.signature()
        assert _durations(tiled) == _durations(full)
        assert ([s.jobs_submitted for s in tiled._streams]
                == [s.jobs_submitted for s in full._streams])
        tiled.replay()
        full.replay()
        verify_timeline(full)
        verify_timeline(tiled)
        assert tiled._starts.tobytes() == full._starts.tobytes()
        assert tiled._ends.tobytes() == full._ends.tobytes()

    def test_tiled_slots_have_no_handles(self):
        timeline = _record_iterations(1, 1, [(0, False, [1.0], [])], 2)
        timeline.tile(1, 3)
        assert timeline.slots_recorded == 5
        assert len(timeline._handles) == 2
        timeline.replay()
        with pytest.raises(RuntimeError, match="tiled"):
            timeline.emit_spans(None)

    def test_deferred_durations_are_not_tiled(self):
        from repro.sim.fastpath import DeferredDuration

        class Slowed(DeferredDuration):
            def resolve(self, start):
                return 1.0

        timeline = Timeline()
        stream = timeline.stream("s")
        stream.submit(Slowed())
        stream.submit(Slowed())
        with pytest.raises(ValueError, match="deferred"):
            timeline.tile(1, 1)

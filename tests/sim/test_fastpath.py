"""Vectorized-replay tests: unit coverage plus the differential suite.

The differential tests are the contract of this subsystem: for every
static-gate scheduler policy, the fast path must produce *the same
simulated timeline* as the event-driven kernel — identical iteration
times, exposed-communication breakdowns, and span sets — so enabling it
can never change a scientific result, only how fast it is computed.
Tolerances are 1e-9 relative: the two paths sum the same durations in
different associations, which is a ~1e-15 effect.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import SCHEDULER_NAMES, Scheduler, get_scheduler
from repro.schedulers.multirank import record_heterogeneous_fast
from repro.sim.engine import Simulator
from repro.sim.fastpath import (
    FastPathUnsupported,
    Timeline,
    _replay_floats,
    _replay_lanes,
    replay,
)
from repro.sim.resources import Stream
from repro.sim.trace import Tracer
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)

REL = 1e-9

#: Policies that must take the fast path: every registered one.
FAST_SCHEDULERS = (
    "serial", "wfbp", "ddp", "horovod", "mg_wfbp", "bytescheduler", "dear",
    "zero",
)


def _rel_equal(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1.0)


# -- one-rank Timeline unit tests ---------------------------------------------


class TestFastTimeline:
    def test_empty_replay(self):
        timeline = Timeline()
        timeline.stream("compute")
        assert timeline.replay() == 0.0

    def test_single_stream_is_sequential(self):
        timeline = Timeline()
        stream = timeline.stream("compute")
        jobs = [stream.submit(d) for d in (1.0, 2.0, 3.0)]
        assert timeline.replay() == 6.0
        assert [j.start for j in jobs] == [0.0, 1.0, 3.0]
        assert [j.end for j in jobs] == [1.0, 3.0, 6.0]

    def test_timestamps_none_before_replay(self):
        timeline = Timeline()
        job = timeline.stream("compute").submit(1.0)
        assert job.start is None and job.end is None

    def test_cross_stream_gate_stalls(self):
        timeline = Timeline()
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = compute.submit(2.0)
        b = comm.submit(1.0, gate=a.done)
        c = comm.submit(1.0)
        assert timeline.replay() == 4.0
        assert b.start == 2.0 and b.end == 3.0 and c.end == 4.0

    def test_all_of_combines_gates(self):
        timeline = Timeline()
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = compute.submit(1.0)
        b = compute.submit(3.0)
        c = comm.submit(0.5, gate=timeline.sim.all_of([a.done, b.done]))
        timeline.replay()
        assert c.start == 4.0 and c.end == 4.5

    def test_gate_already_passed_is_free(self):
        timeline = Timeline()
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = comm.submit(0.5)
        b = compute.submit(2.0)
        c = compute.submit(1.0, gate=a.done)
        timeline.replay()
        assert c.start == 2.0 and b.end == 2.0

    def test_zero_duration_jobs_and_spans(self):
        timeline = Timeline()
        stream = timeline.stream("compute", actor="gpu")
        stream.submit(1.0, name="work")
        stream.submit(0.0, name="marker")
        tracer = Tracer()
        assert timeline.replay(tracer) == 1.0
        assert [span.name for span in tracer.spans] == ["work"]

    def test_wait_event_matches_stream_semantics(self):
        """A zero-duration gated job is ``cudaStreamWaitEvent``."""
        timeline = Timeline()
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = comm.submit(3.0)
        compute.submit(1.0)
        compute.submit(0.0, name="wait", gate=a.done)
        tail = compute.submit(1.0)
        timeline.replay()
        assert tail.start == 3.0

    def test_dynamic_features_raise(self):
        timeline = Timeline()
        stream = timeline.stream("compute")
        with pytest.raises(FastPathUnsupported):
            timeline.sim.event()
        with pytest.raises(FastPathUnsupported):
            timeline.sim.process(iter(()))
        with pytest.raises(FastPathUnsupported):
            timeline.sim.schedule(1.0, lambda: None)
        with pytest.raises(FastPathUnsupported):
            stream.submit(lambda: 1.0)
        with pytest.raises(FastPathUnsupported):
            stream.submit((d for d in (1.0,)))
        with pytest.raises(FastPathUnsupported):
            stream.submit(1.0, gate=object())

    def test_negative_duration_rejected(self):
        timeline = Timeline()
        with pytest.raises(ValueError):
            timeline.stream("compute").submit(-1.0)

    def test_randomized_against_event_kernel(self):
        """Random static schedules: replay == event kernel, span for span."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            n_jobs = int(rng.integers(1, 120))
            durations = rng.uniform(0.0, 2.0, size=n_jobs)
            durations[rng.uniform(size=n_jobs) < 0.2] = 0.0
            stream_ids = rng.integers(0, 2, size=n_jobs)
            gate_sets: list[list[int]] = []
            for index in range(n_jobs):
                if index and rng.uniform() < 0.4:
                    count = int(rng.integers(1, min(index, 4) + 1))
                    gate_sets.append(
                        list(rng.choice(index, size=count, replace=False))
                    )
                else:
                    gate_sets.append([])

            timeline = Timeline()
            fast_streams = [timeline.stream("s0"), timeline.stream("s1")]
            fast_jobs = []
            for index in range(n_jobs):
                gate = None
                if gate_sets[index]:
                    gate = timeline.sim.all_of(
                        [fast_jobs[g].done for g in gate_sets[index]]
                    )
                fast_jobs.append(
                    fast_streams[stream_ids[index]].submit(
                        float(durations[index]), name=f"j{index}", gate=gate
                    )
                )
            fast_final = timeline.replay()

            sim = Simulator()
            streams = [Stream(sim, "s0"), Stream(sim, "s1")]
            jobs = []
            for index in range(n_jobs):
                gate = None
                if gate_sets[index]:
                    gate = sim.all_of([jobs[g].done for g in gate_sets[index]])
                jobs.append(
                    streams[stream_ids[index]].submit(
                        float(durations[index]), name=f"j{index}", gate=gate
                    )
                )
            event_final = sim.run()

            assert _rel_equal(fast_final, event_final)
            for fast_job, job in zip(fast_jobs, jobs):
                assert _rel_equal(fast_job.start, job.start)
                assert _rel_equal(fast_job.end, job.end)

    @pytest.mark.parametrize("kind", ("solo", "tiled", "multirank", "batched"))
    def test_recording_is_freed_without_the_cycle_collector(
        self, kind, tiny_model, tiny_timing, ethernet_cost
    ):
        """Streams, handles and the shim refer to their timeline weakly,
        so dropping the context frees the recording by reference
        counting alone; a handle outliving it raises on read."""
        scheduler = get_scheduler("dear", fusion="buffer")
        gc.collect()
        gc.disable()
        try:
            if kind == "multirank":
                contexts = [record_heterogeneous_fast(
                    "dear", tiny_model, cluster_10gbe(nodes=2, gpus_per_node=2),
                    [1.0, 1.3, 1.0, 1.6], iteration_compute=0.03,
                )]
            else:
                # The solo recording carries timing faults.
                faults = FaultPlan(stragglers=(StragglerFault(0.0, 0.1),))
                contexts = [
                    scheduler.record_fast(
                        tiny_timing, ethernet_cost, iterations=5,
                        faults=faults if kind == "solo" else None,
                    )
                    for _ in range(2 if kind == "batched" else 1)
                ]
            refs = [weakref.ref(ctx._timeline) for ctx in contexts]
            replay([ctx._timeline for ctx in contexts],
                   [ctx.tracer for ctx in contexts])
            for ctx in contexts:
                ctx.finish()
            handle = contexts[0].ff_first_jobs[0]
            assert handle.start is not None
            del ctx, contexts
            assert [ref() for ref in refs] == [None] * len(refs)
            with pytest.raises(RuntimeError, match=handle.name):
                handle.start
        finally:
            gc.enable()


class TestFastPathToggle:
    def test_every_registered_policy_takes_the_fast_path(
        self, tiny_timing, ethernet_cost
    ):
        assert set(FAST_SCHEDULERS) == set(SCHEDULER_NAMES)
        registry = MetricsRegistry()
        set_default_registry(registry)
        try:
            for name in FAST_SCHEDULERS:
                get_scheduler(name).run(tiny_timing, ethernet_cost)
        finally:
            reset_default_registry()
        runs = registry.snapshot()["sim.runs"]["values"]
        assert [run["labels"] for run in runs] == [{"engine": "fastpath"}]

    def test_dynamic_scheduler_raises_on_the_fast_path(self, tiny_timing,
                                                       ethernet_cost):
        """A dynamic schedule is an error on the fast path, never a
        silent fall back; it runs on the event kernel when asked."""

        class DynamicScheduler(Scheduler):
            name = "dynamic-test"

            def schedule(self, ctx, iterations):
                for iteration in range(iterations):
                    gate = ctx.sim.event()  # unsupported by the recorder
                    gate.succeed()
                    ctx.submit_forward_pass(iteration, first_gate=gate)
                    ctx.submit_backward_pass(iteration)

        with pytest.raises(FastPathUnsupported, match="sim.event"):
            DynamicScheduler().run(tiny_timing, ethernet_cost)
        result = DynamicScheduler().run(tiny_timing, ethernet_cost,
                                        fastpath=False)
        serial = get_scheduler("serial").run(tiny_timing, ethernet_cost)
        assert result.iteration_time == pytest.approx(
            tiny_timing.t_ff + tiny_timing.t_bp, rel=REL)
        assert result.iteration_time < serial.iteration_time


# -- differential suite: schedulers x workloads --------------------------------


def _run_both(scheduler_name, timing, cost, **options):
    fast = get_scheduler(scheduler_name, **options).run(
        timing, cost, fastpath=True, trace=True
    )
    slow = get_scheduler(scheduler_name, **options).run(
        timing, cost, fastpath=False, trace=True
    )
    return fast, slow


def _assert_equivalent(fast, slow):
    assert _rel_equal(fast.iteration_time, slow.iteration_time)
    for a, b in zip(fast.iteration_times, slow.iteration_times):
        assert _rel_equal(a, b)
    assert _rel_equal(fast.exposed_comm, slow.exposed_comm)
    assert _rel_equal(fast.exposed_rs, slow.exposed_rs)
    assert _rel_equal(fast.exposed_ag, slow.exposed_ag)
    # Same spans, up to ordering (the event kernel emits in completion
    # order, the replay in submission order).
    fast_spans = sorted(
        fast.tracer.spans, key=lambda s: (s.start, s.end, s.actor, s.name)
    )
    slow_spans = sorted(
        slow.tracer.spans, key=lambda s: (s.start, s.end, s.actor, s.name)
    )
    assert len(fast_spans) == len(slow_spans)
    for a, b in zip(fast_spans, slow_spans):
        assert a.name == b.name
        assert a.category == b.category
        assert a.actor == b.actor
        assert _rel_equal(a.start, b.start)
        assert _rel_equal(a.end, b.end)


@pytest.mark.parametrize("scheduler", FAST_SCHEDULERS)
class TestDifferentialTiny:
    def test_ethernet(self, scheduler, tiny_timing, ethernet_cost):
        fast, slow = _run_both(scheduler, tiny_timing, ethernet_cost)
        _assert_equivalent(fast, slow)

    def test_infiniband(self, scheduler, tiny_timing, infiniband_cluster):
        cost = CollectiveTimeModel(infiniband_cluster)
        fast, slow = _run_both(scheduler, tiny_timing, cost)
        _assert_equivalent(fast, slow)


@pytest.mark.parametrize("scheduler", FAST_SCHEDULERS)
@pytest.mark.parametrize("model_fixture", ["resnet50", "bert_base"])
def test_differential_zoo_models(
    scheduler, model_fixture, ethernet_cost, request
):
    model = request.getfixturevalue(model_fixture)
    timing = TimingModel.for_model(model)
    fast, slow = _run_both(scheduler, timing, ethernet_cost)
    _assert_equivalent(fast, slow)


@pytest.mark.parametrize(
    "options",
    [
        {"fusion": "none"},
        {"fusion": "layers", "layers_per_group": 3},
        {"fusion": "buffer", "buffer_bytes": 5e6},
        {"fusion": "bo", "bo_trials": 5},
    ],
    ids=lambda options: options["fusion"],
)
def test_differential_dear_fusion_plans(
    options, tiny_timing, ethernet_cost
):
    fast, slow = _run_both("dear", tiny_timing, ethernet_cost, **options)
    _assert_equivalent(fast, slow)


@pytest.mark.parametrize("scheduler", FAST_SCHEDULERS)
def test_differential_chrome_trace_byte_for_byte(
    scheduler, tiny_timing, ethernet_cost
):
    """The exported trace files are *identical*, not merely equivalent.

    The replay performs the same float operations in the same order as
    the event kernel (seeded-cumsum left folds for gateless runs, the
    exact scalar recurrence at gates), so its timestamps are
    bit-identical — and the serialised trace must therefore be
    byte-for-byte equal, not just within tolerance.
    """
    fast, slow = _run_both(scheduler, tiny_timing, ethernet_cost)
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


# -- lane-count selection: both replay loops agree bit for bit -----------------

#: Every fast-path scheduler, DeAR under each fusion that records one
#: schedule (BO mode runs many).
RECORDABLE = [(name, {}) for name in FAST_SCHEDULERS if name != "dear"] + [
    ("dear", {"fusion": fusion}) for fusion in ("none", "layers", "buffer")
]
LANE_FAULTS = FaultPlan(
    stragglers=(StragglerFault(0.02, 0.4, compute_factor=1.7),),
    link_faults=(LinkFault(0.04, 0.5, alpha_factor=2.0, beta_factor=3.0,
                           link="both"),),
)


@pytest.mark.parametrize("faults", [None, LANE_FAULTS], ids=["healthy", "faulted"])
@pytest.mark.parametrize(
    "scheduler,options", RECORDABLE,
    ids=[f"{name}-{options.get('fusion', '')}" for name, options in RECORDABLE],
)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_numpy_loop_matches_float_loop_on_one_lane(
    model, scheduler, options, faults, ethernet_cost
):
    """replay() runs one lane on the float loop and more on the numpy
    loop; forced onto one lane, the numpy loop must produce the float
    loop's timestamps exactly (deferred durations resolve in place, so
    each loop gets its own recording)."""
    timing = TimingModel.for_model(get_model(model))

    def record():
        return get_scheduler(scheduler, **options).record_fast(
            timing, ethernet_cost, iterations=3, faults=faults
        )._timeline

    float_starts, float_ends = _replay_floats(record())
    lane_starts, lane_ends = _replay_lanes([record()])
    assert float_starts.tobytes() == lane_starts[:, 0, 0].tobytes()
    assert float_ends.tobytes() == lane_ends[:, 0, 0].tobytes()

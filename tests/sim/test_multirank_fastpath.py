"""Rank-axis replay tests: unit coverage plus the differential suite.

The contract mirrors ``tests/sim/test_fastpath.py`` one axis up: for
every supported policy, scale pattern, and fault plan, the multi-rank
fast path must reproduce the per-rank event kernel's timeline — not
merely within tolerance but *bit-for-bit* (byte-identical exported
traces), because the replay performs the same float operations in the
same order.  Enabling it can never change a scientific result.  Every
multi-rank replay here also passes
:func:`tests.sim.invariants.verify_timeline`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.network.presets import cluster_10gbe
from repro.schedulers.multirank import (
    POLICIES,
    _Run,
    simulate_heterogeneous,
)
from repro.sim.fastpath import FastPathUnsupported, Timeline
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from tests.conftest import build_tiny_model
from tests.sim.invariants import verify_replays

CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=2)  # 4 ranks, fast tests

SCALE_PATTERNS = {
    "uniform": [1.0] * 4,
    "ramp": [1.0, 1.1, 1.2, 1.3],
    "straggler": [1.0, 1.0, 1.0, 1.6],
}

FAULTY = FaultPlan(
    stragglers=(StragglerFault(0.0, 0.5, compute_factor=1.5),),
    link_faults=(LinkFault(0.1, 0.6, alpha_factor=2.0, beta_factor=3.0,
                           link="both"),),
)


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_model()


@pytest.fixture(autouse=True)
def verified(monkeypatch):
    return verify_replays(monkeypatch)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


# -- multi-rank Timeline unit tests -------------------------------------------


class TestMultiRankTimeline:
    def test_empty_replay(self):
        timeline = Timeline(world=3)
        timeline.stream("compute")
        assert timeline.replay() == 0.0

    def test_per_rank_slots_are_sequential_per_rank(self):
        timeline = Timeline(world=2)
        stream = timeline.stream("compute")
        a = stream.submit(np.array([1.0, 2.0]))
        b = stream.submit(np.array([3.0, 1.0]))
        assert timeline.replay() == 4.0
        assert a.starts.tolist() == [0.0, 0.0]
        assert a.ends.tolist() == [1.0, 2.0]
        assert b.starts.tolist() == [1.0, 2.0]
        assert b.ends.tolist() == [4.0, 3.0]
        assert b.rank_start(1) == 2.0

    def test_collective_rendezvous_at_last_arrival(self):
        timeline = Timeline(world=3)
        stream = timeline.stream("comm")
        stream.submit(np.array([1.0, 4.0, 2.0]))
        coll = stream.submit_collective(0.5)
        timeline.replay()
        # Every rank arrives at its own time; the collective starts at
        # the last arrival and all ranks share one end.
        assert coll.starts.tolist() == [1.0, 4.0, 2.0]
        assert coll.ends.tolist() == [4.5, 4.5, 4.5]

    def test_cross_stream_gate_is_per_rank(self):
        timeline = Timeline(world=2)
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = compute.submit(np.array([2.0, 5.0]))
        b = comm.submit(np.array([1.0, 1.0]), gate=a.done)
        timeline.replay()
        assert b.starts.tolist() == [2.0, 5.0]
        assert b.ends.tolist() == [3.0, 6.0]

    def test_all_of_combines_slot_gates(self):
        timeline = Timeline(world=2)
        compute = timeline.stream("compute")
        comm = timeline.stream("comm")
        a = compute.submit(np.array([1.0, 2.0]))
        b = comm.submit(np.array([3.0, 1.0]))
        gate = timeline.sim.all_of([a.done, b.done])
        c = comm.submit(np.array([1.0, 1.0]), gate=gate)
        timeline.replay()
        assert c.starts.tolist() == [3.0, 2.0]

    def test_track_names_are_built_when_spans_read_them(self):
        """An untraced recording formats no per-rank track names."""
        from repro.sim.trace import Tracer

        timeline = Timeline(world=3, rank_lanes=[0, 1, 0])
        stream = timeline.stream("compute")
        stream.submit(np.array([1.0, 2.0]))
        timeline.replay()
        assert stream._actors is None
        tracer = Tracer()
        timeline.emit_spans(tracer)
        assert stream.actors == ["rank0.compute", "rank1.compute",
                                 "rank2.compute"]
        assert [span.actor for span in tracer.spans] == stream.actors

    def test_job_accounting(self):
        timeline = Timeline(world=4)
        stream = timeline.stream("compute")
        stream.submit(np.ones(4))
        stream.submit_collective(1.0)
        assert timeline.slots_recorded == 2
        assert timeline.jobs_recorded == 8

    def test_timestamps_none_before_replay(self):
        timeline = Timeline(world=2)
        job = timeline.stream("compute").submit(np.ones(2))
        assert job.starts is None and job.ends is None
        with pytest.raises(RuntimeError, match="not been replayed"):
            job.rank_start(0)

    def test_replay_emits_per_rank_spans(self):
        from repro.sim.trace import Tracer

        timeline = Timeline(world=2)
        stream = timeline.stream("compute")
        stream.submit(np.array([1.0, 2.0]), name="work")
        tracer = Tracer()
        timeline.replay(tracer)
        assert sorted(span.actor for span in tracer.spans) == [
            "rank0.compute", "rank1.compute",
        ]

    def test_dynamic_features_raise(self):
        timeline = Timeline(world=2)
        stream = timeline.stream("compute")
        with pytest.raises(FastPathUnsupported):
            timeline.sim.event()
        with pytest.raises(FastPathUnsupported):
            timeline.sim.process(iter(()))
        with pytest.raises(FastPathUnsupported):
            timeline.sim.schedule(1.0, lambda: None)
        with pytest.raises(FastPathUnsupported):
            stream.submit([1.0, 2.0])  # list, not a (world,) vector
        with pytest.raises(FastPathUnsupported):
            stream.submit(np.ones(2), gate=object())
        with pytest.raises(FastPathUnsupported):
            stream.submit_collective(lambda: 1.0)

    def test_validation_errors(self):
        timeline = Timeline(world=2)
        stream = timeline.stream("compute")
        with pytest.raises(ValueError, match="expected 2 durations"):
            stream.submit(np.ones(3))
        with pytest.raises(ValueError, match="negative"):
            stream.submit(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="negative"):
            stream.submit_collective(-1.0)
        with pytest.raises(ValueError):
            Timeline(world=0)

    def test_randomized_against_slot_recurrence(self):
        """Random slot mixes: replay matches a naive per-slot reference."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            world = int(rng.integers(2, 6))
            n_slots = int(rng.integers(1, 60))
            timeline = Timeline(world)
            streams = [timeline.stream("s0"), timeline.stream("s1")]
            handles = []
            ref_prev = [np.zeros(world), np.zeros(world)]
            ref = []
            for index in range(n_slots):
                sid = int(rng.integers(0, 2))
                gate_ids = []
                if index and rng.uniform() < 0.4:
                    count = int(rng.integers(1, min(index, 3) + 1))
                    gate_ids = list(rng.choice(index, size=count, replace=False))
                gate = None
                if gate_ids:
                    gate = timeline.sim.all_of(
                        [handles[g].done for g in gate_ids]
                    )
                arrive = ref_prev[sid].copy()
                for gid in gate_ids:
                    arrive = np.maximum(arrive, ref[gid])
                if rng.uniform() < 0.3:
                    duration = float(rng.uniform(0.0, 2.0))
                    handles.append(
                        streams[sid].submit_collective(duration, gate=gate)
                    )
                    ref_ends = np.full(world, arrive.max() + duration)
                else:
                    durations = rng.uniform(0.0, 2.0, size=world)
                    handles.append(streams[sid].submit(durations, gate=gate))
                    ref_ends = arrive + durations
                ref.append(ref_ends)
                ref_prev[sid] = ref_ends
            timeline.replay()
            for handle, expected in zip(handles, ref):
                np.testing.assert_allclose(handle.ends, expected, rtol=1e-12)


# -- differential suite: policies x scale patterns -----------------------------


def _run_both(policy, model, scales, **kwargs):
    kwargs.setdefault("iteration_compute", 0.03)
    fast, slow = (
        _Run(policy, model, CLUSTER, scales, collapse=False, **kwargs).simulate(
            fastpath=fastpath, trace=True
        )
        for fastpath in (True, False)
    )
    return fast, slow


def _assert_identical(fast, slow):
    assert fast.extras["engine"] == "multirank-fastpath"
    assert slow.extras["engine"] == "multirank-event"
    # Bit-equality, not approx: both engines perform the same float
    # operations in the same order.
    assert fast.iteration_times == slow.iteration_times
    assert fast.iteration_time == slow.iteration_time
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


@pytest.mark.parametrize("scales", SCALE_PATTERNS.values(),
                         ids=SCALE_PATTERNS.keys())
@pytest.mark.parametrize("policy", POLICIES)
class TestDifferentialPolicies:
    def test_fused(self, policy, scales, tiny):
        fast, slow = _run_both(policy, tiny, scales)
        _assert_identical(fast, slow)


@pytest.mark.parametrize("policy", ("wfbp", "dear"))
def test_differential_no_fusion(policy, tiny):
    fast, slow = _run_both(
        policy, tiny, SCALE_PATTERNS["ramp"], fusion_buffer_bytes=None
    )
    _assert_identical(fast, slow)


@pytest.mark.parametrize("faults", (None, FAULTY), ids=("healthy", "faulty"))
@pytest.mark.parametrize("policy", ("wfbp", "dear"))
def test_differential_one_rank(policy, faults, tiny):
    """A one-rank cluster records plain floats and still matches the
    per-rank event kernel, rank-prefixed trace tracks included."""
    one = cluster_10gbe(nodes=1, gpus_per_node=1)
    results = [
        _Run(
            policy, tiny, one, [1.2], faults=faults, iteration_compute=0.03, collapse=False,
        ).simulate(fastpath=fastpath, trace=True)
        for fastpath in (True, False)
    ]
    _assert_identical(*results)
    trace = json.loads(results[0].tracer.to_chrome_trace())
    assert any(event.get("args", {}).get("name") == "rank0.compute"
               for event in trace["traceEvents"])


@pytest.mark.parametrize("policy", ("wfbp", "horovod", "dear"))
def test_differential_with_timing_faults(policy, tiny):
    """Faulty runs stay vectorized and still match the event kernel —
    including the fault accounting, which both engines accumulate in
    bit-identical order."""
    fast, slow = _run_both(policy, tiny, SCALE_PATTERNS["ramp"], faults=FAULTY)
    _assert_identical(fast, slow)
    assert fast.extras["timing_faults"] == slow.extras["timing_faults"]
    assert fast.extras["fault_plan"] == FAULTY.label()
    # The faults actually fired (the trace carries instant markers).
    trace = json.loads(fast.tracer.to_chrome_trace())
    assert [e for e in trace["traceEvents"] if e.get("ph") == "i"]


def test_faults_route_through_fastpath_engine(registry, tiny):
    simulate_heterogeneous(
        "dear", tiny, CLUSTER, SCALE_PATTERNS["ramp"], faults=FAULTY,
        iteration_compute=0.03, fastpath=True,
    )
    runs = registry.counter("sim.runs")
    assert runs.value(engine="multirank-fastpath") > 0
    assert runs.value(engine="multirank-event") == 0


# -- rank classes ---------------------------------------------------------------


def test_one_profile_per_distinct_scale(monkeypatch, registry, tiny):
    """A 1024-rank run builds its class profiles in one pass, one row per
    distinct compute scale, not one per rank, and reports its class
    count."""
    from repro.schedulers import multirank

    rows = []
    profile_times = multirank.profile_times

    def counting(*args, **kwargs):
        rows.append(len(kwargs["scales"]))
        return profile_times(*args, **kwargs)

    monkeypatch.setattr(multirank, "profile_times", counting)
    cluster = cluster_10gbe(nodes=256, gpus_per_node=4)
    rng = np.random.default_rng(3)
    scales = [1.0] * cluster.world_size
    for rank in rng.choice(cluster.world_size, size=40, replace=False):
        scales[rank] = float(rng.choice([1.1, 1.25, 1.5, 2.0]))
    result = simulate_heterogeneous(
        "dear", tiny, cluster, scales, iteration_compute=0.03
    )
    assert result.extras["engine"] == "multirank-fastpath"
    assert rows == [len(set(scales))] == [5]
    classes = registry.histogram("sim.multirank.rank_classes").labels()
    assert (classes.count, classes.total) == (1, 5)


class TestRankClasses:
    """Ranks are classed by compute scale value, not by object."""

    def _durations(self, tiny, scales):
        durations, _ = _Run(
            "wfbp", tiny, cluster_10gbe(nodes=len(scales), gpus_per_node=1),
            scales, iteration_compute=0.03, collapse=False,
        ).args
        return durations

    def test_classes_in_first_appearance_order(self, tiny):
        durations = self._durations(tiny, [1.5, 1.0, 2.0, 1.0, 1.5, 1.25])
        assert durations.scales.tolist() == [1.5, 1.0, 2.0, 1.25]
        assert durations.inverse.tolist() == [0, 1, 2, 1, 0, 3]

    def test_rank_zero_is_in_class_zero(self, tiny):
        durations = self._durations(tiny, [2.0, 1.0, 1.0, 0.5])
        assert durations.inverse[0] == 0 and durations.scales[0] == 2.0
        planning = durations.planning.profile
        assert tuple(durations.ff_times[0].tolist()) == planning.ff_times
        assert tuple(durations.bp_times[0].tolist()) == planning.bp_times

    def test_signed_zeros_share_a_class(self, tiny):
        durations = self._durations(tiny, [1.0, -0.0, 1.2, 0.0, -0.0])
        assert durations.inverse.tolist() == [0, 1, 2, 1, 1]
        # The class takes its first rank's value, as a dict keyed by
        # scale would.
        assert np.signbit(durations.scales[1])

    def test_class_rows_are_the_single_scale_profiles(self, tiny):
        from repro.models.profiles import build_profile

        durations = self._durations(tiny, [1.0, 1.7, 0.0, 1.7])
        for row, scale in enumerate(durations.scales.tolist()):
            profile = build_profile(
                tiny, iteration_compute=0.03, compute_scale=scale
            )
            assert tuple(durations.ff_times[row].tolist()) == profile.ff_times
            assert tuple(durations.bp_times[row].tolist()) == profile.bp_times

    @pytest.mark.parametrize("bad", (float("nan"), float("inf"),
                                     float("-inf"), -0.5, -5e-324))
    def test_bad_scales_are_rejected_naming_the_first_bad_rank(self, tiny, bad):
        scales = [1.0, 1.2, bad, 1.0, bad, -1.0]
        with pytest.raises(ValueError, match=(
            rf"compute scale of rank 2 must be finite and >= 0, got {bad}$"
        )):
            self._durations(tiny, scales)


@pytest.mark.parametrize("faults", (None, FAULTY), ids=("healthy", "faulty"))
@pytest.mark.parametrize("policy", POLICIES)
def test_classes_in_scrambled_order_match_event_kernel(policy, faults, tiny):
    """Repeated scales in scrambled rank order, and a zero scale off the
    planning rank, give the event kernel's timeline, trace and fault
    markers."""
    scales = [1.3, 0.0, 1.0, 1.3, 1.6, 1.0, 1.6, 1.3]
    cluster = cluster_10gbe(nodes=2, gpus_per_node=4)
    fast, slow = (
        _Run(policy, tiny, cluster, scales, faults=faults,
             iteration_compute=0.03, collapse=False).simulate(
            fastpath=fastpath, trace=True
        )
        for fastpath in (True, False)
    )
    _assert_identical(fast, slow)
    if faults is not None:
        # Both engines fold the straggler extras in creation order, so
        # the totals agree bit for bit although the event kernel
        # resolves jobs in completion order and the replay slot by slot.
        assert fast.extras["timing_faults"] == slow.extras["timing_faults"]


# -- engine selection ----------------------------------------------------------


class TestEngineSelection:
    def test_fastpath_switch(self, tiny, registry):
        result = _Run(
            "dear", tiny, CLUSTER, SCALE_PATTERNS["ramp"], iteration_compute=0.03, collapse=False,
        ).simulate(fastpath=False)
        assert result.extras["engine"] == "multirank-event"
        result = _Run(
            "dear", tiny, CLUSTER, SCALE_PATTERNS["ramp"], iteration_compute=0.03, collapse=False,
        ).simulate(fastpath=True)
        assert result.extras["engine"] == "multirank-fastpath"
        runs = registry.counter("sim.runs")
        assert runs.value(engine="multirank-event") > 0
        assert runs.value(engine="multirank-fastpath") > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_homogeneous_collapses_to_single_rank(self, policy, tiny):
        collapsed = simulate_heterogeneous(
            policy, tiny, CLUSTER, SCALE_PATTERNS["uniform"],
            iteration_compute=0.03,
        )
        assert collapsed.extras["engine"] == "collapsed"
        full = _Run(
            policy, tiny, CLUSTER, SCALE_PATTERNS["uniform"],
            iteration_compute=0.03, collapse=False,
        ).simulate()
        assert collapsed.iteration_time == pytest.approx(
            full.iteration_time, rel=1e-9
        )

    def test_faulty_uniform_run_does_not_collapse(self, tiny):
        """Faults are rank-synchronised only on the multi-rank engines."""
        result = simulate_heterogeneous(
            "dear", tiny, CLUSTER, SCALE_PATTERNS["uniform"], faults=FAULTY,
            iteration_compute=0.03,
        )
        assert result.extras["engine"].startswith("multirank-")

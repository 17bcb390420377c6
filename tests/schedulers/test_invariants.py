"""Cross-scheduler invariants, property-tested over random models.

These are the correctness arguments of the paper cast as executable
properties: every scheduler's iteration time is bounded below by both
the compute critical path and the communication volume, DeAR's
decoupling never changes the bytes on the wire, and the steady state
is genuinely steady.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.layers import ModelBuilder
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_100gbib, cluster_10gbe
from repro.schedulers.base import get_scheduler

SCHEDULER_CASES = [
    ("serial", {}),
    ("wfbp", {}),
    ("ddp", {"buffer_bytes": 25e6}),
    ("horovod", {"buffer_bytes": 25e6}),
    ("mg_wfbp", {}),
    ("bytescheduler", {}),
    ("dear", {"fusion": "none"}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    ("dear", {"fusion": "layers"}),
]


@st.composite
def random_models(draw):
    """Random small layered models (1-12 layers, varied tensor sizes)."""
    num_layers = draw(st.integers(1, 12))
    builder = ModelBuilder("rand", "Rand", 8)
    for index in range(num_layers):
        tensors = draw(st.integers(1, 3))
        sizes = [
            (f"t{t}", draw(st.integers(10, 500_000))) for t in range(tensors)
        ]
        builder.add_layer(
            f"layer{index}", "conv", sizes, flops=draw(st.integers(1, 10)) * 1e6
        )
    return builder.build()


class TestLowerBounds:
    @pytest.mark.parametrize("name,options", SCHEDULER_CASES)
    @settings(deadline=None, max_examples=10)
    @given(model=random_models(), data=st.data())
    def test_compute_and_comm_bounds(self, name, options, model, data):
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cluster = data.draw(st.sampled_from([cluster_10gbe(), cluster_100gbib()]))
        cost = CollectiveTimeModel(cluster)
        result = get_scheduler(name, **options).run(timing, cost)

        compute_bound = timing.t_ff + timing.t_bp
        volume_bound = cost.reduce_scatter(model.gradient_bytes) + cost.all_gather(
            model.gradient_bytes
        )
        assert result.iteration_time >= compute_bound - 1e-9
        # One fused collective of everything is the comm floor (fewer
        # startups than any partition of it).
        assert result.iteration_time >= volume_bound - 1e-9

    @pytest.mark.parametrize("name,options", SCHEDULER_CASES)
    @settings(deadline=None, max_examples=8)
    @given(model=random_models())
    def test_steady_state_converges(self, name, options, model):
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cost = CollectiveTimeModel(cluster_10gbe())
        result = get_scheduler(name, **options).run(timing, cost, iterations=6)
        gaps = result.iteration_times
        assert gaps[-1] == pytest.approx(gaps[-2], rel=1e-6)

    @pytest.mark.parametrize("name,options", SCHEDULER_CASES)
    @settings(deadline=None, max_examples=8)
    @given(model=random_models())
    def test_exposed_comm_within_iteration(self, name, options, model):
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cost = CollectiveTimeModel(cluster_10gbe())
        result = get_scheduler(name, **options).run(timing, cost)
        assert -1e-9 <= result.exposed_comm <= result.iteration_time + 1e-9
        assert result.exposed_rs <= result.exposed_comm + 1e-9
        assert result.exposed_ag <= result.exposed_comm + 1e-9


class TestDeARProperties:
    @settings(deadline=None, max_examples=10)
    @given(model=random_models(), buffer_mb=st.floats(0.1, 100))
    def test_dear_conserves_communication_volume(self, model, buffer_mb):
        """Decoupling + fusion never change total bytes communicated."""
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cost = CollectiveTimeModel(cluster_10gbe())
        result = get_scheduler(
            "dear", fusion="buffer", buffer_bytes=buffer_mb * 1e6
        ).run(timing, cost, iterations=3, trace=True)
        spans = [
            s for s in result.tracer.spans
            if s.category in ("comm.rs", "comm.ag") and s.metadata["iteration"] == 1
        ]
        rs_bytes = sum(s.metadata["bytes"] for s in spans if s.category == "comm.rs")
        ag_bytes = sum(s.metadata["bytes"] for s in spans if s.category == "comm.ag")
        assert rs_bytes == model.gradient_bytes
        assert ag_bytes == model.gradient_bytes

    @settings(deadline=None, max_examples=10)
    @given(model=random_models())
    def test_dear_rs_before_ag_within_iteration(self, model):
        """The §III-B sync point: every RS of iteration k ends before
        any AG of iteration k starts."""
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cost = CollectiveTimeModel(cluster_10gbe())
        result = get_scheduler("dear", fusion="none").run(timing, cost, iterations=3, trace=True)
        for iteration in range(3):
            rs_ends = [
                s.end for s in result.tracer.filter(category="comm.rs")
                if s.metadata["iteration"] == iteration
            ]
            ag_starts = [
                s.start for s in result.tracer.filter(category="comm.ag")
                if s.metadata["iteration"] == iteration
            ]
            if rs_ends and ag_starts:
                assert max(rs_ends) <= min(ag_starts) + 1e-12

    @settings(deadline=None, max_examples=10)
    @given(model=random_models())
    def test_dear_no_slower_than_wfbp_equal_fusion(self, model):
        """With identical (no) fusion, DeAR's schedule dominates WFBP:
        it has strictly more overlap opportunities."""
        timing = TimingModel.for_model(model, iteration_compute=0.02)
        cost = CollectiveTimeModel(cluster_10gbe())
        wfbp = get_scheduler("wfbp").run(timing, cost)
        dear = get_scheduler("dear", fusion="none").run(timing, cost)
        assert dear.iteration_time <= wfbp.iteration_time + 1e-9


class TestComparativeOrdering:
    def test_network_ordering(self, resnet50):
        """Every scheduler must be at least as fast on IB as on 10GbE."""
        timing = TimingModel.for_model(resnet50)
        eth = CollectiveTimeModel(cluster_10gbe())
        ib = CollectiveTimeModel(cluster_100gbib())
        for name, options in SCHEDULER_CASES:
            slow = get_scheduler(name, **options).run(timing, eth)
            fast = get_scheduler(name, **options).run(timing, ib)
            assert fast.iteration_time <= slow.iteration_time + 1e-9, name

    def test_dear_wins_on_paper_workloads(self, resnet50, bert_base):
        """DeAR (25 MB fusion) beats Horovod/DDP/MG-WFBP on the paper's
        two headline models over 10GbE."""
        eth = CollectiveTimeModel(cluster_10gbe())
        for model in (resnet50, bert_base):
            timing = TimingModel.for_model(model)
            dear = get_scheduler("dear", fusion="buffer", buffer_bytes=25e6).run(
                timing, eth
            )
            for rival, options in [
                ("horovod", {"buffer_bytes": 25e6}),
                ("ddp", {"buffer_bytes": 25e6}),
                ("mg_wfbp", {}),
            ]:
                other = get_scheduler(rival, **options).run(timing, eth)
                assert dear.iteration_time <= other.iteration_time + 1e-9, (
                    model.name, rival,
                )

"""Per-scheduler behavioural tests against analytically known timings.

The tiny fixture model makes exact hand-computation possible: with the
cost model's times for each group, the expected iteration time of each
schedule can be checked against the simulator's answer.
"""

import pytest

from repro.core.fusion import no_fusion_groups
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import get_scheduler
from tests.conftest import build_tiny_model


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_model()


@pytest.fixture(scope="module")
def timing(tiny):
    return TimingModel.for_model(tiny, iteration_compute=0.03)


@pytest.fixture(scope="module")
def cost(ethernet_cluster):
    return CollectiveTimeModel(ethernet_cluster)


class TestSerial:
    def test_iteration_is_compute_plus_comm(self, tiny, timing, cost):
        result = get_scheduler("serial").run(timing, cost)
        plan = no_fusion_groups(tiny)
        comm = sum(cost.all_reduce(g.nbytes) for g in plan)
        expected = timing.t_ff + timing.t_bp + comm
        assert result.iteration_time == pytest.approx(expected, rel=1e-6)

    def test_fused_serial_faster(self, timing, cost):
        per_tensor = get_scheduler("serial").run(timing, cost)
        fused = get_scheduler("serial", buffer_bytes=1e9).run(timing, cost)
        assert fused.iteration_time < per_tensor.iteration_time

    def test_exposed_comm_is_all_comm(self, tiny, timing, cost):
        result = get_scheduler("serial").run(timing, cost)
        plan = no_fusion_groups(tiny)
        comm = sum(cost.all_reduce(g.nbytes) for g in plan)
        assert result.exposed_comm == pytest.approx(comm, rel=1e-6)


class TestWFBP:
    def test_faster_than_serial(self, timing, cost):
        serial = get_scheduler("serial").run(timing, cost)
        wfbp = get_scheduler("wfbp").run(timing, cost)
        assert wfbp.iteration_time < serial.iteration_time

    def test_never_faster_than_comm_bound(self, tiny, timing, cost):
        """Comm is FIFO on one stream: iteration >= total comm time."""
        result = get_scheduler("wfbp").run(timing, cost)
        plan = no_fusion_groups(tiny)
        comm = sum(cost.all_reduce(g.nbytes) for g in plan)
        assert result.iteration_time >= comm - 1e-9

    def test_never_faster_than_compute_bound(self, timing, cost):
        result = get_scheduler("wfbp").run(timing, cost)
        assert result.iteration_time >= timing.t_ff + timing.t_bp - 1e-9

    def test_last_layer_comm_cannot_overlap_bp(self, tiny, timing, cost):
        """The first layer's all-reduce only starts after all of BP, so
        WFBP's iteration >= t_ff + t_bp + t_ar(first-layer tensors)."""
        result = get_scheduler("wfbp").run(timing, cost)
        first_layer_bytes = tiny.layers[0].nbytes
        bound = timing.t_ff + timing.t_bp + cost.all_reduce(first_layer_bytes)
        assert result.iteration_time >= bound - 1e-9

    def test_fusion_reduces_startup(self, timing, cost):
        plain = get_scheduler("wfbp").run(timing, cost)
        fused = get_scheduler("wfbp", buffer_bytes=25e6).run(timing, cost)
        assert fused.iteration_time <= plain.iteration_time


class TestDDPAndHorovod:
    def test_ddp_beats_unfused_wfbp(self, timing, cost):
        wfbp = get_scheduler("wfbp").run(timing, cost)
        ddp = get_scheduler("ddp").run(timing, cost)
        assert ddp.iteration_time < wfbp.iteration_time

    def test_horovod_pays_negotiation_over_ddp(self, timing, cost):
        ddp = get_scheduler("ddp", buffer_bytes=25e6, launch_overhead=0.0).run(
            timing, cost
        )
        horovod = get_scheduler("horovod", buffer_bytes=25e6).run(timing, cost)
        assert horovod.iteration_time > ddp.iteration_time

    def test_horovod_negotiation_scales_with_cycle(self, timing, cost):
        fast = get_scheduler("horovod", buffer_bytes=25e6, cycle_time=1e-4).run(
            timing, cost
        )
        slow = get_scheduler("horovod", buffer_bytes=25e6, cycle_time=10e-3).run(
            timing, cost
        )
        assert slow.iteration_time > fast.iteration_time

    def test_ddp_rejects_no_bucket(self):
        with pytest.raises(ValueError):
            get_scheduler("ddp", buffer_bytes=None)

    def test_horovod_bo_returns_tuned_result(self, timing, cost):
        result = get_scheduler("horovod", fusion="bo", bo_trials=5).run(timing, cost)
        assert result.extras["fusion"] == "bo"
        assert len(result.extras["bo_history"]) == 5
        assert result.scheduler == "horovod"

    def test_horovod_unknown_fusion(self):
        with pytest.raises(ValueError):
            get_scheduler("horovod", fusion="psychic")


class TestMGWFBP:
    def test_beats_unfused_wfbp(self, timing, cost):
        wfbp = get_scheduler("wfbp").run(timing, cost)
        mg = get_scheduler("mg_wfbp").run(timing, cost)
        assert mg.iteration_time < wfbp.iteration_time

    def test_startup_scale_zero_gives_per_layer_groups(self, tiny, timing, cost):
        """With a zero merge window only zero-gap (same-layer) tensors
        merge, so the plan has one group per layer and MG-WFBP is at
        least as fast as per-tensor WFBP."""
        wfbp = get_scheduler("wfbp").run(timing, cost)
        mg = get_scheduler("mg_wfbp", startup_scale=0.0).run(timing, cost, trace=True)
        assert mg.iteration_time <= wfbp.iteration_time + 1e-12
        spans = [
            s for s in mg.tracer.filter(category="comm.ar")
            if s.metadata["iteration"] == 2
        ]
        assert len(spans) == tiny.num_layers

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scheduler("mg_wfbp", startup_scale=-1)


class TestByteScheduler:
    def test_slower_than_wfbp_on_latency_bound_model(self, timing, cost):
        """Per-op negotiation on 10GbE makes BS lose on small tensors
        (the paper's CNN observation)."""
        wfbp = get_scheduler("wfbp").run(timing, cost)
        bs = get_scheduler("bytescheduler").run(timing, cost)
        assert bs.iteration_time > wfbp.iteration_time

    def test_negotiation_off_recovers(self, timing, cost):
        with_neg = get_scheduler("bytescheduler").run(timing, cost)
        without = get_scheduler("bytescheduler", negotiate=False).run(timing, cost)
        assert without.iteration_time < with_neg.iteration_time

    def test_partitioning_increases_collective_count(self, timing, cost):
        coarse = get_scheduler("bytescheduler", negotiate=False,
                               partition_bytes=1e9).run(timing, cost, trace=True)
        fine = get_scheduler("bytescheduler", negotiate=False,
                             partition_bytes=50e3).run(timing, cost, trace=True)
        count = lambda r: len(r.tracer.filter(category="comm.ar"))
        assert count(fine) > count(coarse)

    def test_invalid_partition_size(self):
        with pytest.raises(ValueError):
            get_scheduler("bytescheduler", partition_bytes=0)

    def test_invalid_credit(self):
        with pytest.raises(ValueError):
            get_scheduler("bytescheduler", credit=0)

    def test_credit_overlaps_latency_rounds(self, timing, cost):
        """Credit > 1 pipelines startup latencies across channels; on a
        latency-bound workload it must speed things up, and never past
        the proportional bound."""
        single = get_scheduler("bytescheduler", credit=1).run(timing, cost)
        quad = get_scheduler("bytescheduler", credit=4).run(timing, cost)
        assert quad.iteration_time < single.iteration_time
        assert quad.iteration_time >= single.iteration_time / 4 - 1e-9

    def test_credit_reaches_steady_state(self, timing, cost):
        result = get_scheduler("bytescheduler", credit=3).run(
            timing, cost, iterations=6
        )
        gaps = result.iteration_times
        assert gaps[-1] == pytest.approx(gaps[-2], rel=1e-9)

    def test_credit_completes_all_partitions(self, tiny, timing, cost):
        result = get_scheduler(
            "bytescheduler", credit=2, partition_bytes=100e3
        ).run(timing, cost, iterations=3, trace=True)
        import math

        expected = 3 * sum(
            max(1, math.ceil(t.nbytes / 100e3))
            for t in tiny.tensors_backward_order()
        )
        spans = result.tracer.filter(category="comm.ar")
        assert len(spans) == expected

    def test_all_partitions_complete(self, tiny, timing, cost):
        import math

        result = get_scheduler("bytescheduler", partition_bytes=100e3).run(
            timing, cost, iterations=3, trace=True
        )
        expected_per_iter = sum(
            max(1, math.ceil(t.nbytes / 100e3))
            for t in tiny.tensors_backward_order()
        )
        spans = result.tracer.filter(category="comm.ar")
        assert len(spans) == 3 * expected_per_iter


class TestDeAR:
    def test_beats_wfbp_without_fusion(self, timing, cost):
        wfbp = get_scheduler("wfbp").run(timing, cost)
        dear = get_scheduler("dear", fusion="none").run(timing, cost)
        assert dear.iteration_time < wfbp.iteration_time

    def test_rs_and_ag_collective_counts(self, tiny, timing, cost):
        result = get_scheduler("dear", fusion="none").run(timing, cost, iterations=3, trace=True)
        rs = result.tracer.filter(category="comm.rs")
        ag = result.tracer.filter(category="comm.ag")
        assert len(rs) == len(ag) == 3 * tiny.num_tensors

    def test_fusion_variants_all_run(self, timing, cost):
        for fusion, kwargs in [
            ("none", {}),
            ("layers", {"layers_per_group": 3}),
            ("buffer", {"buffer_bytes": 5e6}),
        ]:
            result = get_scheduler("dear", fusion=fusion, **kwargs).run(timing, cost)
            assert result.iteration_time > 0

    def test_bo_meets_or_beats_fixed_buffer(self, timing, cost):
        fixed = get_scheduler("dear", fusion="buffer", buffer_bytes=25e6).run(
            timing, cost
        )
        tuned = get_scheduler("dear", fusion="bo", bo_trials=8).run(timing, cost)
        assert tuned.iteration_time <= fixed.iteration_time * 1.0001

    def test_unknown_fusion_rejected(self):
        with pytest.raises(ValueError):
            get_scheduler("dear", fusion="entropy")

    def test_never_beats_theoretical_floor(self, tiny, timing, cost):
        """iteration >= max(compute, total comm) for any fusion."""
        plan_bytes = tiny.gradient_bytes
        floor = max(
            timing.t_ff + timing.t_bp,
            cost.reduce_scatter(plan_bytes) + cost.all_gather(plan_bytes),
        )
        result = get_scheduler("dear", fusion="buffer", buffer_bytes=1e9).run(
            timing, cost
        )
        assert result.iteration_time >= floor - 1e-9

    def test_ag_issued_in_forward_order(self, timing, cost):
        result = get_scheduler("dear", fusion="buffer", buffer_bytes=200e3).run(
            timing, cost, trace=True
        )
        ag_spans = [
            span for span in result.tracer.filter(category="comm.ag")
            if span.metadata["iteration"] == 2
        ]
        starts = [span.start for span in ag_spans]
        assert starts == sorted(starts)
        # Forward order = descending group index (group 0 is last layers).
        labels = [span.name.split(".g")[-1] for span in ag_spans]
        assert labels == sorted(labels, key=int, reverse=True)

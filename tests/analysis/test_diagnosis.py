"""Tests for the schedule diagnosis tool."""

import pytest

from repro.analysis.diagnosis import diagnose
from repro.models.zoo import get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_100gbib, cluster_10gbe
from repro.schedulers.base import simulate
from repro.workloads import WORKLOAD_NAMES


class TestDiagnose:
    def test_compute_bound_on_fast_network(self):
        result = simulate(
            "dear", get_model("resnet50"), cluster_100gbib(),
            fusion="buffer", buffer_bytes=25e6, trace=True,
        )
        diagnosis = diagnose(result)
        assert diagnosis.bottleneck == "compute"
        assert "hidden" in diagnosis.suggestion

    def test_communication_bound_on_slow_network(self):
        result = simulate("wfbp", get_model("bert_large"), cluster_10gbe(), trace=True)
        diagnosis = diagnose(result)
        assert diagnosis.bottleneck == "communication"

    def test_overlap_efficiency_bounds(self):
        for scheduler in ("serial", "wfbp", "dear"):
            options = {"fusion": "none"} if scheduler == "dear" else {}
            result = simulate(
                scheduler, get_model("resnet50"), cluster_10gbe(), trace=True,
                **options,
            )
            diagnosis = diagnose(result)
            assert 0.0 <= diagnosis.overlap_efficiency <= 1.0
            assert 0.0 <= diagnosis.comm_stream_utilisation <= 1.0 + 1e-9

    def test_serial_has_zero_overlap(self):
        result = simulate("serial", get_model("resnet50"), cluster_10gbe(), trace=True)
        diagnosis = diagnose(result)
        assert diagnosis.overlap_efficiency == pytest.approx(0.0, abs=1e-9)

    def test_dear_overlaps_more_than_wfbp(self):
        model = get_model("resnet50")
        wfbp = diagnose(simulate("wfbp", model, cluster_10gbe(), trace=True))
        dear = diagnose(
            simulate("dear", model, cluster_10gbe(), fusion="none", trace=True)
        )
        assert dear.overlap_efficiency > wfbp.overlap_efficiency

    def test_collective_count_matches_fusion(self):
        model = get_model("resnet50")
        result = simulate(
            "dear", model, cluster_10gbe(), fusion="buffer", buffer_bytes=25e6, trace=True
        )
        diagnosis = diagnose(result)
        from repro.core.fusion import buffer_size_groups

        groups = buffer_size_groups(model, 25e6).num_groups
        assert diagnosis.collectives_per_iteration == 2 * groups  # RS + AG

    def test_startup_fraction_with_fabric_info(self):
        model = get_model("densenet201")
        cost = CollectiveTimeModel(cluster_10gbe())
        unfused = simulate("wfbp", model, cluster_10gbe(), trace=True)
        diagnosis = diagnose(
            unfused, alpha=cost.alpha, world_size=cost.world_size
        )
        # 604 tiny tensors on 10GbE: overwhelmingly startup-bound.
        assert diagnosis.startup_fraction > 0.7
        assert "fuse" in diagnosis.suggestion

    def test_startup_fraction_zero_without_fabric_info(self):
        result = simulate("wfbp", get_model("resnet50"), cluster_10gbe(), trace=True)
        assert diagnose(result).startup_fraction == 0.0

    def test_describe_is_readable(self):
        result = simulate("horovod", get_model("bert_base"), cluster_10gbe(),
                          buffer_bytes=25e6, trace=True)
        text = diagnose(result).describe()
        assert "horovod" in text
        assert "suggestion:" in text
        assert "ms/iteration" in text

    def test_missing_tracer_rejected(self):
        from repro.schedulers.base import single_gpu_result

        result = single_gpu_result(get_model("resnet50"))
        with pytest.raises(ValueError):
            diagnose(result)


class TestWorkloadDiagnosis:
    """All-to-all and point-to-point spans count as communication too."""

    @pytest.mark.parametrize("scheduler", ["wfbp", "dear"])
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_overlap_efficiency_is_a_fraction(self, workload, scheduler):
        cost = CollectiveTimeModel(cluster_10gbe())
        result = simulate(
            scheduler, get_model("resnet50"), cluster_10gbe(),
            workload=workload, trace=True,
        )
        diagnosis = diagnose(result, alpha=cost.alpha, world_size=cost.world_size)
        assert 0.0 <= diagnosis.overlap_efficiency <= 1.0
        assert diagnosis.total_comm >= diagnosis.exposed_comm
        assert 0.0 <= diagnosis.startup_fraction <= 1.0

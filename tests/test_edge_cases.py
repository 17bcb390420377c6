"""Edge-case and rare-branch tests across modules."""

import numpy as np
import pytest

from repro.bayesopt.optimizer import BayesianOptimizer
from repro.core.fusion import FusionGroup, FusionPlan
from repro.models.profiles import build_profile
from repro.sim.engine import Simulator
from repro.sim.resources import Stream
from tests.conftest import build_tiny_model


class TestBayesOptEdges:
    def test_all_candidates_observed_falls_back_to_random(self):
        bo = BayesianOptimizer(1.0, 10.0, candidates=4, seed=0, initial=None)
        # Observe every grid candidate; the EI mask then kills them all.
        for x in list(bo._candidates):
            bo.observe(float(x), 1.0)
        suggestion = bo.suggest()
        assert 1.0 <= suggestion <= 10.0

    def test_linear_scale_domain(self):
        bo = BayesianOptimizer(0.5, 2.0, log_scale=False, seed=0, initial=None)
        for _ in range(5):
            x = bo.suggest()
            assert 0.5 <= x <= 2.0
            bo.observe(x, -abs(x - 1.1))

    def test_initial_outside_domain_ignored(self):
        bo = BayesianOptimizer(1.0, 2.0, initial=100.0, seed=0)
        assert 1.0 <= bo.suggest() <= 2.0

    def test_gp_accepts_1d_input_vector(self):
        from repro.bayesopt.gp import GaussianProcess

        gp = GaussianProcess()
        gp.fit(np.array([[0.1, 0.5, 0.9]]), [1.0, 2.0, 1.5])  # row vector
        mean, std = gp.predict(np.array([0.5]))
        assert mean.shape == (1,)


class TestProfileEdges:
    def test_floor_dominated_distribution_spreads_evenly(self):
        model = build_tiny_model()
        # Total compute below the per-layer floors: fall back to even.
        profile = build_profile(model, iteration_compute=1e-6)
        assert max(profile.ff_times) == pytest.approx(min(profile.ff_times))

    def test_zero_weight_layers_handled(self):
        from repro.models.layers import ModelBuilder

        builder = ModelBuilder("zf", "ZF", 8)
        builder.add_layer("a", "conv", [("w", 10)], flops=0.0)
        builder.add_layer("b", "conv", [("w", 10)], flops=0.0)
        profile = build_profile(builder.build(), iteration_compute=0.01)
        assert sum(profile.ff_times) + sum(profile.bp_times) == pytest.approx(0.01)


class TestFusionEdges:
    def test_wrong_group_position_rejected(self):
        model = build_tiny_model()
        tensors = model.tensors_backward_order()
        groups = [FusionGroup(index=1, tensors=tuple(tensors))]  # index != 0
        with pytest.raises(ValueError):
            FusionPlan(model, groups)

    def test_reordered_tensors_rejected(self):
        model = build_tiny_model()
        tensors = list(model.tensors_backward_order())
        tensors[0], tensors[1] = tensors[1], tensors[0]
        # layer_index metadata no longer matches the expected sequence.
        groups = [FusionGroup(index=0, tensors=tuple(tensors))]
        with pytest.raises(ValueError):
            FusionPlan(model, groups)


class TestStreamFailures:
    def test_generator_body_exception_surfaces(self):
        sim = Simulator()
        stream = Stream(sim, "s")

        def bad_body():
            yield 0.5
            raise RuntimeError("kernel fault")

        stream.submit(bad_body(), name="bad")
        with pytest.raises(RuntimeError, match="kernel fault"):
            sim.run()


class TestMemoryEdges:
    def test_fusion_scheduler_without_buffer_uses_default(self):
        from repro.analysis.memory import estimate_memory
        from repro.models.zoo import get_model

        estimate = estimate_memory("dear", get_model("resnet50"),
                                   buffer_bytes=None)
        assert estimate.scheduler_overhead == pytest.approx(50e6)

    def test_zero_overhead_can_be_negative_total_positive(self):
        """ZeRO's sharding saving can exceed its buffer cost; the total
        must still be physically positive."""
        from repro.analysis.memory import estimate_memory
        from repro.models.zoo import get_model

        estimate = estimate_memory("zero", get_model("bert_large"),
                                   world_size=64)
        assert estimate.scheduler_overhead < 0
        assert estimate.total > 0


class TestTimingModelEdges:
    def test_compression_model_preserves_cluster_surface(self):
        from repro.compression import CompressionTimeModel
        from repro.network.cost_model import CollectiveTimeModel
        from repro.network.presets import cluster_10gbe

        base = CollectiveTimeModel(cluster_10gbe())
        compressed = CompressionTimeModel(base, density=0.01)
        assert compressed.world_size == base.world_size
        assert compressed.alpha == base.alpha
        assert compressed.min_bandwidth == base.min_bandwidth
        assert compressed.negotiation() == base.negotiation()
        assert "compressed" in compressed.describe()

    def test_fp16_style_expansion_below_one(self):
        from repro.compression import CompressionTimeModel
        from repro.network.cost_model import CollectiveTimeModel
        from repro.network.presets import cluster_10gbe

        base = CollectiveTimeModel(cluster_10gbe())
        fp16 = CompressionTimeModel(base, density=1.0, payload_expansion=0.5)
        assert fp16.wire_ratio == pytest.approx(0.5)

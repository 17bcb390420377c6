"""Tests for the heterogeneous multi-rank simulator."""

import pytest

from repro.network.presets import cluster_10gbe
from repro.schedulers.base import simulate
from repro.schedulers.multirank import _Run, simulate_heterogeneous
from tests.conftest import build_tiny_model


CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=2)  # 4 ranks, fast tests


@pytest.fixture(scope="module")
def tiny():
    return build_tiny_model()


class TestHomogeneousAgreement:
    @pytest.mark.parametrize("policy,rep_options", [
        ("wfbp", {}),
        ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    ])
    def test_matches_representative_engine(self, tiny, policy, rep_options):
        # Explicit ranks force the genuine multi-rank engine; the
        # collapse shortcut is covered by the differential suite.
        multi = _Run(
            policy, tiny, CLUSTER, [1.0] * 4,
            fusion_buffer_bytes=rep_options.get("buffer_bytes"),
            iteration_compute=0.03, collapse=False,
        ).simulate()
        representative = simulate(
            policy, tiny, CLUSTER, iteration_compute=0.03, **rep_options
        )
        assert multi.iteration_time == pytest.approx(
            representative.iteration_time, rel=1e-9
        )

    def test_wfbp_no_fusion_matches(self, tiny):
        multi = _Run(
            "wfbp", tiny, CLUSTER, [1.0] * 4, fusion_buffer_bytes=None,
            iteration_compute=0.03, collapse=False,
        ).simulate()
        representative = simulate("wfbp", tiny, CLUSTER, iteration_compute=0.03)
        assert multi.iteration_time == pytest.approx(
            representative.iteration_time, rel=1e-9
        )

    def test_horovod_matches_representative(self, tiny):
        """Multi-rank Horovod charges the full representative overhead —
        per-group negotiation plus the expected half coordinator cycle —
        so the homogeneous runs must agree exactly."""
        multi = _Run(
            "horovod", tiny, CLUSTER, [1.0] * 4,
            fusion_buffer_bytes=25e6, iteration_compute=0.03, collapse=False,
        ).simulate()
        representative = simulate(
            "horovod", tiny, CLUSTER, buffer_bytes=25e6,
            iteration_compute=0.03,
        )
        assert multi.iteration_time == pytest.approx(
            representative.iteration_time, rel=1e-9
        )


class TestStragglers:
    def test_straggler_slows_everyone(self, tiny):
        base = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.0] * 4, iteration_compute=0.03
        )
        slow = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.0, 1.0, 1.0, 1.5], iteration_compute=0.03
        )
        assert slow.iteration_time > base.iteration_time

    def test_degradation_monotone_in_factor(self, tiny):
        times = []
        for factor in (1.0, 1.2, 1.4):
            result = simulate_heterogeneous(
                "wfbp", tiny, CLUSTER, [1.0, 1.0, 1.0, factor],
                iteration_compute=0.03,
            )
            times.append(result.iteration_time)
        assert times == sorted(times)

    def test_straggler_position_irrelevant(self, tiny):
        """Symmetric collectives: which rank is slow must not matter."""
        first = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.3, 1.0, 1.0, 1.0], iteration_compute=0.03
        )
        last = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.0, 1.0, 1.0, 1.3], iteration_compute=0.03
        )
        assert first.iteration_time == pytest.approx(last.iteration_time, rel=1e-9)

    def test_uniformly_slower_cluster_scales_compute(self, tiny):
        base = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.0] * 4, iteration_compute=0.03
        )
        slowed = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [2.0] * 4, iteration_compute=0.03
        )
        assert slowed.iteration_time > base.iteration_time

    def test_dear_never_behind_wfbp(self, tiny):
        for scales in ([1.0] * 4, [1.0, 1.1, 1.2, 1.3]):
            wfbp = simulate_heterogeneous(
                "wfbp", tiny, CLUSTER, scales, iteration_compute=0.03
            )
            dear = simulate_heterogeneous(
                "dear", tiny, CLUSTER, scales, iteration_compute=0.03
            )
            assert dear.iteration_time <= wfbp.iteration_time + 1e-9


class TestHorovodPolicy:
    def test_negotiation_costs_over_wfbp(self, tiny):
        wfbp = simulate_heterogeneous(
            "wfbp", tiny, CLUSTER, [1.0] * 4,
            fusion_buffer_bytes=25e6, iteration_compute=0.03,
        )
        horovod = simulate_heterogeneous(
            "horovod", tiny, CLUSTER, [1.0] * 4,
            fusion_buffer_bytes=25e6, iteration_compute=0.03,
        )
        assert horovod.iteration_time > wfbp.iteration_time

    def test_straggler_monotone(self, tiny):
        times = [
            simulate_heterogeneous(
                "horovod", tiny, CLUSTER, [1.0, 1.0, 1.0, factor],
                iteration_compute=0.03,
            ).iteration_time
            for factor in (1.0, 1.3)
        ]
        assert times[1] > times[0]


class TestValidation:
    def test_wrong_scale_count(self, tiny):
        with pytest.raises(ValueError):
            simulate_heterogeneous(
                "dear", tiny, CLUSTER, [1.0] * 3, iteration_compute=0.03
            )

    @pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "event"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_invalid_scale_values(self, tiny, bad, fastpath):
        """Both engines reject a scale that is not finite or is negative,
        instead of each answering differently."""
        with pytest.raises(ValueError, match="compute scale"):
            simulate_heterogeneous(
                "dear", tiny, CLUSTER, [1.0, bad, 1.0, 1.0],
                iteration_compute=0.03, fastpath=fastpath,
            )

    def test_invalid_scale_rejected_when_recording(self, tiny):
        from repro.schedulers.multirank import record_heterogeneous_fast

        with pytest.raises(ValueError, match="compute scale"):
            record_heterogeneous_fast(
                "wfbp", tiny, CLUSTER, [1.0, 1.0, float("nan"), 1.0],
                iteration_compute=0.03,
            )

    def test_zero_scale_accepted(self, tiny):
        """A zero scale runs on both engines, on rank 0 too: layer-wise
        schedules never read the planning rank's kernel ratios."""
        for scales in ([1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]):
            for fastpath in (True, False):
                result = simulate_heterogeneous(
                    "wfbp", tiny, CLUSTER, scales, iteration_compute=0.03,
                    fastpath=fastpath,
                )
                assert result.iteration_time > 0

    @pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "event"])
    def test_zero_planning_scale_rejected_for_workloads(self, tiny, fastpath):
        """A workload DAG plans its kernels on rank 0, which therefore
        needs a positive scale; the error says so on both engines."""
        with pytest.raises(ValueError, match="rank 0 is the planning rank"):
            simulate_heterogeneous(
                "wfbp", tiny, CLUSTER, [0.0, 1.0, 1.0, 1.0],
                iteration_compute=0.03, fastpath=fastpath, workload="moe",
            )

    def test_unknown_policy(self, tiny):
        with pytest.raises(ValueError):
            simulate_heterogeneous(
                "psychic", tiny, CLUSTER, [1.0] * 4, iteration_compute=0.03
            )

    def test_minimum_iterations(self, tiny):
        with pytest.raises(ValueError):
            simulate_heterogeneous(
                "dear", tiny, CLUSTER, [1.0] * 4, iterations=2,
                iteration_compute=0.03,
            )

    def test_collective_oversubscription_detected(self):
        from repro.schedulers.multirank import _Collective
        from repro.sim.engine import Simulator

        sim = Simulator()
        collective = _Collective(sim, world_size=2, duration=1.0, name="c")
        collective.arrive()
        collective.arrive()
        with pytest.raises(RuntimeError, match="over-subscribed"):
            collective.arrive()

    def test_steady_state_reached(self, tiny):
        result = simulate_heterogeneous(
            "dear", tiny, CLUSTER, [1.0, 1.2, 1.0, 1.1],
            iteration_compute=0.03, iterations=6,
        )
        gaps = result.iteration_times
        assert gaps[-1] == pytest.approx(gaps[-2], rel=1e-6)

"""Unit and property tests for the collective time formulas."""

import pytest
from hypothesis import given, strategies as st

from repro.network.cost_model import (
    CollectiveTimeModel,
    broadcast_time,
    hierarchical_all_reduce_time,
    negotiation_time,
    recursive_doubling_all_gather_time,
    recursive_halving_reduce_scatter_time,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
    tree_all_reduce_time,
)
from repro.network.presets import cluster_100gbib, cluster_10gbe

ALPHA, BETA = 23e-6, 0.8e-9


class TestRingFormulas:
    def test_reduce_scatter_matches_eq3(self):
        # (P-1) * (alpha + d/P * beta)
        expected = 63 * (ALPHA + (1e6 / 64) * BETA)
        assert ring_reduce_scatter_time(1e6, 64, ALPHA, BETA) == pytest.approx(expected)

    def test_all_gather_matches_eq4(self):
        expected = 63 * (ALPHA + (1e6 / 64) * BETA)
        assert ring_all_gather_time(1e6, 64, ALPHA, BETA) == pytest.approx(expected)

    def test_all_reduce_matches_eq5(self):
        expected = 2 * 63 * ALPHA + 2 * 63 / 64 * 1e6 * BETA
        assert ring_all_reduce_time(1e6, 64, ALPHA, BETA) == pytest.approx(expected)

    def test_single_worker_is_free(self):
        assert ring_all_reduce_time(1e9, 1, ALPHA, BETA) == 0.0

    def test_gamma_adds_reduction_cost(self):
        base = ring_reduce_scatter_time(1e6, 8, ALPHA, BETA)
        with_gamma = ring_reduce_scatter_time(1e6, 8, ALPHA, BETA, gamma=BETA)
        assert with_gamma > base

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ring_all_reduce_time(-1, 8, ALPHA, BETA)

    @given(
        nbytes=st.floats(1e3, 1e9),
        p=st.integers(2, 256),
    )
    def test_decoupling_identity(self, nbytes, p):
        """t_rs + t_ag == t_ar: the zero-overhead decoupling (§III-A)."""
        rs = ring_reduce_scatter_time(nbytes, p, ALPHA, BETA)
        ag = ring_all_gather_time(nbytes, p, ALPHA, BETA)
        ar = ring_all_reduce_time(nbytes, p, ALPHA, BETA)
        assert rs + ag == pytest.approx(ar, rel=1e-12)

    @given(nbytes=st.floats(1e3, 1e9), p=st.integers(2, 128))
    def test_rs_equals_ag(self, nbytes, p):
        """RS and AG have identical complexity (paper Eq. 3 vs Eq. 4)."""
        assert ring_reduce_scatter_time(nbytes, p, ALPHA, BETA) == pytest.approx(
            ring_all_gather_time(nbytes, p, ALPHA, BETA)
        )

    @given(p=st.integers(2, 64))
    def test_startup_grows_linearly_with_workers(self, p):
        """The latency term is proportional to P-1 (§II-D)."""
        small = ring_all_reduce_time(1.0, p, ALPHA, 0.0)
        assert small == pytest.approx(2 * (p - 1) * ALPHA)

    @given(nbytes=st.floats(1e4, 1e8))
    def test_monotone_in_message_size(self, nbytes):
        assert ring_all_reduce_time(nbytes * 2, 64, ALPHA, BETA) > ring_all_reduce_time(
            nbytes, 64, ALPHA, BETA
        )


class TestOtherAlgorithms:
    def test_halving_doubling_requires_power_of_two(self):
        with pytest.raises(ValueError):
            recursive_halving_reduce_scatter_time(1e6, 12, ALPHA, BETA)

    def test_halving_doubling_lower_latency_than_ring(self):
        ring = ring_reduce_scatter_time(1e3, 64, ALPHA, BETA)
        hd = recursive_halving_reduce_scatter_time(1e3, 64, ALPHA, BETA)
        assert hd < ring  # log P rounds vs P-1 rounds

    def test_halving_doubling_same_bandwidth_term(self):
        hd = recursive_halving_reduce_scatter_time(1e8, 64, 0.0, BETA)
        ring = ring_reduce_scatter_time(1e8, 64, 0.0, BETA)
        assert hd == pytest.approx(ring, rel=1e-9)

    def test_doubling_mirrors_halving(self):
        assert recursive_doubling_all_gather_time(1e6, 32, ALPHA, BETA) <= (
            recursive_halving_reduce_scatter_time(1e6, 32, ALPHA, BETA)
        )

    def test_tree_all_reduce_positive(self):
        assert tree_all_reduce_time(1e6, 64, ALPHA, BETA) > 0

    def test_tree_latency_logarithmic(self):
        t64 = tree_all_reduce_time(1.0, 64, ALPHA, 0.0, pipeline_chunks=1)
        t4096 = tree_all_reduce_time(1.0, 4096, ALPHA, 0.0, pipeline_chunks=1)
        assert t4096 / t64 == pytest.approx(2.0, rel=0.01)  # log 4096 / log 64

    def test_broadcast_time_log_rounds(self):
        assert broadcast_time(1e6, 64, ALPHA, BETA) == pytest.approx(
            6 * (ALPHA + 1e6 * BETA)
        )

    def test_hierarchical_all_reduce_positive(self):
        t = hierarchical_all_reduce_time(1e6, 16, 4, 3e-6, 1e-10, ALPHA, BETA)
        assert t > 0

    def test_negotiation_latency_bound(self):
        assert negotiation_time(64, ALPHA) == pytest.approx(
            2 * 63 * ALPHA, rel=1e-3
        )


class TestCollectiveTimeModel:
    def test_paper_spot_check_1mb(self):
        """§II-D: 1 MB all-reduce on 64 GPUs / 10GbE ~ 4.5 ms."""
        model = CollectiveTimeModel(cluster_10gbe())
        assert model.all_reduce(1e6) == pytest.approx(4.5e-3, rel=0.05)

    def test_paper_spot_check_500kb(self):
        """§II-D: 500 KB all-reduce ~ 3.9 ms."""
        model = CollectiveTimeModel(cluster_10gbe())
        assert model.all_reduce(5e5) == pytest.approx(3.9e-3, rel=0.07)

    def test_decoupling_identity_through_model(self):
        model = CollectiveTimeModel(cluster_10gbe())
        for nbytes in (1e3, 1e6, 1e8):
            assert model.reduce_scatter(nbytes) + model.all_gather(
                nbytes
            ) == pytest.approx(model.all_reduce(nbytes))

    def test_ib_faster_than_ethernet(self):
        eth = CollectiveTimeModel(cluster_10gbe())
        ib = CollectiveTimeModel(cluster_100gbib())
        assert ib.all_reduce(1e8) < eth.all_reduce(1e8)

    def test_zero_bytes_free(self):
        model = CollectiveTimeModel(cluster_10gbe())
        assert model.all_reduce(0) == 0.0
        assert model.reduce_scatter(0) == 0.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            CollectiveTimeModel(cluster_10gbe(), algorithm="smoke-signals")

    def test_halving_doubling_requires_pow2_world(self):
        cluster = cluster_10gbe(nodes=3, gpus_per_node=2)
        with pytest.raises(ValueError):
            CollectiveTimeModel(cluster, algorithm="halving_doubling")

    def test_startup_overhead_added_per_collective(self):
        plain = CollectiveTimeModel(cluster_10gbe())
        loaded = CollectiveTimeModel(cluster_10gbe(), startup_overhead=1e-3)
        assert loaded.reduce_scatter(1e6) == pytest.approx(
            plain.reduce_scatter(1e6) + 1e-3
        )

    def test_all_algorithms_usable(self):
        for algorithm in CollectiveTimeModel.ALGORITHMS:
            model = CollectiveTimeModel(cluster_10gbe(), algorithm=algorithm)
            assert model.all_reduce(1e6) > 0

    def test_min_bandwidth(self):
        model = CollectiveTimeModel(cluster_10gbe())
        assert model.min_bandwidth == pytest.approx(1.25e9)

    def test_describe(self):
        text = CollectiveTimeModel(cluster_10gbe()).describe()
        assert "ring" in text and "10GbE" in text


class TestMemoization:
    def test_repeat_queries_hit_the_memo(self):
        model = CollectiveTimeModel(cluster_10gbe())
        first = model.reduce_scatter(25e6)
        assert ("rs", 25e6) in model._memo
        assert model.reduce_scatter(25e6) == first

    def test_memoized_values_match_direct_formulas(self):
        model = CollectiveTimeModel(cluster_10gbe())
        p, alpha, beta = model.world_size, model.alpha, model.beta
        for nbytes in (1.0, 1e4, 25e6):
            for _ in range(2):  # second pass reads the memo
                assert model.reduce_scatter(nbytes) == ring_reduce_scatter_time(
                    nbytes, p, alpha, beta
                )
                assert model.all_gather(nbytes) == ring_all_gather_time(
                    nbytes, p, alpha, beta
                )

    def test_distinct_sizes_distinct_entries(self):
        model = CollectiveTimeModel(cluster_10gbe())
        model.all_gather(1e6)
        model.all_gather(2e6)
        assert model.all_gather(1e6) != model.all_gather(2e6)

    def test_memo_is_per_instance(self):
        fast_net = CollectiveTimeModel(cluster_100gbib())
        slow_net = CollectiveTimeModel(cluster_10gbe())
        assert fast_net.all_reduce(25e6) < slow_net.all_reduce(25e6)

"""Protocol tiers, channel striping, and the bit-exact parity anchor."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_100gbib, cluster_10gbe
from repro.network.protocol import (
    LL,
    LL128,
    PROTOCOLS,
    SIMPLE,
    ProtocolSpec,
    channel_bandwidth_factor,
    channel_latency_factor,
    collective_time,
    collective_times,
    effective_alpha_beta,
    governing_link,
    resolve_protocol,
)

OPS = ("reduce_scatter", "all_gather", "all_reduce")
SIZES = np.array([1.0, 1e3, 25e6, 1e9])


class TestProtocolSpecs:
    def test_simple_is_identity(self):
        assert SIMPLE.latency_factor == 1.0
        assert SIMPLE.bandwidth_factor == 1.0
        assert SIMPLE.beta_factor == 1.0

    def test_ll_trades_latency_for_bandwidth(self):
        assert LL.latency_factor < LL128.latency_factor < SIMPLE.latency_factor
        assert LL.beta_factor > LL128.beta_factor > SIMPLE.beta_factor

    def test_ll128_line_efficiency(self):
        # 120 payload bytes per 128-byte line.
        assert LL128.beta_factor == pytest.approx((128.0 / 120.0) / 0.9375)

    def test_resolve_by_name_and_spec(self):
        assert resolve_protocol("LL") is LL
        assert resolve_protocol(SIMPLE) is SIMPLE
        with pytest.raises(ValueError):
            resolve_protocol("morse-code")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSpec("bad", latency_factor=0.0, bandwidth_factor=1.0)
        with pytest.raises(ValueError):
            ProtocolSpec("bad", latency_factor=1.0, bandwidth_factor=1.5)
        with pytest.raises(ValueError):
            ProtocolSpec("bad", latency_factor=1.0, bandwidth_factor=1.0,
                         wire_overhead=0.5)

    def test_registry_covers_three_tiers(self):
        assert sorted(PROTOCOLS) == ["ll", "ll128", "simple"]


class TestChannelFactors:
    def test_parity_at_calibrated_count(self):
        # Exactly 1.0 — not approximately — at the calibrated count.
        for base in (1, 2, 4, 8):
            assert channel_latency_factor(base, base) == 1.0
            assert channel_bandwidth_factor(base, base) == 1.0

    def test_fewer_channels_cut_latency_and_bandwidth(self):
        assert channel_latency_factor(1, 4) < 1.0
        assert channel_bandwidth_factor(1, 4) == pytest.approx(0.25)

    def test_more_channels_cost_latency_buy_nothing(self):
        assert channel_latency_factor(8, 4) > 1.0
        assert channel_bandwidth_factor(8, 4) == 1.0

    def test_latency_floor(self):
        # An aggressive tax cannot drive alpha below half the calibration.
        assert channel_latency_factor(1, 1024, tax=4.0) == 0.5

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            channel_latency_factor(0, 4)
        with pytest.raises(ValueError):
            channel_bandwidth_factor(4, 0)

    @given(channels=st.integers(1, 64), base=st.integers(1, 64))
    def test_factors_always_positive(self, channels, base):
        assert channel_latency_factor(channels, base) > 0
        assert channel_bandwidth_factor(channels, base) > 0

    def test_effective_alpha_beta_parity(self):
        # (SIMPLE, calibrated channels) returns the link numbers bit-exact.
        alpha, beta = effective_alpha_beta(23e-6, 0.8e-9, SIMPLE, 4, 4)
        assert alpha == 23e-6
        assert beta == 0.8e-9


class TestBitExactParity:
    """The load-bearing invariant: protocol off == plain model, bit-for-bit."""

    @pytest.mark.parametrize("cluster_fn", [cluster_10gbe, cluster_100gbib])
    @pytest.mark.parametrize("op", OPS)
    def test_default_call_matches_plain_model(self, cluster_fn, op):
        cluster = cluster_fn()
        model = CollectiveTimeModel(cluster)
        plain = {
            "reduce_scatter": model.reduce_scatter,
            "all_gather": model.all_gather,
            "all_reduce": model.all_reduce,
        }[op]
        for nbytes in SIZES:
            assert collective_time(op, float(nbytes), cluster) == plain(float(nbytes))

    @pytest.mark.parametrize("op", OPS)
    def test_explicit_parity_config_matches_plain_model(self, op):
        cluster = cluster_10gbe()
        link = governing_link(cluster)
        model = CollectiveTimeModel(cluster)
        plain = {
            "reduce_scatter": model.reduce_scatter,
            "all_gather": model.all_gather,
            "all_reduce": model.all_reduce,
        }[op]
        for nbytes in SIZES:
            t = collective_time(
                op, float(nbytes), cluster,
                protocol="simple", channels=link.channels, ring_chunks=1,
            )
            assert t == plain(float(nbytes))

    @pytest.mark.parametrize("algorithm", ["ring", "halving_doubling", "tree",
                                           "hierarchical"])
    def test_every_algorithm_matches_its_scalar_twin(self, algorithm):
        cluster = cluster_10gbe()
        scalar = CollectiveTimeModel(cluster, algorithm=algorithm)
        for nbytes in SIZES:
            assert collective_time(
                "all_reduce", float(nbytes), cluster, algorithm=algorithm
            ) == scalar.all_reduce(float(nbytes))

    def test_vector_matches_scalar_bitwise(self):
        cluster = cluster_100gbib()
        for op in OPS:
            vector = collective_times(op, SIZES, cluster, protocol="ll128")
            for nbytes, t in zip(SIZES, vector):
                assert collective_time(op, float(nbytes), cluster,
                                       protocol="ll128") == t


class TestProtocolBehaviour:
    def test_ll_wins_small_loses_large(self):
        cluster = cluster_100gbib()
        small = 1024.0
        large = float(2**28)
        assert collective_time("all_reduce", small, cluster, protocol="ll") < \
            collective_time("all_reduce", small, cluster)
        assert collective_time("all_reduce", large, cluster, protocol="ll") > \
            collective_time("all_reduce", large, cluster)

    def test_ll128_between_tiers_at_large_sizes(self):
        cluster = cluster_100gbib()
        large = float(2**28)
        simple = collective_time("all_reduce", large, cluster)
        ll128 = collective_time("all_reduce", large, cluster, protocol="ll128")
        ll = collective_time("all_reduce", large, cluster, protocol="ll")
        assert simple < ll128 < ll

    def test_capability_enforced(self):
        # The 10GbE socket transport has no LL/LL128 tiers.
        with pytest.raises(ValueError):
            collective_time("all_reduce", 1e6, cluster_10gbe(), protocol="ll")
        t = collective_times(
            "all_reduce", np.array([1e6]), cluster_10gbe(),
            protocol="ll", enforce_capability=False,
        )
        assert t[0] > 0

    def test_ring_chunks_pipelining_helps_large_messages(self):
        cluster = cluster_10gbe()
        large = float(2**28)
        plain = collective_time("all_reduce", large, cluster)
        chunked = collective_time("all_reduce", large, cluster, ring_chunks=8)
        assert chunked < plain

    def test_zero_bytes_free_under_any_config(self):
        t = collective_times(
            "all_reduce", np.array([0.0, 1e6]), cluster_100gbib(),
            protocol="ll", channels=1, startup_overhead=1e-3,
        )
        assert t[0] == 0.0
        assert t[1] > 1e-3

    def test_unknown_op_and_algorithm_rejected(self):
        with pytest.raises(ValueError):
            collective_time("broadcast", 1e6, cluster_10gbe())
        with pytest.raises(ValueError):
            collective_time("all_reduce", 1e6, cluster_10gbe(),
                            algorithm="smoke-signals")
        with pytest.raises(ValueError):
            collective_time("all_reduce", 1e6, cluster_10gbe(), ring_chunks=0)

    def test_evals_counter_counts_vector_passes(self):
        from repro.telemetry.registry import default_registry

        counter = default_registry().counter(
            "network.cost_model.evals", "vectorized cost-model size evaluations"
        )
        before = counter.value(op="all_reduce", algorithm="ring", protocol="simple")
        collective_times("all_reduce", SIZES, cluster_10gbe())
        after = counter.value(op="all_reduce", algorithm="ring", protocol="simple")
        assert after - before == SIZES.size


class TestModelProtocolMode:
    def test_fixed_protocol_through_model_facade(self):
        cluster = cluster_100gbib()
        model = CollectiveTimeModel(cluster, protocol="ll", channels=1)
        assert model.all_reduce(1024.0) == collective_time(
            "all_reduce", 1024.0, cluster, protocol="ll", channels=1
        )

    def test_auto_plus_fixed_protocol_rejected(self):
        with pytest.raises(ValueError):
            CollectiveTimeModel(cluster_100gbib(), algorithm="auto", protocol="ll")

    def test_describe_mentions_protocol(self):
        text = CollectiveTimeModel(cluster_100gbib(), protocol="ll",
                                   channels=2).describe()
        assert "ll" in text and "c2" in text

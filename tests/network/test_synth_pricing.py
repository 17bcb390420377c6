"""Pricing of synthesized schedules: preset parity and autotuner reach."""

import numpy as np
import pytest

from repro.collectives.synthesis import Topology, schedule_times, synthesize
from repro.network.autotuner import (
    build_selection_table,
    candidate_selections,
    clear_tables,
)
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, cluster_nvlink, paper_testbed
from repro.network.protocol import collective_times

SIZES = np.array([1024.0, 65536.0, 2.0**20, 2.0**26])


def _link_ab(link):
    return (link.alpha, link.beta)


class TestPresetParity:
    """Where a synthesized schedule coincides with a preset structure,
    its step-level price must reproduce the closed-form formula."""

    def test_flat_ring_prices_exactly_like_ring_preset(self):
        cluster = cluster_10gbe()
        schedule = synthesize(Topology.flat(cluster.world_size),
                              "all_reduce", "bandwidth")
        # Same edge classes as the preset's flat model: price every edge
        # on the flat (bottleneck) alpha-beta.
        flat_ab = cluster.flat_alpha_beta()
        mine = schedule_times(schedule, SIZES, flat_ab, flat_ab)
        preset = collective_times("all_reduce", SIZES, cluster, algorithm="ring")
        np.testing.assert_allclose(mine, preset, rtol=1e-12)

    @pytest.mark.parametrize("op", ["reduce_scatter", "all_gather", "all_reduce"])
    def test_two_level_ring_prices_like_hierarchical_preset(self, op):
        cluster = cluster_10gbe()
        schedule = synthesize(Topology.from_cluster(cluster), op, "bandwidth")
        mine = schedule_times(
            schedule, SIZES,
            _link_ab(cluster.intra_link), _link_ab(cluster.inter_link),
        )
        preset = collective_times(op, SIZES, cluster, algorithm="hierarchical")
        np.testing.assert_allclose(mine, preset, rtol=1e-12)

    def test_collective_times_accepts_synth_algorithms(self):
        cluster = cluster_10gbe()
        bw = collective_times("all_reduce", SIZES, cluster, algorithm="synth_bw")
        hier = collective_times("all_reduce", SIZES, cluster, algorithm="hierarchical")
        np.testing.assert_allclose(bw, hier, rtol=1e-12)
        lat = collective_times("all_reduce", SIZES, cluster, algorithm="synth_lat")
        assert lat.shape == SIZES.shape
        assert np.all(lat > 0)

    def test_zero_bytes_are_free(self):
        cluster = cluster_10gbe()
        times = collective_times(
            "all_reduce", np.array([0.0, 1024.0]), cluster, algorithm="synth_lat"
        )
        assert times[0] == 0.0 and times[1] > 0.0


class TestSynthWins:
    """The whole point: a synthesized schedule the presets can't express
    beats every preset on at least one declared topology/size point."""

    def test_two_level_latency_beats_all_presets_on_10gbe_small(self):
        cluster = cluster_10gbe()  # 16 nodes x 4 GPUs, 23us inter alpha
        small = np.array([4096.0])
        synth = collective_times("all_reduce", small, cluster,
                                 algorithm="synth_lat")[0]
        for algorithm in ("ring", "halving_doubling", "tree", "hierarchical"):
            preset = collective_times("all_reduce", small, cluster,
                                      algorithm=algorithm)[0]
            assert synth < preset, (algorithm, synth, preset)

    def test_autotuner_table_selects_synth_on_10gbe(self):
        table = build_selection_table(cluster_10gbe())
        winners = {
            selection.algorithm
            for buckets in table.entries.values()
            for selection in buckets.values()
        }
        assert "synth_lat" in winners
        picked = table.lookup("all_reduce", 4096.0)
        assert picked.algorithm == "synth_lat"

    def test_auto_model_routes_through_synth_selection(self):
        clear_tables()
        try:
            cluster = cluster_10gbe()
            table = build_selection_table(cluster)
            selection = table.lookup("all_reduce", 4096.0)
            assert selection.algorithm == "synth_lat"
            auto = CollectiveTimeModel(cluster, algorithm="auto", table=table)
            direct = CollectiveTimeModel(
                cluster, algorithm=selection.algorithm,
                protocol=selection.protocol, channels=selection.channels,
            )
            assert auto.all_reduce(4096.0) == direct.all_reduce(4096.0)
        finally:
            clear_tables()


class TestCandidatePool:
    def test_synth_candidates_present_and_ordered_last(self):
        pool = candidate_selections(cluster_10gbe())
        algorithms = [selection.algorithm for selection in pool]
        assert algorithms[0] == "ring"
        assert "synth_lat" in algorithms and "synth_bw" in algorithms
        assert max(algorithms.index(a) for a in ("ring", "tree", "hierarchical")) \
            < min(algorithms.index(a) for a in ("synth_lat", "synth_bw"))

    def test_single_gpu_nodes_drop_synth_bw(self):
        cluster = cluster_10gbe(nodes=8, gpus_per_node=1)
        algorithms = {s.algorithm for s in candidate_selections(cluster)}
        assert "synth_lat" in algorithms
        assert "synth_bw" not in algorithms

    def test_nvlink_preset_cluster(self):
        cluster = cluster_nvlink()
        assert cluster.world_size == 64
        assert cluster.intra_link.name == "NVLink"
        assert paper_testbed("nvlink").name == cluster.name


class TestCostModelIntegration:
    def test_synth_algorithms_accepted(self):
        cluster = cluster_10gbe()
        for algorithm in ("synth_lat", "synth_bw"):
            model = CollectiveTimeModel(cluster, algorithm=algorithm)
            assert model.all_reduce(2.0**20) > 0
            assert model.reduce_scatter(2.0**20) + model.all_gather(2.0**20) == \
                pytest.approx(model.all_reduce(2.0**20))

    def test_all_to_all_falls_back_to_pairwise(self):
        cluster = cluster_10gbe()
        synth = CollectiveTimeModel(cluster, algorithm="synth_lat")
        ring = CollectiveTimeModel(cluster, algorithm="ring")
        assert synth.all_to_all(2.0**20) == ring.all_to_all(2.0**20)

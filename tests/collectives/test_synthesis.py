"""Synthesized schedules: IR contracts, verification algebra, execution."""

import numpy as np
import pytest

from repro.collectives.synthesis import (
    OBJECTIVES,
    SYNTH_ALGORITHMS,
    ChunkSpec,
    Schedule,
    ScheduleError,
    Step,
    Topology,
    algorithm_schedule,
    clear_schedule_cache,
    declared_step_bound,
    run_schedule,
    schedule_for,
    schedule_for_cluster,
    synthesize,
    verify_schedule,
)
from repro.collectives.transport import Transport
from repro.network.presets import cluster_10gbe

TOPOLOGIES = [
    Topology.flat(2),
    Topology.flat(5),
    Topology.flat(8),
    Topology.from_shape(2, 3),
    Topology.from_shape(4, 4),
    Topology.from_shape(3, 3),
    Topology.grouped([2, 3, 1]),
]


class TestTopology:
    def test_shapes_and_edges(self):
        topo = Topology.from_shape(3, 4)
        assert topo.world_size == 12
        assert topo.nodes == 3
        assert topo.multi_node and topo.uniform
        assert topo.node_of[0] == 0 and topo.node_of[11] == 2

    def test_grouped_non_uniform(self):
        topo = Topology.grouped([2, 3])
        assert not topo.uniform
        assert topo.node_of == (0, 0, 1, 1, 1)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            Topology(groups=((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            Topology(groups=((0, 2),))
        with pytest.raises(ValueError):
            Topology(groups=())

    def test_from_cluster_block_placement(self):
        cluster = cluster_10gbe(nodes=4, gpus_per_node=2)
        topo = Topology.from_cluster(cluster)
        assert topo.groups == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert topo.intra_link is cluster.intra_link
        assert topo.inter_link is cluster.inter_link


class TestChunkSpec:
    def test_flat_offsets_match_array_split(self):
        spec = ChunkSpec(factors=(4,))
        assert spec.offsets(10) == [0, 3, 6, 8, 10]

    def test_nested_differs_from_flat_on_uneven_lengths(self):
        nested = ChunkSpec(factors=(2, 3))
        flat = ChunkSpec(factors=(6,))
        assert nested.count == flat.count == 6
        assert nested.offsets(8) != flat.offsets(8)
        assert nested.offsets(8)[-1] == 8

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            ChunkSpec(factors=())
        with pytest.raises(ValueError):
            ChunkSpec(factors=(2, 2, 2))
        with pytest.raises(ValueError):
            ChunkSpec(factors=(0,))


class TestVerifier:
    def test_accepts_every_synthesized_schedule(self):
        for topo in TOPOLOGIES:
            for objective in ("latency", "bandwidth"):
                for op in ("reduce_scatter", "all_gather", "all_reduce"):
                    verify_schedule(synthesize(topo, op, objective))

    def test_rejects_double_counted_reduce(self):
        # Both ranks push their chunk 0 into rank 2's chunk 0 twice.
        topo = Topology.flat(3)
        steps = (
            Step([0], [2], [0], [1], [True]),
            Step([0], [2], [0], [1], [True]),  # second add double-counts rank 0
        )
        schedule = Schedule(
            op="reduce_scatter", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)), steps=steps,
            owner=np.array([2]), rs_steps=2,
        )
        with pytest.raises(ScheduleError, match="double-counts"):
            verify_schedule(schedule)

    def test_rejects_incomplete_reduction(self):
        topo = Topology.flat(3)
        schedule = Schedule(
            op="reduce_scatter", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)),
            steps=(Step([0], [2], [0], [1], [True]),),
            owner=np.array([2]), rs_steps=1,
        )
        with pytest.raises(ScheduleError, match="holds contributions"):
            verify_schedule(schedule)

    def test_rejects_gather_of_unreduced_data(self):
        # Rank 1 forwards chunk 0 before ever receiving the final value.
        topo = Topology.flat(3)
        schedule = Schedule(
            op="all_gather", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)),
            steps=(Step([1], [2], [0], [1], [False]),),
            owner=np.array([0]), rs_steps=0,
        )
        with pytest.raises(ScheduleError, match="before holding"):
            verify_schedule(schedule)

    def test_rejects_reduce_in_gather_phase(self):
        topo = Topology.flat(2)
        schedule = Schedule(
            op="all_gather", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)),
            steps=(Step([0], [1], [0], [1], [True]),),
            owner=np.array([0]), rs_steps=0,
        )
        with pytest.raises(ScheduleError, match="reduce op in an all-gather"):
            verify_schedule(schedule)

    def test_rejects_self_send_and_range_errors(self):
        topo = Topology.flat(2)
        bad_self = Schedule(
            op="all_gather", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)),
            steps=(Step([0], [0], [0], [1], [False]),),
            owner=np.array([0]), rs_steps=0,
        )
        with pytest.raises(ScheduleError, match="self-send"):
            verify_schedule(bad_self)
        bad_range = Schedule(
            op="all_gather", objective="latency", topology=topo,
            chunks=ChunkSpec(factors=(1,)),
            steps=(Step([0], [1], [0], [2], [False]),),
            owner=np.array([0]), rs_steps=0,
        )
        with pytest.raises(ScheduleError, match="chunk range"):
            verify_schedule(bad_range)


class TestExecutor:
    def _run(self, topo, objective, op, length, seed=0):
        world = topo.world_size
        rng = np.random.default_rng(seed)
        data = rng.integers(-8, 8, size=(world, length)).astype(np.float64)
        buffers = [data[rank].copy() for rank in range(world)]
        transport = Transport(world)
        run_schedule(transport, buffers, synthesize(topo, op, objective))
        assert not transport.pending()
        return data, buffers

    @pytest.mark.parametrize("objective", ["latency", "bandwidth"])
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
    def test_all_reduce_matches_ring_library(self, topo, objective):
        data, buffers = self._run(topo, objective, "all_reduce", 37)
        ring_buffers = [row.copy() for row in data]
        run_schedule(Transport(topo.world_size), ring_buffers,
                     algorithm_schedule("ring", "all_reduce", topo.world_size))
        for got, want in zip(buffers, ring_buffers):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("objective", ["latency", "bandwidth"])
    def test_decoupled_pair_equals_fused(self, objective):
        topo = Topology.from_shape(2, 3)
        world = topo.world_size
        rng = np.random.default_rng(7)
        data = rng.integers(-8, 8, size=(world, 23)).astype(np.float64)
        fused = [data[rank].copy() for rank in range(world)]
        run_schedule(Transport(world), fused,
                     synthesize(topo, "all_reduce", objective))
        pair = [data[rank].copy() for rank in range(world)]
        transport = Transport(world)
        run_schedule(transport, pair, synthesize(topo, "reduce_scatter", objective))
        run_schedule(transport, pair, synthesize(topo, "all_gather", objective))
        for got, want in zip(pair, fused):
            np.testing.assert_array_equal(got, want)

    def test_short_buffer_and_empty(self):
        # Fewer elements than chunks: some chunks are empty slices.
        topo = Topology.flat(8)
        for length in (0, 1, 3):
            data, buffers = self._run(topo, "bandwidth", "all_reduce", length)
            want = data.sum(axis=0)
            for buf in buffers:
                np.testing.assert_array_equal(buf, want)

    def test_world_mismatch_rejected(self):
        schedule = synthesize(Topology.flat(4), "all_reduce", "bandwidth")
        with pytest.raises(ValueError, match="targets 4 ranks"):
            run_schedule(Transport(3), [np.zeros(4)] * 3, schedule)


class TestAlgorithmSchedule:
    def test_flat_algorithms_map_to_cached_families(self):
        flat = Topology.flat(8)
        assert algorithm_schedule("ring", "all_reduce", 8) is schedule_for(
            flat, "all_reduce", "bandwidth")
        assert algorithm_schedule("halving_doubling", "all_gather", 8) is schedule_for(
            flat, "all_gather", "latency")
        assert algorithm_schedule("synth_lat", "reduce_scatter", 8) is schedule_for(
            flat, "reduce_scatter", "latency")
        # Flat algorithms ignore gpus_per_node.
        assert algorithm_schedule("ring", "all_reduce", 8, 4) is schedule_for(
            flat, "all_reduce", "bandwidth")

    def test_hierarchical_is_two_level_bandwidth(self):
        schedule = algorithm_schedule("hierarchical", "all_reduce", 8, 4)
        assert schedule is schedule_for(Topology.from_shape(2, 4), "all_reduce", "bandwidth")
        assert schedule.meta["structure"] == "two_level"
        assert algorithm_schedule("synth_bw", "all_reduce", 8, 4) is schedule
        # One node, or one GPU per node, is the flat ring.
        for g in (1, 8):
            degenerate = algorithm_schedule("hierarchical", "all_reduce", 8, g)
            assert degenerate.meta["structure"] == "flat"
            assert degenerate.objective == "bandwidth"

    def test_tree_is_not_a_synthesis_objective(self):
        schedule = algorithm_schedule("tree", "all_reduce", 6)
        verify_schedule(schedule)
        assert schedule.chunks.count == 1
        assert schedule.owner.tolist() == [0]
        assert algorithm_schedule("tree", "all_reduce", 6) is schedule
        assert "tree" not in OBJECTIVES and "tree" not in SYNTH_ALGORITHMS
        with pytest.raises(ValueError, match="objective"):
            synthesize(Topology.flat(6), "all_reduce", "tree")

    @pytest.mark.parametrize("algorithm,world,g", [
        ("avian", 4, None),
        ("halving_doubling", 6, None),
        ("hierarchical", 8, None),
        ("hierarchical", 6, 4),
        ("synth_bw", 6, 4),
    ])
    def test_rejected(self, algorithm, world, g):
        with pytest.raises(ValueError):
            algorithm_schedule(algorithm, "all_reduce", world, g)


class TestSynthesisCache:
    def test_schedule_for_caches_by_structure(self):
        clear_schedule_cache()
        first = schedule_for(Topology.from_shape(2, 2), "all_reduce", "latency")
        again = schedule_for(Topology.from_shape(2, 2), "all_reduce", "latency")
        assert first is again
        clear_schedule_cache()
        fresh = schedule_for(Topology.from_shape(2, 2), "all_reduce", "latency")
        assert fresh is not first

    def test_links_do_not_split_the_cache(self):
        clear_schedule_cache()
        cluster = cluster_10gbe(nodes=2, gpus_per_node=2)
        via_cluster = schedule_for_cluster(cluster, "all_gather", "bandwidth")
        bare = schedule_for(Topology.from_shape(2, 2), "all_gather", "bandwidth")
        assert via_cluster is bare

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            synthesize(Topology.flat(4), "all_reduce", "optimal")


class TestDeclaredBounds:
    def test_latency_bound_is_logarithmic(self):
        assert declared_step_bound(Topology.flat(8), "all_reduce", "latency") == 6
        # Non-power-of-two pays one fold round per phase.
        assert declared_step_bound(Topology.flat(5), "all_reduce", "latency") == 6
        assert declared_step_bound(
            Topology.from_shape(4, 4), "all_reduce", "latency"
        ) == 8

    def test_bandwidth_bound_is_linear(self):
        assert declared_step_bound(Topology.flat(8), "reduce_scatter", "bandwidth") == 7
        assert declared_step_bound(
            Topology.from_shape(4, 4), "all_reduce", "bandwidth"
        ) == 12

    def test_two_level_latency_beats_flat_rounds(self):
        # 16 nodes x 4 GPUs: flat HD needs log2(64)=6 inter-priced
        # rounds; the two-level composition needs only log2(16)=4 plus
        # 2 cheap intra rounds.
        topo = Topology.from_shape(16, 4)
        two_level = synthesize(topo, "reduce_scatter", "latency")
        assert two_level.meta["structure"] == "two_level"
        assert two_level.num_steps == 6

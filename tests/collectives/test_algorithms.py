"""Tests for tree, halving-doubling, hierarchical, and naive collectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.naive import (
    naive_all_gather,
    naive_all_reduce,
    naive_reduce_scatter,
)
from repro.collectives.synthesis import algorithm_schedule, run_schedule, verify_schedule
from repro.collectives.transport import Transport, chunk_offsets


def _buffers(p, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(p)]


def _run(algorithm, op, transport, buffers, gpus_per_node=None):
    """Run ``algorithm``'s schedule for ``op``; return the schedule."""
    schedule = algorithm_schedule(algorithm, op, transport.world_size, gpus_per_node)
    run_schedule(transport, buffers, schedule)
    return schedule


class TestNaive:
    def test_all_reduce_is_sum(self):
        p = 5
        transport = Transport(p)
        buffers = _buffers(p, 17)
        expected = np.sum(buffers, axis=0)
        naive_all_reduce(transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    def test_reduce_scatter_ownership_convention(self):
        p = 4
        transport = Transport(p)
        buffers = _buffers(p, 16)
        expected = np.sum(buffers, axis=0)
        owned = naive_reduce_scatter(transport, buffers)
        offsets = chunk_offsets(16, p)
        for rank in range(p):
            chunk = (rank + 1) % p
            np.testing.assert_allclose(
                owned[rank], expected[offsets[chunk] : offsets[chunk + 1]]
            )

    def test_all_gather_concatenates(self):
        p = 3
        transport = Transport(p)
        chunks = [np.full(2, float(rank)) for rank in range(p)]
        gathered = naive_all_gather(transport, chunks)
        expected = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        for result in gathered:
            np.testing.assert_allclose(result, expected)


class TestTree:
    def test_reduce_accumulates_at_root(self):
        p = 7  # non power of two
        transport = Transport(p)
        buffers = _buffers(p, 9)
        expected = np.sum(buffers, axis=0)
        schedule = _run("tree", "reduce_scatter", transport, buffers)
        assert schedule.owner.tolist() == [0]
        np.testing.assert_allclose(buffers[0], expected)

    def test_broadcast_from_root(self):
        p = 6
        transport = Transport(p)
        buffers = [np.zeros(4) for _ in range(p)]
        buffers[0][:] = 42.0
        _run("tree", "all_gather", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, 42.0)

    def test_reduce_message_count_is_p_minus_1(self):
        p = 8
        transport = Transport(p)
        _run("tree", "reduce_scatter", transport, _buffers(p, 4))
        assert transport.stats.messages == p - 1

    @pytest.mark.parametrize("p", range(1, 13))
    def test_schedule_verifies_in_log2_rounds(self, p):
        for op in ("reduce_scatter", "all_gather", "all_reduce"):
            schedule = algorithm_schedule("tree", op, p)
            verify_schedule(schedule)
            phases = 2 if op == "all_reduce" else 1
            assert schedule.num_steps == phases * math.ceil(math.log2(p))

    @settings(deadline=None, max_examples=20)
    @given(p=st.integers(2, 12), size=st.integers(1, 40), seed=st.integers(0, 99))
    def test_tree_allreduce_matches_sum(self, p, size, seed):
        transport = Transport(p)
        buffers = _buffers(p, size, seed)
        expected = np.sum(buffers, axis=0)
        _run("tree", "all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected, rtol=1e-10)
        assert transport.pending() == 0

    def test_decoupling_reduce_then_broadcast(self):
        """The tree decoupling point the related-work section suggests."""
        p = 8
        fused = _buffers(p, 21, seed=3)
        split = [np.array(b, copy=True) for b in fused]
        _run("tree", "all_reduce", Transport(p), fused)
        transport = Transport(p)
        _run("tree", "reduce_scatter", transport, split)
        _run("tree", "all_gather", transport, split)
        for a, b in zip(fused, split):
            np.testing.assert_array_equal(a, b)


class TestHalvingDoubling:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            _run("halving_doubling", "reduce_scatter", Transport(6), _buffers(6, 8))

    def test_rs_ownership_block_i_at_rank_i(self):
        p = 8
        transport = Transport(p)
        buffers = _buffers(p, 32)
        expected = np.sum(buffers, axis=0)
        schedule = _run("halving_doubling", "reduce_scatter", transport, buffers)
        assert schedule.owner.tolist() == list(range(p))
        offsets = schedule.chunks.offsets(32)
        for rank in range(p):
            np.testing.assert_allclose(
                buffers[rank][offsets[rank] : offsets[rank + 1]],
                expected[offsets[rank] : offsets[rank + 1]],
            )

    def test_rs_round_count_is_log2(self):
        p = 16
        transport = Transport(p)
        schedule = _run("halving_doubling", "reduce_scatter", transport, _buffers(p, 64))
        # log2(16) = 4 rounds, each rank sends one message per round
        assert schedule.num_steps == 4
        for rank in range(p):
            assert transport.stats.per_rank_messages[rank] == 4

    @settings(deadline=None, max_examples=20)
    @given(
        log_p=st.integers(1, 4), size=st.integers(1, 60), seed=st.integers(0, 99)
    )
    def test_allreduce_matches_sum(self, log_p, size, seed):
        p = 2**log_p
        transport = Transport(p)
        buffers = _buffers(p, size, seed)
        expected = np.sum(buffers, axis=0)
        _run("halving_doubling", "all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected, rtol=1e-10)
        assert transport.pending() == 0

    def test_decoupling_equivalence(self):
        p = 8
        fused = _buffers(p, 40, seed=5)
        split = [np.array(b, copy=True) for b in fused]
        _run("halving_doubling", "all_reduce", Transport(p), fused)
        transport = Transport(p)
        _run("halving_doubling", "reduce_scatter", transport, split)
        _run("halving_doubling", "all_gather", transport, split)
        for a, b in zip(fused, split):
            np.testing.assert_array_equal(a, b)


class TestHierarchical:
    @settings(deadline=None, max_examples=20)
    @given(
        nodes=st.integers(1, 4),
        gpus=st.integers(1, 4),
        size=st.integers(1, 50),
        seed=st.integers(0, 99),
    )
    def test_allreduce_matches_sum(self, nodes, gpus, size, seed):
        p = nodes * gpus
        if p < 2:
            return
        transport = Transport(p)
        buffers = _buffers(p, size, seed)
        expected = np.sum(buffers, axis=0)
        _run("hierarchical", "all_reduce", transport, buffers, gpus_per_node=gpus)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected, rtol=1e-10)
        assert transport.pending() == 0

    def test_decoupling_equivalence(self):
        nodes, gpus = 4, 4
        p = nodes * gpus
        fused = _buffers(p, 64, seed=7)
        split = [np.array(b, copy=True) for b in fused]
        _run("hierarchical", "all_reduce", Transport(p), fused, gpus_per_node=gpus)
        transport = Transport(p)
        _run("hierarchical", "reduce_scatter", transport, split, gpus_per_node=gpus)
        _run("hierarchical", "all_gather", transport, split, gpus_per_node=gpus)
        for a, b in zip(fused, split):
            np.testing.assert_array_equal(a, b)

    def test_indivisible_world_rejected(self):
        with pytest.raises(ValueError):
            _run("hierarchical", "all_reduce", Transport(6), _buffers(6, 8), gpus_per_node=4)

    def test_fewer_rounds_than_flat_ring_same_volume(self):
        """Both schemes are bandwidth-optimal (identical total bytes),
        but the hierarchical rings need far fewer messages — the
        latency advantage of Mikami et al. on multi-node clusters."""
        nodes, gpus = 4, 4
        p = nodes * gpus
        flat = Transport(p)
        _run("ring", "all_reduce", flat, _buffers(p, 160))
        hier = Transport(p)
        _run("hierarchical", "all_reduce", hier, _buffers(p, 160), gpus_per_node=gpus)
        assert hier.stats.bytes == flat.stats.bytes
        assert hier.stats.messages < flat.stats.messages

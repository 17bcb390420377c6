"""Unit and property tests for the ring collectives (the ring schedule)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.synthesis import algorithm_schedule, run_schedule
from repro.collectives.transport import Transport


def _random_buffers(p: int, size: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(p)]


def _ring(op, transport, buffers):
    """Run the ring schedule for ``op``; return the schedule."""
    schedule = algorithm_schedule("ring", op, transport.world_size)
    run_schedule(transport, buffers, schedule)
    return schedule


def _assert_owned_chunks_reduced(schedule, buffers, expected):
    """Rank ``i`` owns chunk ``(i + 1) % P`` and holds its full sum."""
    p = len(buffers)
    owner = schedule.owner.tolist()
    assert owner == [(chunk - 1) % p for chunk in range(p)]
    offsets = schedule.chunks.offsets(expected.size)
    for chunk, rank in enumerate(owner):
        np.testing.assert_allclose(
            buffers[rank][offsets[chunk] : offsets[chunk + 1]],
            expected[offsets[chunk] : offsets[chunk + 1]],
        )


class TestRingReduceScatter:
    def test_owned_chunks_hold_full_sums(self):
        p, size = 4, 12
        transport = Transport(p)
        buffers = _random_buffers(p, size)
        expected = np.sum(buffers, axis=0)
        schedule = _ring("reduce_scatter", transport, buffers)
        _assert_owned_chunks_reduced(schedule, buffers, expected)

    def test_message_count_is_p_minus_1_rounds(self):
        p = 8
        transport = Transport(p)
        _ring("reduce_scatter", transport, _random_buffers(p, 64))
        assert transport.stats.messages == p * (p - 1)
        for rank in range(p):
            assert transport.stats.per_rank_messages[rank] == p - 1

    def test_per_rank_volume_matches_cost_model(self):
        """Each rank sends (P-1)/P of the buffer: the Eq. 3 volume."""
        p, size = 8, 64
        transport = Transport(p)
        buffers = _random_buffers(p, size)
        nbytes = buffers[0].nbytes
        _ring("reduce_scatter", transport, buffers)
        for rank in range(p):
            assert transport.stats.per_rank_bytes[rank] == nbytes * (p - 1) // p

    def test_no_stranded_messages(self):
        transport = Transport(5)
        _ring("reduce_scatter", transport, _random_buffers(5, 23))
        assert transport.pending() == 0

    def test_uneven_sizes_supported(self):
        p = 4
        for size in (1, 3, 5, 7, 15):
            transport = Transport(p)
            buffers = _random_buffers(p, size, seed=size)
            expected = np.sum(buffers, axis=0)
            schedule = _ring("reduce_scatter", transport, buffers)
            _assert_owned_chunks_reduced(schedule, buffers, expected)

    def test_mismatched_shapes_rejected(self):
        transport = Transport(2)
        with pytest.raises(ValueError):
            _ring("reduce_scatter", transport, [np.zeros(4), np.zeros(5)])

    def test_wrong_buffer_count_rejected(self):
        transport = Transport(3)
        with pytest.raises(ValueError):
            _ring("reduce_scatter", transport, [np.zeros(4)] * 2)


class TestRingAllReduce:
    def test_matches_numpy_sum(self):
        p, size = 4, 37
        transport = Transport(p)
        buffers = _random_buffers(p, size)
        expected = np.sum(buffers, axis=0)
        _ring("all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    def test_two_ranks(self):
        transport = Transport(2)
        buffers = [np.array([1.0, 2.0]), np.array([10.0, 20.0])]
        _ring("all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, [11.0, 22.0])

    def test_multidimensional_buffers(self):
        p = 3
        transport = Transport(p)
        rng = np.random.default_rng(1)
        buffers = [rng.normal(size=(4, 5)) for _ in range(p)]
        expected = np.sum(buffers, axis=0)
        _ring("all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    def test_total_volume_matches_eq5(self):
        """Total bytes sent per rank = 2 (P-1)/P d (the Eq. 5 volume)."""
        p, size = 8, 64
        transport = Transport(p)
        buffers = _random_buffers(p, size)
        nbytes = buffers[0].nbytes
        _ring("all_reduce", transport, buffers)
        for rank in range(p):
            assert transport.stats.per_rank_bytes[rank] == 2 * nbytes * (p - 1) // p

    @settings(deadline=None, max_examples=30)
    @given(
        p=st.integers(2, 9),
        size=st.integers(1, 100),
        seed=st.integers(0, 1000),
    )
    def test_allreduce_correct_for_any_shape(self, p, size, seed):
        transport = Transport(p)
        buffers = _random_buffers(p, size, seed=seed)
        expected = np.sum(buffers, axis=0)
        _ring("all_reduce", transport, buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected, rtol=1e-10)
        assert transport.pending() == 0


class TestDecouplingEquivalence:
    """The heart of §III-A: RS followed by AG == fused all-reduce."""

    @settings(deadline=None, max_examples=30)
    @given(
        p=st.integers(2, 8),
        size=st.integers(1, 80),
        seed=st.integers(0, 1000),
    )
    def test_rs_then_ag_equals_allreduce(self, p, size, seed):
        buffers_fused = _random_buffers(p, size, seed=seed)
        buffers_split = [np.array(b, copy=True) for b in buffers_fused]

        _ring("all_reduce", Transport(p), buffers_fused)

        transport = Transport(p)
        _ring("reduce_scatter", transport, buffers_split)
        _ring("all_gather", transport, buffers_split)

        for fused, split in zip(buffers_fused, buffers_split):
            np.testing.assert_array_equal(fused, split)  # bit-identical

    def test_split_phases_same_traffic_as_fused(self):
        """Decoupling costs zero extra messages and zero extra bytes."""
        p, size = 6, 48
        fused_transport = Transport(p)
        _ring("all_reduce", fused_transport, _random_buffers(p, size))

        split_transport = Transport(p)
        buffers = _random_buffers(p, size)
        _ring("reduce_scatter", split_transport, buffers)
        _ring("all_gather", split_transport, buffers)

        assert split_transport.stats.messages == fused_transport.stats.messages
        assert split_transport.stats.bytes == fused_transport.stats.bytes

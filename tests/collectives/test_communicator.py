"""Tests for the Communicator facade."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.communicator import Communicator


def _buffers(p, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for _ in range(p)]


ALGORITHM_CASES = [
    ("ring", {}, 6),
    ("halving_doubling", {}, 8),
    ("tree", {}, 6),
    ("hierarchical", {"gpus_per_node": 2}, 6),
]


class TestCommunicator:
    @pytest.mark.parametrize("algorithm,kwargs,p", ALGORITHM_CASES)
    def test_all_reduce_sums(self, algorithm, kwargs, p):
        comm = Communicator(p, algorithm=algorithm, **kwargs)
        buffers = _buffers(p, 33)
        expected = np.sum(buffers, axis=0)
        comm.all_reduce(buffers)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    @pytest.mark.parametrize("algorithm,kwargs,p", ALGORITHM_CASES)
    def test_all_reduce_average(self, algorithm, kwargs, p):
        comm = Communicator(p, algorithm=algorithm, **kwargs)
        buffers = _buffers(p, 20)
        expected = np.mean(buffers, axis=0)
        comm.all_reduce(buffers, average=True)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    @pytest.mark.parametrize("algorithm,kwargs,p", ALGORITHM_CASES)
    def test_decoupled_pair_equals_fused(self, algorithm, kwargs, p):
        """§III-A for every algorithm family the registry offers."""
        fused = _buffers(p, 41, seed=2)
        split = [np.array(b, copy=True) for b in fused]
        Communicator(p, algorithm=algorithm, **kwargs).all_reduce(fused)
        comm = Communicator(p, algorithm=algorithm, **kwargs)
        comm.reduce_scatter(split)
        comm.all_gather(split)
        for a, b in zip(fused, split):
            np.testing.assert_array_equal(a, b)

    def test_collectives_counted(self):
        comm = Communicator(4)
        buffers = _buffers(4, 8)
        comm.all_reduce(buffers)
        comm.reduce_scatter(buffers)
        comm.all_gather(buffers)
        assert comm.collectives_issued == 3

    def test_stats_accumulate_across_calls(self):
        comm = Communicator(4)
        comm.all_reduce(_buffers(4, 16))
        first = comm.stats.bytes
        comm.all_reduce(_buffers(4, 16))
        assert comm.stats.bytes == 2 * first

    @pytest.mark.parametrize("algorithm,kwargs,p", ALGORITHM_CASES)
    def test_zero_copy_matches_copying_mode(self, algorithm, kwargs, p):
        """Zero-copy results and traffic accounting are bit-identical."""
        expected = np.sum(_buffers(p, 33), axis=0)
        outcomes = {}
        for zero_copy in (False, True):
            comm = Communicator(p, algorithm=algorithm, zero_copy=zero_copy, **kwargs)
            buffers = _buffers(p, 33)
            comm.all_reduce(buffers)
            for buf in buffers:
                np.testing.assert_allclose(buf, expected)
            outcomes[zero_copy] = (comm.stats.messages, comm.stats.bytes)
        assert outcomes[True] == outcomes[False]

    @pytest.mark.parametrize("algorithm,kwargs,p", ALGORITHM_CASES)
    def test_zero_copy_decoupled_pair(self, algorithm, kwargs, p):
        buffers = _buffers(p, 17)
        expected = np.mean(buffers, axis=0)
        comm = Communicator(p, algorithm=algorithm, zero_copy=True, **kwargs)
        comm.reduce_scatter(buffers)
        comm.all_gather(buffers, average=True)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            Communicator(4, algorithm="avian")

    def test_hierarchical_requires_gpus_per_node(self):
        with pytest.raises(ValueError):
            Communicator(8, algorithm="hierarchical")

    def test_hierarchical_divisibility_checked(self):
        with pytest.raises(ValueError):
            Communicator(6, algorithm="hierarchical", gpus_per_node=4)

    @pytest.mark.parametrize("algorithm", ["synth_bw", "synth_lat"])
    @pytest.mark.parametrize(
        "bad_rank_0",
        [np.zeros(7), np.zeros(8, dtype=np.float32), np.zeros(16)[::2]],
        ids=["short", "float32", "strided"],
    )
    def test_mismatched_buffers_rejected(self, algorithm, bad_rank_0):
        """A short, wrong-dtype or strided buffer must not leave ranks
        unreduced (a strided one would be reduced into a copy)."""
        comm = Communicator(4, algorithm=algorithm)
        buffers = [bad_rank_0] + _buffers(3, 8)
        with pytest.raises(ValueError, match=r"rank \d buffer"):
            comm.all_reduce(buffers)

    @settings(deadline=None, max_examples=15)
    @given(size=st.integers(1, 64), seed=st.integers(0, 50))
    def test_decoupled_average_matches_mean(self, size, seed):
        p = 4
        buffers = _buffers(p, size, seed)
        expected = np.mean(buffers, axis=0)
        comm = Communicator(p)
        comm.reduce_scatter(buffers)
        comm.all_gather(buffers, average=True)
        for buf in buffers:
            np.testing.assert_allclose(buf, expected, rtol=1e-10)

"""Microbenchmarks of the data-level collective library.

These measure actual wall-clock time of the numpy implementations (the
one place pytest-benchmark's multi-round timing is the point), and
assert the communication-complexity invariants on the side.
"""

import numpy as np
import pytest

from repro.collectives.communicator import Communicator
from repro.collectives.synthesis import algorithm_schedule, run_schedule
from repro.collectives.transport import Transport

WORLD = 8
ELEMENTS = 4096


def _buffers(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=ELEMENTS) for _ in range(WORLD)]


def test_ring_all_reduce_wall_time(benchmark):
    def run():
        transport = Transport(WORLD)
        buffers = _buffers()
        run_schedule(transport, buffers, algorithm_schedule("ring", "all_reduce", WORLD))
        return transport, buffers

    transport, buffers = benchmark(run)
    expected = np.sum(_buffers(), axis=0)
    np.testing.assert_allclose(buffers[0], expected)
    assert transport.stats.messages == 2 * WORLD * (WORLD - 1)


@pytest.mark.parametrize(
    "algorithm,kwargs",
    [
        ("ring", {}),
        ("halving_doubling", {}),
        ("tree", {}),
        ("hierarchical", {"gpus_per_node": 2}),
    ],
)
def test_decoupled_pair_wall_time(benchmark, algorithm, kwargs):
    def run():
        comm = Communicator(WORLD, algorithm=algorithm, **kwargs)
        buffers = _buffers(seed=1)
        comm.reduce_scatter(buffers)
        comm.all_gather(buffers)
        return buffers

    buffers = benchmark(run)
    expected = np.sum(_buffers(seed=1), axis=0)
    for buf in buffers:
        np.testing.assert_allclose(buf, expected)


def test_simulator_iteration_wall_time(benchmark):
    """How long one full DES iteration sweep takes on the host."""
    from repro.models.zoo import get_model
    from repro.network.presets import cluster_10gbe
    from repro.schedulers.base import simulate

    model = get_model("resnet50")
    cluster = cluster_10gbe()

    def run():
        return simulate(
            "dear", model, cluster, fusion="buffer", buffer_bytes=25e6
        )

    result = benchmark(run)
    assert result.iteration_time > 0

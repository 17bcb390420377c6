"""High-level communicator facade over the data-level collectives.

A :class:`Communicator` plays the role NCCL's communicator plays in the
paper's implementation (§V): it binds a world size and an algorithm
family and exposes ``all_reduce`` / ``reduce_scatter`` / ``all_gather``
entry points, plus the *decoupled* pair used by DeAR.  Averaging (the
``1/P`` factor of S-SGD, Eq. 2) is available via ``average=True``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.collectives.alltoall import pairwise_all_to_all, pairwise_all_to_allv
from repro.collectives.synthesis import algorithm_schedule, run_schedule
from repro.collectives.transport import Transport, TransportStats
from repro.telemetry.registry import default_registry

__all__ = ["Communicator"]


class Communicator:
    """All-rank collective endpoint bound to one algorithm family.

    Args:
        world_size: number of ranks.
        algorithm: ``"ring"`` (default), ``"halving_doubling"``,
            ``"tree"``, ``"hierarchical"``, or a synthesized family —
            ``"synth_lat"`` / ``"synth_bw"`` (schedules derived per
            topology by :mod:`repro.collectives.synthesis`).
        gpus_per_node: required for ``"hierarchical"``; optional for the
            synthesized families (omitted means a flat single-node
            topology, given means a uniform two-level one).
        zero_copy: deliver read-only views instead of per-hop copies
            (see :class:`~repro.collectives.transport.Transport`).

    Every collective runs the step schedule
    :func:`~repro.collectives.synthesis.algorithm_schedule` maps the
    algorithm to; the constructor rejects a combination it cannot map.
    """

    ALGORITHMS = ("ring", "halving_doubling", "tree", "hierarchical",
                  "synth_lat", "synth_bw")

    def __init__(
        self,
        world_size: int,
        algorithm: str = "ring",
        gpus_per_node: Optional[int] = None,
        zero_copy: bool = False,
    ):
        algorithm_schedule(algorithm, "all_reduce", world_size, gpus_per_node)
        self.world_size = world_size
        self.algorithm = algorithm
        self.gpus_per_node = gpus_per_node
        self.transport = Transport(world_size, zero_copy=zero_copy)
        self.collectives_issued = 0
        registry = default_registry()
        self._call_counter = registry.counter(
            "collective.calls", "data-level collectives issued, by operation"
        )
        self._payload_counter = registry.counter(
            "collective.payload_bytes",
            "aggregate buffer bytes handled by data-level collectives",
        )
        self._wire_counter = registry.counter(
            "collective.wire_bytes",
            "transport bytes moved by data-level collectives",
        )

    def _publish(self, op: str, buffers: Sequence[np.ndarray],
                 wire_before: int) -> None:
        labels = {"op": op, "algorithm": self.algorithm}
        self._call_counter.inc(**labels)
        self._payload_counter.inc(
            float(sum(buf.nbytes for buf in buffers)), **labels
        )
        self._wire_counter.inc(
            float(self.transport.stats.bytes - wire_before), **labels
        )

    @property
    def stats(self) -> TransportStats:
        """Cumulative traffic counters across all collectives issued."""
        return self.transport.stats

    def _finish(self, buffers: Sequence[np.ndarray], average: bool) -> None:
        self.collectives_issued += 1
        if average:
            for buf in buffers:
                buf[...] /= self.world_size

    def _run(self, op: str, buffers: Sequence[np.ndarray]) -> None:
        wire_before = self.transport.stats.bytes
        run_schedule(self.transport, buffers, algorithm_schedule(
            self.algorithm, op, self.world_size, self.gpus_per_node))
        self._publish(op, buffers, wire_before)

    def all_reduce(self, buffers: Sequence[np.ndarray], average: bool = False) -> None:
        """Fused all-reduce (sum, optionally averaged) in place."""
        self._run("all_reduce", buffers)
        self._finish(buffers, average)

    def reduce_scatter(self, buffers: Sequence[np.ndarray]) -> None:
        """Decoupled OP1: leaves each rank's owned shard fully reduced.

        The non-owned regions of the buffers become scratch; a matching
        :meth:`all_gather` call restores the complete reduced vector,
        and the pair is value-identical to :meth:`all_reduce`.
        """
        self._run("reduce_scatter", buffers)
        self.collectives_issued += 1

    def all_gather(self, buffers: Sequence[np.ndarray], average: bool = False) -> None:
        """Decoupled OP2: completes the aggregation started by OP1."""
        self._run("all_gather", buffers)
        self._finish(buffers, average)

    def all_to_all(self, buffers: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Personalized exchange: chunk ``j`` of rank ``i`` goes to rank ``j``.

        Pure data movement with a single correct result, so every
        algorithm family shares the pairwise schedule (the cost model is
        where Bruck/hierarchical pricing differs).  Returns the per-rank
        receive buffers.
        """
        wire_before = self.transport.stats.bytes
        received = pairwise_all_to_all(self.transport, buffers)
        self._publish("all_to_all", buffers, wire_before)
        self.collectives_issued += 1
        return received

    def all_to_allv(
        self, buffers: Sequence[np.ndarray], send_counts: Sequence[Sequence[int]]
    ) -> list[np.ndarray]:
        """Variable-count personalized exchange (``MPI_Alltoallv``)."""
        wire_before = self.transport.stats.bytes
        received = pairwise_all_to_allv(self.transport, buffers, send_counts)
        self._publish("all_to_allv", buffers, wire_before)
        self.collectives_issued += 1
        return received

"""Execute a schedule against real buffers.

Every data-level collective runs here: the executor drives the
in-process :class:`Transport` in lockstep rounds (all sends of a step
read pre-step state, then all receives land), so a verified schedule is
value-exact, and RS+AG is bit-identical to the fused all-reduce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.synthesis.ir import Schedule
from repro.collectives.transport import Transport

__all__ = ["run_schedule"]


def _validate_buffers(buffers: Sequence[np.ndarray], world: int,
                      transport: Transport) -> None:
    if len(buffers) != world or transport.world_size != world:
        raise ValueError(
            f"schedule targets {world} ranks, got {len(buffers)} buffers on a "
            f"{transport.world_size}-rank transport"
        )
    first = buffers[0]
    for rank, buf in enumerate(buffers):
        if buf.shape != first.shape:
            raise ValueError(
                f"rank {rank} buffer shape {buf.shape} != rank 0 shape {first.shape}"
            )
        if buf.dtype != first.dtype:
            raise ValueError(
                f"rank {rank} buffer dtype {buf.dtype} != rank 0 dtype {first.dtype}"
            )
        if not buf.flags.c_contiguous:
            # reshape(-1) would copy, and the collective would write
            # into the copy instead of the caller's buffer.
            raise ValueError(f"rank {rank} buffer is not C-contiguous")


def run_schedule(transport: Transport, buffers: Sequence[np.ndarray],
                 schedule: Schedule) -> None:
    """Run ``schedule`` in place over per-rank ``buffers``.

    The buffers must agree in count (one per rank), shape and dtype,
    and be C-contiguous (the collective works on flat views of them).
    After an ``all_reduce`` schedule every buffer holds the global sum;
    after ``reduce_scatter`` each rank's owned chunks do
    (``schedule.owner`` over ``schedule.chunks.offsets``) and the rest
    is scratch; ``all_gather`` expects the owned chunks final on entry.
    """
    _validate_buffers(buffers, schedule.topology.world_size, transport)
    flats = [buffer.reshape(-1) for buffer in buffers]
    bounds = schedule.chunks.offsets(flats[0].size)
    for step in schedule.steps:
        src = step.src.tolist()
        dst = step.dst.tolist()
        lo = step.lo.tolist()
        hi = step.hi.tolist()
        for i in range(len(src)):
            transport.send(src[i], dst[i], flats[src[i]][bounds[lo[i]]:bounds[hi[i]]])
        for i in range(len(src)):
            segment = flats[dst[i]][bounds[lo[i]]:bounds[hi[i]]]
            incoming = transport.recv(src[i], dst[i])
            if step.red[i]:
                segment += incoming
            else:
                segment[...] = incoming

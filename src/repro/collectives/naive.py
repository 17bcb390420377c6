"""Reference collectives: obviously correct, used as test oracles.

These gather-everything-to-rank-0 implementations have terrible
communication complexity but trivially verifiable semantics; every
optimised algorithm in this package is property-tested against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.transport import Transport, chunk_offsets

__all__ = ["naive_all_reduce", "naive_reduce_scatter", "naive_all_gather"]


def naive_all_reduce(transport: Transport, buffers: Sequence[np.ndarray]) -> None:
    """Gather to rank 0, sum, broadcast back (in place)."""
    p = transport.world_size
    total = np.array(buffers[0], copy=True)
    for rank in range(1, p):
        transport.send(rank, 0, buffers[rank])
        total += transport.recv(rank, 0)
    buffers[0][...] = total
    for rank in range(1, p):
        transport.send(0, rank, total)
        buffers[rank][...] = transport.recv(0, rank)


def naive_reduce_scatter(
    transport: Transport, buffers: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """All-reduce on rank 0 then scatter; returns per-rank owned chunks.

    Uses the ring ownership convention (rank ``i`` owns chunk
    ``(i+1) % P``) so results compare directly against the ring
    reduce-scatter schedule.
    """
    p = transport.world_size
    total = np.array(buffers[0], copy=True).reshape(-1)
    for rank in range(1, p):
        transport.send(rank, 0, buffers[rank].reshape(-1))
        total += transport.recv(rank, 0)
    offsets = chunk_offsets(total.size, p)
    owned: list[np.ndarray] = []
    for rank in range(p):
        chunk_index = (rank + 1) % p
        chunk = total[offsets[chunk_index] : offsets[chunk_index + 1]]
        if rank != 0:
            transport.send(0, rank, chunk)
            chunk = transport.recv(0, rank)
        owned.append(np.array(chunk, copy=True))
    return owned


def naive_all_gather(transport: Transport, chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Concatenate per-rank chunks on every rank via rank 0."""
    p = transport.world_size
    gathered = [np.array(chunks[0], copy=True)]
    for rank in range(1, p):
        transport.send(rank, 0, chunks[rank])
        gathered.append(transport.recv(rank, 0))
    full = np.concatenate([g.reshape(-1) for g in gathered])
    results = [full]
    for rank in range(1, p):
        transport.send(0, rank, full)
        results.append(transport.recv(0, rank))
    return results

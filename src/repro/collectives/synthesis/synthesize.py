"""Latency- and bandwidth-optimal schedule synthesis per topology.

Two synthesis families, SCCL-style (arXiv:2008.08708), chosen by
objective:

- ``"bandwidth"`` — ring schedules: minimal per-rank traffic
  ``(P-1)/P * d`` at ``P-1`` rounds.  On a uniform multi-node topology
  the synthesizer emits the PCCL-style two-level composition (intra-
  node rings, then per-shard inter-node rings over disjoint chunks),
  which both cuts the round count and prices identically to the
  hand-written hierarchical formulas.
- ``"latency"`` — recursive halving/doubling: ``ceil(log2 P)`` rounds.
  Non-power-of-two worlds use the standard fold: the ``P - 2^k``
  surplus ranks pre-reduce their whole buffer into a partner before
  the power-of-two core runs, and the all-gather unfolds them at the
  end.  On a uniform multi-node topology both levels are synthesized
  latency-optimal independently (process-group-aware composition),
  which yields schedules no preset expresses — e.g. two cheap intra
  rounds plus ``log2(nodes)`` expensive inter rounds instead of
  ``log2(P)`` inter-priced rounds.

Synthesized schedules are cached per (topology structure, op,
objective): schedules are immutable and link-independent (links only
matter when pricing).

:func:`algorithm_schedule` maps every data-level algorithm name (the
cost model's presets plus the two objectives) to its cached schedule;
it is the one definition :class:`~repro.collectives.Communicator` and
the fault-tolerant communicator execute.  The binomial ``tree`` family
lives only there: it is not an objective the cost model or autotuner
synthesizes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.collectives.synthesis.ir import ChunkSpec, Schedule, Step
from repro.collectives.synthesis.topology import Topology
from repro.network.fabric import ClusterSpec

__all__ = [
    "SYNTH_ALGORITHMS",
    "OBJECTIVES",
    "algorithm_schedule",
    "synthesize",
    "schedule_for",
    "schedule_for_cluster",
    "declared_step_bound",
    "clear_schedule_cache",
]

#: Algorithm names the cost model / autotuner use for the two
#: objectives.  No ``/`` — selection labels split on it.
SYNTH_ALGORITHMS = ("synth_lat", "synth_bw")

OBJECTIVES = ("latency", "bandwidth")

#: algorithm name <-> objective
ALGORITHM_OBJECTIVE = {"synth_lat": "latency", "synth_bw": "bandwidth"}


def _pow2_floor(m: int) -> int:
    return 1 << (m.bit_length() - 1)


# -- flat building blocks ------------------------------------------------------
#
# Each builder emits the lockstep steps of one sub-collective over
# ``members`` (global rank ids).  ``base`` maps the builder's local
# chunk *blocks* to global chunk indices: block ``l`` covers global
# chunks ``[base[l], base[l+1])``, and consecutive blocks are globally
# contiguous, so a send of blocks ``[a, b)`` is one contiguous op.


def _ring_block_count(m: int) -> int:
    return m


def _hd_block_count(m: int) -> int:
    return _pow2_floor(m)


def _ring_rs_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    m = members.size
    if m == 1:
        return []
    idx = np.arange(m)
    steps = []
    for s in range(m - 1):
        send = (idx - s) % m
        steps.append(
            Step(members[idx], members[(idx + 1) % m],
                 base[send], base[send + 1], np.ones(m, dtype=bool))
        )
    return steps


def _ring_ag_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    m = members.size
    if m == 1:
        return []
    idx = np.arange(m)
    steps = []
    for s in range(m - 1):
        send = (idx + 1 - s) % m
        steps.append(
            Step(members[idx], members[(idx + 1) % m],
                 base[send], base[send + 1], np.zeros(m, dtype=bool))
        )
    return steps


def _ring_owner_local(block: int, m: int) -> int:
    """Local member owning ring block ``block`` (member i owns (i+1)%m)."""
    return (block - 1) % m


def _hd_rs_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    m = members.size
    if m == 1:
        return []
    core = _pow2_floor(m)
    steps = []
    if m > core:
        # Fold: surplus ranks pre-reduce their whole buffer into a
        # power-of-two-core partner (full-fraction sends, one round).
        extras = np.arange(core, m)
        steps.append(
            Step(members[extras], members[extras - core],
                 np.full(extras.size, base[0]), np.full(extras.size, base[core]),
                 np.ones(extras.size, dtype=bool))
        )
    # Recursive halving among the core: pair lower/upper halves of each
    # contiguous local group; the lower half keeps the lower block range
    # (Rabenseifner's reduce-scatter).
    groups = [(0, core)]
    while groups[0][1] - groups[0][0] > 1:
        src, dst, lo, hi = [], [], [], []
        next_groups = []
        for group_lo, group_hi in groups:
            mid = (group_lo + group_hi) // 2
            for low, high in zip(range(group_lo, mid), range(mid, group_hi)):
                src.append(members[low]); dst.append(members[high])
                lo.append(base[mid]); hi.append(base[group_hi])
                src.append(members[high]); dst.append(members[low])
                lo.append(base[group_lo]); hi.append(base[mid])
            next_groups.append((group_lo, mid))
            next_groups.append((mid, group_hi))
        steps.append(Step(src, dst, lo, hi, np.ones(len(src), dtype=bool)))
        groups = next_groups
    return steps


def _hd_ag_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    m = members.size
    if m == 1:
        return []
    core = _pow2_floor(m)
    steps = []
    distance = 1
    while distance < core:
        src, dst, lo, hi = [], [], [], []
        for rank in range(core):
            partner = rank ^ distance
            if partner < rank:
                continue
            rank_lo = (rank // distance) * distance
            partner_lo = (partner // distance) * distance
            src.append(members[rank]); dst.append(members[partner])
            lo.append(base[rank_lo]); hi.append(base[rank_lo + distance])
            src.append(members[partner]); dst.append(members[rank])
            lo.append(base[partner_lo]); hi.append(base[partner_lo + distance])
        steps.append(Step(src, dst, lo, hi, np.zeros(len(src), dtype=bool)))
        distance *= 2
    if m > core:
        # Unfold: every core partner forwards the complete buffer to its
        # folded surplus rank.
        extras = np.arange(core, m)
        steps.append(
            Step(members[extras - core], members[extras],
                 np.full(extras.size, base[0]), np.full(extras.size, base[core]),
                 np.zeros(extras.size, dtype=bool))
        )
    return steps


def _hd_owner_local(block: int, m: int) -> int:
    """Local member owning HD block ``block`` (core member b owns block b)."""
    return block


def _tree_pairs(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Local ``(parent, child)`` ids of each binomial round, leaves first.

    The round at distance ``d`` pairs every multiple ``i`` of ``2d``
    with ``i + d``; member 0 is the root.
    """
    pairs = []
    distance = 1
    while distance < m:
        parent = np.arange(0, m - distance, 2 * distance)
        pairs.append((parent, parent + distance))
        distance *= 2
    return pairs


def _tree_reduce_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    """Binomial reduce of the whole buffer into ``members[0]``."""
    return [
        Step(members[child], members[parent], np.full(child.size, base[0]),
             np.full(child.size, base[1]), np.ones(child.size, dtype=bool))
        for parent, child in _tree_pairs(members.size)
    ]


def _tree_broadcast_steps(members: np.ndarray, base: np.ndarray) -> list[Step]:
    """Binomial broadcast from ``members[0]``: the reduce rounds reversed."""
    return [
        Step(members[parent], members[child], np.full(child.size, base[0]),
             np.full(child.size, base[1]), np.zeros(child.size, dtype=bool))
        for parent, child in reversed(_tree_pairs(members.size))
    ]


def _tree_block_count(m: int) -> int:
    return 1


def _tree_owner_local(block: int, m: int) -> int:
    """The root, member 0, holds the one reduced block."""
    return 0


_FAMILIES = {
    "bandwidth": (_ring_block_count, _ring_rs_steps, _ring_ag_steps, _ring_owner_local),
    "latency": (_hd_block_count, _hd_rs_steps, _hd_ag_steps, _hd_owner_local),
    "tree": (_tree_block_count, _tree_reduce_steps, _tree_broadcast_steps,
             _tree_owner_local),
}


# -- whole-topology synthesis --------------------------------------------------


def _flat_schedule(topology: Topology, op: str, objective: str) -> Schedule:
    blocks_of, rs_builder, ag_builder, owner_local = _FAMILIES[objective]
    members = np.arange(topology.world_size)
    m = members.size
    blocks = blocks_of(m)
    base = np.arange(blocks + 1)
    chunks = ChunkSpec(factors=(blocks,))
    owner = np.array([members[owner_local(b, m)] for b in range(blocks)])

    rs = rs_builder(members, base) if op != "all_gather" else []
    ag = ag_builder(members, base) if op != "reduce_scatter" else []
    return Schedule(
        op=op, objective=objective, topology=topology, chunks=chunks,
        steps=tuple(rs + ag), owner=owner, rs_steps=len(rs),
        meta={"structure": "flat", "step_bound": declared_step_bound(topology, op, objective)},
    )


def _two_level_schedule(topology: Topology, op: str, objective: str) -> Schedule:
    blocks_of, rs_builder, ag_builder, owner_local = _FAMILIES[objective]
    g = topology.gpus_per_node
    n = topology.nodes
    intra_blocks = blocks_of(g)
    inter_blocks = blocks_of(n)
    chunks = ChunkSpec(factors=(intra_blocks, inter_blocks))
    groups = [np.array(group) for group in topology.groups]

    # Column for intra block c: the rank in each node that owns that
    # block after the intra phase.
    columns = [
        np.array([group[owner_local(c, g)] for group in groups])
        for c in range(intra_blocks)
    ]
    col_bases = [
        c * inter_blocks + np.arange(inter_blocks + 1) for c in range(intra_blocks)
    ]
    intra_base = np.arange(intra_blocks + 1) * inter_blocks

    owner = np.empty(chunks.count, dtype=np.int64)
    for c in range(intra_blocks):
        for j in range(inter_blocks):
            owner[c * inter_blocks + j] = columns[c][owner_local(j, n)]

    def merged(per_unit_steps: list[list[Step]]) -> list[Step]:
        lengths = {len(steps) for steps in per_unit_steps}
        assert len(lengths) == 1, "concurrent sub-schedules must align"
        return [
            Step.merge([steps[i] for steps in per_unit_steps])
            for i in range(lengths.pop())
        ]

    rs: list[Step] = []
    ag: list[Step] = []
    if op != "all_gather":
        rs.extend(merged([rs_builder(group, intra_base) for group in groups]))
        rs.extend(merged([
            rs_builder(columns[c], col_bases[c]) for c in range(intra_blocks)
        ]))
    if op != "reduce_scatter":
        ag.extend(merged([
            ag_builder(columns[c], col_bases[c]) for c in range(intra_blocks)
        ]))
        ag.extend(merged([ag_builder(group, intra_base) for group in groups]))
    return Schedule(
        op=op, objective=objective, topology=topology, chunks=chunks,
        steps=tuple(rs + ag), owner=owner, rs_steps=len(rs),
        meta={
            "structure": "two_level",
            "step_bound": declared_step_bound(topology, op, objective),
        },
    )


def _is_two_level(topology: Topology) -> bool:
    return topology.multi_node and topology.uniform and topology.gpus_per_node > 1


def synthesize(topology: Topology, op: str, objective: str) -> Schedule:
    """Derive a schedule for ``op`` on ``topology`` under ``objective``.

    Uniform multi-node topologies get the two-level composition (each
    level synthesized under the objective independently); everything
    else — single node, one GPU per node, non-uniform groups — gets the
    objective's flat schedule over all ranks.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected {OBJECTIVES}")
    if _is_two_level(topology):
        return _two_level_schedule(topology, op, objective)
    return _flat_schedule(topology, op, objective)


def _phase_steps(m: int, objective: str) -> int:
    """Rounds of one flat phase (RS or AG) over ``m`` members.

    Latency and tree phases both take ``ceil(log2 m)`` rounds.
    """
    if m == 1:
        return 0
    if objective == "bandwidth":
        return m - 1
    core = _pow2_floor(m)
    return int(math.log2(core)) + (1 if m > core else 0)


def declared_step_bound(topology: Topology, op: str, objective: str) -> int:
    """The synthesizer's promised step count (pinned by the property suite).

    Latency schedules take ``ceil(log2)``-ish rounds per phase and
    bandwidth schedules ``m - 1``; two-level compositions sum their
    levels; ``all_reduce`` doubles (RS + AG phases mirror).
    """
    if _is_two_level(topology):
        per_phase = _phase_steps(topology.gpus_per_node, objective) + _phase_steps(
            topology.nodes, objective
        )
    else:
        per_phase = _phase_steps(topology.world_size, objective)
    return per_phase * (2 if op == "all_reduce" else 1)


# -- schedule cache ------------------------------------------------------------

_CACHE: dict[tuple, Schedule] = {}


def _cached(topology: Topology, op: str, family: str, build) -> Schedule:
    key = (topology.signature(), op, family)
    schedule = _CACHE.get(key)
    if schedule is None:
        schedule = _CACHE[key] = build(topology, op, family)
    return schedule


def schedule_for(topology: Topology, op: str, objective: str) -> Schedule:
    """Cached :func:`synthesize` (schedules are immutable and
    link-independent, so one per topology *structure* suffices)."""
    return _cached(topology, op, objective, synthesize)


#: Data-level algorithm name -> the schedule family it runs.
_ALGORITHM_FAMILY = {
    "ring": "bandwidth",
    "halving_doubling": "latency",
    "tree": "tree",
    "hierarchical": "bandwidth",
    **ALGORITHM_OBJECTIVE,
}


def algorithm_schedule(algorithm: str, op: str, world_size: int,
                       gpus_per_node: Optional[int] = None) -> Schedule:
    """The cached schedule data-level ``algorithm`` runs for ``op``.

    - ``"ring"``: the flat bandwidth schedule (rank ``i`` owns chunk
      ``(i + 1) % P`` after the reduce-scatter);
    - ``"halving_doubling"``: the flat latency schedule (rank ``i`` owns
      block ``i``).  The world must be a power of two: the latency
      family folds any other world, which is a different algorithm;
    - ``"tree"``: binomial reduce to rank 0, then binomial broadcast,
      over one chunk (the timing model prices NCCL's pipelined double
      binary tree instead);
    - ``"hierarchical"``: the bandwidth schedule on the
      ``world / gpus_per_node`` x ``gpus_per_node`` topology — intra-node
      rings, then per-shard inter-node rings; the flat ring with one
      node or one GPU per node;
    - ``"synth_lat"`` / ``"synth_bw"``: that objective on the flat
      topology, or on the two-level one when ``gpus_per_node`` is given.

    ``gpus_per_node`` is ignored by the flat algorithms.
    """
    family = _ALGORITHM_FAMILY.get(algorithm)
    if family is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{tuple(_ALGORITHM_FAMILY)}"
        )
    if algorithm == "halving_doubling" and world_size & (world_size - 1):
        raise ValueError(
            f"halving-doubling requires a power-of-two world size, got {world_size}"
        )
    if algorithm == "hierarchical" and gpus_per_node is None:
        raise ValueError("hierarchical algorithm requires gpus_per_node")
    if gpus_per_node is None or algorithm in ("ring", "halving_doubling", "tree"):
        topology = Topology.flat(world_size)
    elif gpus_per_node < 1 or world_size % gpus_per_node:
        raise ValueError(
            f"world size {world_size} not divisible by gpus_per_node {gpus_per_node}"
        )
    else:
        topology = Topology.from_shape(world_size // gpus_per_node, gpus_per_node)
    if family == "tree":
        return _cached(topology, op, family, _flat_schedule)
    return schedule_for(topology, op, family)


def schedule_for_cluster(cluster: ClusterSpec, op: str, objective: str) -> Schedule:
    """The cached schedule for a cluster spec's block-placed topology."""
    return schedule_for(Topology.from_cluster(cluster), op, objective)


def clear_schedule_cache() -> None:
    """Drop every cached schedule (tests and bench isolation)."""
    _CACHE.clear()

"""Collective-communication time formulas in the alpha–beta model.

All functions take the message size in **bytes** (the size of the full
gradient buffer being aggregated), the number of participating workers
``p``, and per-hop ``alpha`` (s) / ``beta`` (s/byte).  They return the
wall-clock time of the collective in seconds.  Each formula is plain
arithmetic, so ``nbytes`` may be a Python float or a numpy size vector:
the schedulers' scalar queries and the autotuner's vectorized sweeps
run the same code.

The ring formulas are exactly the paper's Eq. 3–5:

- reduce-scatter:  ``t_rs = (P-1) * (alpha + (d/P) * beta)``
- all-gather:      ``t_ag = (P-1) * (alpha + (d/P) * beta)``
- all-reduce:      ``t_ar = t_rs + t_ag = 2(P-1)alpha + 2(P-1)d/P beta``

The optional ``gamma`` term charges the per-byte reduction arithmetic
(the paper omits it in Eq. 3; we default it to 0 for parity but keep it
available for sensitivity studies).

:func:`collective_price` is the single dispatch from (operation,
algorithm) to formula; :class:`CollectiveTimeModel` and
:func:`repro.network.protocol.collective_times` both price through it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.network.fabric import ClusterSpec
from repro.network.protocol import resolve_links
from repro.telemetry.registry import default_registry

__all__ = [
    "ring_reduce_scatter_time",
    "ring_all_gather_time",
    "ring_all_reduce_time",
    "recursive_halving_reduce_scatter_time",
    "recursive_doubling_all_gather_time",
    "tree_reduce_time",
    "tree_broadcast_time",
    "tree_all_reduce_time",
    "hierarchical_reduce_scatter_time",
    "hierarchical_all_gather_time",
    "hierarchical_all_reduce_time",
    "pairwise_all_to_all_time",
    "bruck_all_to_all_time",
    "hierarchical_all_to_all_time",
    "send_recv_time",
    "broadcast_time",
    "negotiation_time",
    "collective_price",
    "CollectiveTimeModel",
]


def _check_size(nbytes) -> None:
    if (nbytes < 0).any() if isinstance(nbytes, np.ndarray) else nbytes < 0:
        raise ValueError(f"message size must be non-negative, got {nbytes}")


def _validate(nbytes, p: int) -> None:
    _check_size(nbytes)
    if p < 1:
        raise ValueError(f"worker count must be >= 1, got {p}")


def ring_reduce_scatter_time(
    nbytes: float, p: int, alpha: float, beta: float, gamma: float = 0.0,
    chunks: int = 1,
) -> float:
    """Ring reduce-scatter over ``p`` workers (paper Eq. 3).

    ``P-1`` rounds, each sending one ``d/P`` chunk to the ring neighbour
    and reducing the received chunk (``gamma`` per byte, default free).
    ``chunks > 1`` pipelines each round's payload: ``(P-1 + k-1)``
    stages of ``d/(P*k)`` bytes.
    """
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    chunk = nbytes / (p * chunks)
    return (p - 1 + chunks - 1) * (alpha + chunk * beta + chunk * gamma)


def ring_all_gather_time(
    nbytes: float, p: int, alpha: float, beta: float, chunks: int = 1
) -> float:
    """Ring all-gather over ``p`` workers (paper Eq. 4), optionally chunked."""
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    chunk = nbytes / (p * chunks)
    return (p - 1 + chunks - 1) * (alpha + chunk * beta)


def ring_all_reduce_time(
    nbytes: float, p: int, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Ring all-reduce = reduce-scatter followed by all-gather (Eq. 5)."""
    return ring_reduce_scatter_time(nbytes, p, alpha, beta, gamma) + ring_all_gather_time(
        nbytes, p, alpha, beta
    )


def recursive_halving_reduce_scatter_time(
    nbytes: float, p: int, alpha: float, beta: float, gamma: float = 0.0
) -> float:
    """Recursive-halving reduce-scatter (Rabenseifner).

    ``log2(P)`` rounds with geometrically shrinking messages:
    ``t = log2(P) alpha + (P-1)/P d beta``.  Requires ``p`` to be a
    power of two (as in MPICH's fast path).
    """
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    if p & (p - 1):
        raise ValueError(f"recursive halving requires power-of-two workers, got {p}")
    rounds = int(math.log2(p))
    volume = nbytes * (p - 1) / p
    return rounds * alpha + volume * (beta + gamma)


def recursive_doubling_all_gather_time(nbytes: float, p: int, alpha: float, beta: float) -> float:
    """Recursive-doubling all-gather, the mirror of recursive halving."""
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    if p & (p - 1):
        raise ValueError(f"recursive doubling requires power-of-two workers, got {p}")
    rounds = int(math.log2(p))
    volume = nbytes * (p - 1) / p
    return rounds * alpha + volume * beta


def tree_reduce_time(
    nbytes: float,
    p: int,
    alpha: float,
    beta: float,
    gamma: float = 0.0,
    pipeline_chunks: int = 16,
) -> float:
    """Pipelined double-binary-tree reduce (Sanders et al., NCCL trees).

    The message is split across two complementary binary trees (half
    each) and pipelined in ``pipeline_chunks`` blocks down a tree of
    depth ``ceil(log2 P)``.  Each rank still moves the full ``d`` bytes
    per phase (its half up each tree, interleaved send/receive), so the
    bandwidth term matches the ring's ``~d * beta``; the win is the
    logarithmic latency: ``(depth + chunks - 1)`` pipeline stages
    instead of ``P - 1`` ring rounds.
    """
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    depth = max(1, math.ceil(math.log2(p)))
    chunks = max(1, pipeline_chunks)
    per_chunk = nbytes / chunks
    return (depth + chunks - 1) * (alpha + per_chunk * (beta + gamma))


def tree_broadcast_time(
    nbytes: float, p: int, alpha: float, beta: float, pipeline_chunks: int = 16
) -> float:
    """Pipelined double-binary-tree broadcast (the mirror of tree reduce)."""
    return tree_reduce_time(nbytes, p, alpha, beta, gamma=0.0, pipeline_chunks=pipeline_chunks)


def tree_all_reduce_time(
    nbytes: float,
    p: int,
    alpha: float,
    beta: float,
    gamma: float = 0.0,
    pipeline_chunks: int = 16,
) -> float:
    """Double-binary-tree all-reduce = tree reduce + tree broadcast."""
    return tree_reduce_time(
        nbytes, p, alpha, beta, gamma=gamma, pipeline_chunks=pipeline_chunks
    ) + tree_broadcast_time(nbytes, p, alpha, beta, pipeline_chunks=pipeline_chunks)


def broadcast_time(nbytes: float, p: int, alpha: float, beta: float) -> float:
    """Binomial-tree broadcast: ``ceil(log2 P)`` rounds of the full message."""
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    return math.ceil(math.log2(p)) * (alpha + nbytes * beta)


def hierarchical_reduce_scatter_time(
    nbytes: float,
    nodes: int,
    gpus_per_node: int,
    intra_alpha: float,
    intra_beta: float,
    inter_alpha: float,
    inter_beta: float,
    chunks: int = 1,
) -> float:
    """Two-level reduce-scatter: intra-node ring RS then inter-node ring RS.

    After the intra-node phase each GPU holds ``d / g`` reduced bytes;
    the inter-node phase runs ``g`` concurrent rings of ``nodes`` peers
    over disjoint chunks (the Mikami et al. hierarchical scheme the
    paper cites as decomposable).  The ``g`` rings share each node's
    single NIC, so the effective per-ring inter-node bandwidth is
    ``1/g`` of the link's — the scheme wins on latency (fewer rounds),
    not on inter-node volume.  ``chunks`` pipelines the inter phase.
    """
    _validate(nbytes, nodes * gpus_per_node)
    intra = ring_reduce_scatter_time(nbytes, gpus_per_node, intra_alpha, intra_beta)
    inter = ring_reduce_scatter_time(
        nbytes / gpus_per_node, nodes, inter_alpha, inter_beta * gpus_per_node,
        chunks=chunks,
    )
    return intra + inter


def hierarchical_all_gather_time(
    nbytes: float,
    nodes: int,
    gpus_per_node: int,
    intra_alpha: float,
    intra_beta: float,
    inter_alpha: float,
    inter_beta: float,
    chunks: int = 1,
) -> float:
    """Two-level all-gather, the mirror of the hierarchical reduce-scatter."""
    _validate(nbytes, nodes * gpus_per_node)
    inter = ring_all_gather_time(
        nbytes / gpus_per_node, nodes, inter_alpha, inter_beta * gpus_per_node, chunks
    )
    intra = ring_all_gather_time(nbytes, gpus_per_node, intra_alpha, intra_beta)
    return inter + intra


def hierarchical_all_reduce_time(
    nbytes: float,
    nodes: int,
    gpus_per_node: int,
    intra_alpha: float,
    intra_beta: float,
    inter_alpha: float,
    inter_beta: float,
) -> float:
    """Two-level all-reduce = hierarchical RS followed by hierarchical AG."""
    return hierarchical_reduce_scatter_time(
        nbytes, nodes, gpus_per_node, intra_alpha, intra_beta, inter_alpha, inter_beta
    ) + hierarchical_all_gather_time(
        nbytes, nodes, gpus_per_node, intra_alpha, intra_beta, inter_alpha, inter_beta
    )


def pairwise_all_to_all_time(
    nbytes: float, p: int, alpha: float, beta: float, chunks: int = 1
) -> float:
    """Pairwise-exchange all-to-all over ``p`` workers.

    ``nbytes`` is the per-rank send buffer; each of the ``P-1`` rounds
    exchanges one ``d/P`` chunk with a distinct peer (the classic
    XOR/modular pairwise schedule), written exactly like
    :func:`ring_all_gather_time` so the two ops share float association.
    """
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    chunk = nbytes / (p * chunks)
    return (p - 1 + chunks - 1) * (alpha + chunk * beta)


def bruck_all_to_all_time(nbytes: float, p: int, alpha: float, beta: float) -> float:
    """Bruck all-to-all: ``log2(P)`` rounds of ``d/2`` bytes each.

    Trades bandwidth (each round forwards half the buffer) for
    logarithmic latency — the small-message analogue of recursive
    halving, and like it restricted to power-of-two worlds.
    """
    _validate(nbytes, p)
    if p == 1:
        return 0.0 * nbytes
    if p & (p - 1):
        raise ValueError(f"Bruck all-to-all requires power-of-two workers, got {p}")
    rounds = int(math.log2(p))
    half = nbytes / 2
    return rounds * (alpha + half * beta)


def hierarchical_all_to_all_time(
    nbytes: float,
    nodes: int,
    gpus_per_node: int,
    intra_alpha: float,
    intra_beta: float,
    inter_alpha: float,
    inter_beta: float,
    chunks: int = 1,
) -> float:
    """Two-level all-to-all: intra-node exchange, then inter-node exchange.

    Phase one shuffles within each node so every GPU holds the chunks
    bound for its column of remote peers; phase two runs ``g``
    concurrent pairwise exchanges of ``nodes`` peers sharing each
    node's NIC (``1/g`` of the link per exchange).  Unlike the
    hierarchical reduce-scatter the payload does not shrink between
    phases — all-to-all data is personalized, nothing is reduced away.
    """
    _validate(nbytes, nodes * gpus_per_node)
    intra = pairwise_all_to_all_time(nbytes, gpus_per_node, intra_alpha, intra_beta)
    inter = pairwise_all_to_all_time(
        nbytes, nodes, inter_alpha, inter_beta * gpus_per_node, chunks
    )
    return intra + inter


def send_recv_time(nbytes: float, alpha: float, beta: float) -> float:
    """One point-to-point message: ``alpha + d * beta``."""
    _check_size(nbytes)
    return alpha + nbytes * beta


def negotiation_time(p: int, alpha: float, payload_bytes: float = 8.0, beta: float = 0.0) -> float:
    """Cost of one readiness-consensus round among ``p`` workers.

    Horovod's coordinator and ByteScheduler's per-tensor negotiation
    both reduce/exchange a few bytes of metadata; the cost is dominated
    by latency.  Modelled as a ring all-reduce of ``payload_bytes``.
    """
    return ring_all_reduce_time(payload_bytes, p, alpha, beta)


# -- the (algorithm, op) -> formula table --------------------------------------
#
# Every row takes (nbytes, cluster, links, gamma, chunks), where ``links``
# is the (flat, intra, inter) triple of (alpha, beta) pairs returned by
# :func:`repro.network.protocol.resolve_links`.  Flat algorithms run on
# ``flat``; the two-level ones run their intra-node phase on ``intra``
# and their inter-node phase on ``inter``.


def _pairwise(d, c, links, gamma, chunks):
    return pairwise_all_to_all_time(d, c.world_size, *links[0], chunks)


def _synthesized(op: str, objective: str):
    def price(d, c, links, gamma, chunks):
        # Late import: the synthesizer lives with the data-level collectives.
        from repro.collectives.synthesis import schedule_for_cluster, schedule_times

        # Like hierarchical, the governing link runs under the protocol
        # tier and the other at the calibrated baseline; single-node
        # worlds are governed by the intra-node link.
        intra = links[1] if c.multi_node else links[0]
        t = schedule_times(schedule_for_cluster(c, op, objective), d, intra, links[2], gamma)
        return t if isinstance(d, np.ndarray) else float(t)

    return price


_FORMULAS = {
    ("ring", "reduce_scatter"): lambda d, c, links, gamma, chunks: (
        ring_reduce_scatter_time(d, c.world_size, *links[0], gamma, chunks)),
    ("ring", "all_gather"): lambda d, c, links, gamma, chunks: (
        ring_all_gather_time(d, c.world_size, *links[0], chunks)),
    ("ring", "all_to_all"): _pairwise,
    ("halving_doubling", "reduce_scatter"): lambda d, c, links, gamma, chunks: (
        recursive_halving_reduce_scatter_time(d, c.world_size, *links[0], gamma)),
    ("halving_doubling", "all_gather"): lambda d, c, links, gamma, chunks: (
        recursive_doubling_all_gather_time(d, c.world_size, *links[0])),
    ("halving_doubling", "all_to_all"): lambda d, c, links, gamma, chunks: (
        bruck_all_to_all_time(d, c.world_size, *links[0])),
    ("tree", "reduce_scatter"): lambda d, c, links, gamma, chunks: (
        tree_reduce_time(d, c.world_size, *links[0], gamma)),
    ("tree", "all_gather"): lambda d, c, links, gamma, chunks: (
        tree_broadcast_time(d, c.world_size, *links[0])),
    # Trees and the synthesizers have no personalized-exchange schedule;
    # their all-to-all is the pairwise exchange.
    ("tree", "all_to_all"): _pairwise,
    ("hierarchical", "reduce_scatter"): lambda d, c, links, gamma, chunks: (
        hierarchical_reduce_scatter_time(
            d, c.nodes, c.gpus_per_node, *links[1], *links[2], chunks)),
    ("hierarchical", "all_gather"): lambda d, c, links, gamma, chunks: (
        hierarchical_all_gather_time(
            d, c.nodes, c.gpus_per_node, *links[1], *links[2], chunks)),
    ("hierarchical", "all_to_all"): lambda d, c, links, gamma, chunks: (
        hierarchical_all_to_all_time(
            d, c.nodes, c.gpus_per_node, *links[1], *links[2], chunks)),
    ("synth_lat", "all_to_all"): _pairwise,
    ("synth_bw", "all_to_all"): _pairwise,
    **{
        (algorithm, op): _synthesized(op, objective)
        for algorithm, objective in (("synth_lat", "latency"), ("synth_bw", "bandwidth"))
        for op in ("reduce_scatter", "all_gather", "all_reduce")
    },
}


def collective_price(
    op: str,
    algorithm: str,
    nbytes,
    cluster: ClusterSpec,
    links,
    gamma: float = 0.0,
    chunks: int = 1,
):
    """Alpha-beta time of one collective, without the startup overhead.

    ``op`` is ``"reduce_scatter"``, ``"all_gather"``, ``"all_to_all"``
    or ``"all_reduce"``; a preset's all-reduce is its reduce-scatter
    plus its all-gather, a synthesized one is its own schedule.
    ``nbytes`` is a float or a size vector; ``chunks`` pipelines the
    ring-style rounds.
    """
    formula = _FORMULAS.get((algorithm, op))
    if formula is not None:
        return formula(nbytes, cluster, links, gamma, chunks)
    if op == "all_reduce" and (algorithm, "reduce_scatter") in _FORMULAS:
        return collective_price(
            "reduce_scatter", algorithm, nbytes, cluster, links, gamma, chunks
        ) + collective_price("all_gather", algorithm, nbytes, cluster, links, gamma, chunks)
    raise ValueError(f"unknown algorithm {algorithm!r} for op {op!r}")


class CollectiveTimeModel:
    """Collective times for one cluster and one algorithm family.

    This is the facade the schedulers use: ``model.all_reduce(nbytes)``
    etc.  ``algorithm`` selects the formula family:

    - ``"ring"`` (default, NCCL's choice on the paper's testbed),
    - ``"halving_doubling"``,
    - ``"tree"`` (double binary tree; its decoupling is reduce+broadcast),
    - ``"hierarchical"`` (two-level ring),
    - ``"synth_lat"`` / ``"synth_bw"`` (schedules synthesized for the
      cluster's declared topology by
      :mod:`repro.collectives.synthesis` and priced step by step).

    ``startup_overhead`` adds a fixed per-collective software cost
    (kernel launch, hook dispatch) on top of the alpha–beta time.

    Two opt-in extensions (defaults leave every existing result
    bit-identical, pinned by the differential tests):

    - ``"auto"`` consults a per-size :class:`SelectionTable
      <repro.network.autotuner.SelectionTable>` — pass one as ``table``,
      or register one process-wide via
      :func:`repro.network.autotuner.register_table`.  With no table
      loaded, ``"auto"`` IS plain ring, bit-for-bit.
    - ``protocol`` / ``channels`` / ``ring_chunks`` route a fixed
      algorithm through the protocol-aware model of
      :mod:`repro.network.protocol` (NCCL tiers, channel striping,
      chunked pipelining).

    The effective (alpha, beta) pairs are resolved once here (once per
    table selection for ``"auto"``), and every collective is priced by
    :func:`collective_price`.

    Results are memoized per instance: sweeps and BO warm-up query the
    same handful of ``nbytes`` values thousands of times, so each
    (operation, nbytes) pair is computed once.  The model is treated as
    immutable after construction — mutate ``algorithm`` / ``gamma`` /
    ``startup_overhead`` on a live instance and the memo goes stale;
    build a fresh model instead (:meth:`with_cluster` rebuilds one over
    another cluster).
    """

    ALGORITHMS = (
        "ring", "halving_doubling", "tree", "hierarchical",
        "synth_lat", "synth_bw", "auto",
    )

    def __init__(
        self,
        cluster: ClusterSpec,
        algorithm: str = "ring",
        gamma: float = 0.0,
        startup_overhead: float = 0.0,
        protocol: str | None = None,
        channels: int | None = None,
        ring_chunks: int = 1,
        table=None,
    ):
        if algorithm not in self.ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {self.ALGORITHMS}"
            )
        if algorithm == "halving_doubling" and cluster.world_size & (cluster.world_size - 1):
            raise ValueError("halving_doubling requires a power-of-two world size")
        if ring_chunks < 1:
            raise ValueError(f"ring_chunks must be >= 1, got {ring_chunks}")
        self.cluster = cluster
        self.algorithm = algorithm
        self.gamma = gamma
        self.startup_overhead = startup_overhead
        self.protocol = protocol
        self.channels = channels
        self.ring_chunks = ring_chunks
        if algorithm == "auto":
            if table is None:
                # Lazy import: the plain model must not depend on the
                # autotuner machinery.
                from repro.network.autotuner import table_for

                table = table_for(cluster)
            self._table = table
        else:
            self._table = None
        #: Fixed-algorithm protocol modeling engaged?  (``"auto"`` makes
        #: its own per-size choice and is handled separately.)
        self._protocol_mode = (
            protocol is not None or channels is not None or ring_chunks != 1
        )
        if self._protocol_mode and algorithm == "auto":
            raise ValueError(
                "algorithm='auto' picks protocol/channels per size; "
                "do not also pass fixed protocol/channels/ring_chunks"
            )
        self._alpha, self._beta = cluster.flat_alpha_beta()
        #: What every call without a table selection is priced with
        #: (``"auto"`` falls back to plain ring).
        self._algorithm = "ring" if algorithm == "auto" else algorithm
        self._links = resolve_links(cluster, protocol, channels)[1]
        #: Table selection -> its resolved links.
        self._selection_links: dict = {}
        #: (operation tag, nbytes) -> seconds; missing is None (0.0 is
        #: a legitimate cached value for empty messages).
        self._memo: dict[tuple, float] = {}
        # Children are bound once here so the per-query cost is a single
        # attribute add (sweeps and BO issue millions of lookups).
        registry = default_registry()
        queries = registry.counter(
            "costmodel.queries", "collective time-model lookups"
        )
        hits = registry.counter(
            "costmodel.memo_hits", "lookups served from the per-instance memo"
        )
        self._query_counters = {
            op: queries.labels(op=op, algorithm=algorithm)
            for op in ("rs", "ag", "neg", "a2a", "p2p", "sub")
        }
        self._hit_counters = {
            op: hits.labels(op=op, algorithm=algorithm)
            for op in ("rs", "ag", "neg", "a2a", "p2p", "sub")
        }

    def with_cluster(self, cluster: ClusterSpec) -> "CollectiveTimeModel":
        """The same pricing settings over another cluster (e.g. degraded links).

        Carries the algorithm, gamma, overhead, protocol, channels, ring
        chunking and this model's resolved selection table — an untabled
        ``"auto"`` stays untabled instead of consulting the registry.
        """
        model = CollectiveTimeModel(
            cluster, self.algorithm, self.gamma, self.startup_overhead,
            self.protocol, self.channels, self.ring_chunks, self._table,
        )
        model._table = self._table
        return model

    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    @property
    def trace_algorithm(self) -> str:
        """The algorithm tracers should record for this model's calls.

        ``"auto"`` with no table loaded IS the plain ring model, and the
        differential tests pin its traces byte-identical to ring's — so
        it reports ``"ring"``; with a table it genuinely dispatches per
        size and reports ``"auto"``.
        """
        if self.algorithm == "auto" and self._table is None:
            return "ring"
        return self.algorithm

    @property
    def alpha(self) -> float:
        """Flat-ring per-hop latency of the bound cluster."""
        return self._alpha

    @property
    def beta(self) -> float:
        """Flat-ring per-byte time of the bound cluster."""
        return self._beta

    @property
    def min_bandwidth(self) -> float:
        """Bottleneck link bandwidth ``B`` used by the S^max model (bytes/s)."""
        return 1.0 / self._beta

    def _memoized(self, key: tuple, price, *args) -> float:
        """``price(*args)`` memoized under ``key``, whose first item labels
        the ``costmodel.queries`` / ``costmodel.memo_hits`` counters."""
        op = key[0]
        self._query_counters[op].inc()
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = price(*args)
        else:
            self._hit_counters[op].inc()
        return cached

    def collective_times(self, kind: str, sizes: Sequence[float]) -> list[float]:
        """``[self.<kind>(nbytes) for nbytes in sizes]``, with the decoupled
        pair priced in one memo pass each: the same floats and the same
        ``costmodel.queries`` / ``costmodel.memo_hits`` counts."""
        if kind == "all_reduce" and min(sizes, default=1) > 0:
            overhead = self.startup_overhead
            return [rs + ag - overhead for rs, ag in zip(
                self._memo_pass("rs", "reduce_scatter", sizes),
                self._memo_pass("ag", "all_gather", sizes),
            )]
        tag = {"reduce_scatter": "rs", "all_gather": "ag"}.get(kind)
        if tag is None:
            return [getattr(self, kind)(nbytes) for nbytes in sizes]
        return self._memo_pass(tag, kind, sizes)

    def _memo_pass(self, tag: str, op: str, sizes: Sequence[float]) -> list[float]:
        """:meth:`_memoized` ``_collective(op, nbytes)`` of every size."""
        memo = self._memo
        times = []
        misses = 0
        for nbytes in sizes:
            cached = memo.get((tag, nbytes))
            if cached is None:
                cached = memo[tag, nbytes] = self._collective(op, nbytes)
                misses += 1
            times.append(cached)
        self._query_counters[tag].inc(len(times))
        self._hit_counters[tag].inc(len(times) - misses)
        return times

    def _finish(self, t: float, nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        return t + self.startup_overhead

    def _collective(self, op: str, nbytes: float) -> float:
        _check_size(nbytes)
        algorithm, links, chunks = self._algorithm, self._links, self.ring_chunks
        if self._table is not None:
            selection = self._table.lookup(op, nbytes)
            if selection is not None:
                algorithm, chunks = selection.algorithm, 1
                links = self._selection_links.get(selection)
                if links is None:
                    links = self._selection_links[selection] = resolve_links(
                        self.cluster, selection.protocol, selection.channels
                    )[1]
        t = collective_price(op, algorithm, nbytes, self.cluster, links, self.gamma, chunks)
        return self._finish(t, nbytes)

    def reduce_scatter(self, nbytes: float) -> float:
        """Time of the first decoupled operation (OP1) for ``nbytes``."""
        return self._memoized(("rs", nbytes), self._collective, "reduce_scatter", nbytes)

    def all_gather(self, nbytes: float) -> float:
        """Time of the second decoupled operation (OP2) for ``nbytes``."""
        return self._memoized(("ag", nbytes), self._collective, "all_gather", nbytes)

    def all_reduce(self, nbytes: float) -> float:
        """Time of the fused primitive; equals RS + AG by construction."""
        if nbytes <= 0:
            _check_size(nbytes)
            return 0.0
        return self.reduce_scatter(nbytes) + self.all_gather(nbytes) - self.startup_overhead

    def all_to_all(self, nbytes: float) -> float:
        """Personalized exchange of a ``nbytes`` per-rank send buffer.

        ``ring`` (and untabled ``auto``) price the pairwise-exchange
        schedule; ``halving_doubling`` prices Bruck; ``tree`` and the
        synthesized families have no personalized-exchange analogue and
        fall back to pairwise; ``hierarchical`` prices the two-phase
        node-then-NIC shuffle.
        """
        return self._memoized(("a2a", nbytes), self._collective, "all_to_all", nbytes)

    def all_to_allv(self, nbytes: float) -> float:
        """Variable-count exchange, priced at the busiest rank's bytes.

        ``nbytes`` is the largest per-rank send buffer: the synchronous
        exchange completes when the heaviest rank finishes, so the
        uniform formula at that size bounds the collective.  Kept as a
        named method (not an alias) because the timing fault injector
        dispatches on collective kind via ``getattr``.
        """
        return self.all_to_all(nbytes)

    def send_recv(self, nbytes: float) -> float:
        """One point-to-point message on the flat fabric."""
        return self._memoized(("p2p", nbytes), self._subgroup, "send_recv", nbytes, 1)

    def subgroup_time(self, kind: str, nbytes: float, peers: int) -> float:
        """Price a collective restricted to a ``peers``-rank subgroup.

        Workload DAGs use subgroup collectives for tensor-parallel
        all-reduces and expert-parallel shuffles that span only part of
        the world (3D parallelism).  Modeling boundary, kept deliberately
        simple: subgroups are priced with the plain flat-ring formulas at
        ``p = peers`` on this cluster's bottleneck link — the protocol
        and selection tables describe full-world launches and do not
        apply, and timing faults do not reprice subgroup collectives.
        ``send_recv`` is group-size independent and ignores ``peers``.
        """
        if peers < 1:
            raise ValueError(f"subgroup collectives need peers >= 1, got {peers}")
        return self._memoized(
            ("sub", kind, nbytes, peers), self._subgroup, kind, nbytes, peers
        )

    def _subgroup(self, kind: str, nbytes: float, p: int) -> float:
        if kind == "send_recv":
            t = send_recv_time(nbytes, self._alpha, self._beta)
        elif kind == "all_reduce":
            t = ring_all_reduce_time(nbytes, p, self._alpha, self._beta, self.gamma)
        elif kind == "reduce_scatter":
            t = ring_reduce_scatter_time(nbytes, p, self._alpha, self._beta, self.gamma)
        elif kind == "all_gather":
            t = ring_all_gather_time(nbytes, p, self._alpha, self._beta)
        elif kind in ("all_to_all", "all_to_allv"):
            t = pairwise_all_to_all_time(nbytes, p, self._alpha, self._beta)
        else:
            raise ValueError(f"unknown collective kind {kind!r}")
        return self._finish(t, nbytes)

    def negotiation(self, payload_bytes: float = 8.0) -> float:
        """One metadata-consensus round on this cluster."""
        return self._memoized(
            ("neg", payload_bytes), negotiation_time,
            self.world_size, self._alpha, payload_bytes, self._beta,
        )

    def describe(self) -> str:
        """One-line summary for reports."""
        mode = self.algorithm
        if self.algorithm == "auto":
            mode = (
                f"auto[{self._table.describe()}]"
                if self._table is not None
                else "auto[no table: ring]"
            )
        elif self._protocol_mode:
            mode = (
                f"{self.algorithm}/{self.protocol or 'simple'}"
                f"/c{self.channels if self.channels is not None else '*'}"
                f"/k{self.ring_chunks}"
            )
        return (
            f"{mode} collectives on {self.cluster.name} "
            f"(alpha={self._alpha * 1e6:.1f}us, beta={self._beta * 1e9:.3f}ns/B)"
        )

"""Policy executors: realize a workload DAG on an iteration context.

The IR (:mod:`repro.workloads.ir`) declares *what* must happen — compute
kernels, literal collectives, and policy-schedulable gradient syncs with
their dependencies.  The executors in this module decide *how* the sync
nodes are realized, which is where the eight scheduling policies differ:

- :func:`execute_serial` — no overlap: all syncs run after the
  iteration's work, fused into buckets, and the next iteration waits
  for the last one (the S-SGD baseline).
- :func:`execute_barrier` — WFBP-family overlap (wfbp / ddp / horovod /
  mg-wfbp): sync buckets launch at gradient readiness and overlap the
  remaining walk, but the next iteration's first compute waits for all
  of them (the coarse synchronization barrier DeAR removes).
- :func:`execute_dear` — DeAR's decoupling: each bucket's all-reduce
  splits into a reduce-scatter at readiness (BackPipe) and an
  all-gather ordered by next-iteration consumer (FeedPipe); consumers
  gate on their own bucket's all-gather only, so the barrier disappears.
- :func:`execute_zero` — sharded optimizer states: reduce-scatter at
  readiness, and the *next* iteration re-gathers each bucket on demand.
- :func:`execute_bytescheduler` — each sync tensor is partitioned and
  the parts are all-reduced at readiness with per-partition credit
  overhead (the priority-queue machinery of the legacy scheduler is
  approximated by FIFO parts; the partition pipelining it models is
  kept).

Everything outside sync realization is shared in :class:`_Execution`:
compute nodes and literal collectives are submitted in node order with
gates resolved from ``deps`` (same iteration) and ``carry_deps``
(previous iteration); a carry on a sync node resolves to whatever event
the policy published for it (bucket all-reduce done, DeAR's all-gather
done, ...).  Both streams are in-order, so submission order is
execution order and every gate is a back-edge — exactly the contract
the vectorized replay engines support, which is why all of these run
bit-identically on the fast paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.workloads.ir import Workload, WorkloadNode

__all__ = [
    "SyncBucket",
    "plan_sync_buckets",
    "asap_ready_times",
    "execute_serial",
    "execute_barrier",
    "execute_dear",
    "execute_zero",
    "execute_bytescheduler",
]


@dataclass(frozen=True)
class SyncBucket:
    """A fused group of sync nodes, all-reduced (or RS/AG'd) together."""

    index: int
    members: tuple[int, ...]
    nbytes: float
    peers: int

    @property
    def last_member(self) -> int:
        """Walk position where the bucket's gradients are complete."""
        return self.members[-1]

    @property
    def label(self) -> str:
        return f"g{self.index}"


def _collective_price(ctx, node: WorkloadNode) -> float:
    """Healthy price of a literal collective (planning only)."""
    if node.peers:
        return ctx.cost.subgroup_time(node.op, node.nbytes, node.peers)
    return getattr(ctx.cost, node.op)(node.nbytes)


def asap_ready_times(ctx, workload: Workload) -> list[float]:
    """Earliest completion of each node, ignoring stream contention.

    The as-soon-as-possible schedule over the DAG with healthy prices;
    the workload analogue of
    :func:`repro.schedulers.mg_wfbp.backward_ready_times`, used to
    decide which adjacent syncs are worth merging.
    """
    times: list[float] = []
    for node in workload.nodes:
        start = max((times[d] for d in node.deps), default=0.0)
        if node.is_compute:
            times.append(start + node.duration)
        elif node.sync:
            times.append(start)  # readiness, not completion
        else:
            times.append(start + _collective_price(ctx, node))
    return times


def plan_sync_buckets(
    workload: Workload,
    bucket_bytes: Optional[float],
    merge_window: Optional[float] = None,
    ready_times: Optional[Sequence[float]] = None,
) -> list[SyncBucket]:
    """Fuse consecutive sync nodes into buckets.

    Two syncs fuse when they are adjacent in sync order, share a
    ``peers`` subgroup, fit ``bucket_bytes`` together (``None`` = never
    fuse), and — when ``merge_window`` is given (MG-WFBP) — become
    ready within ``merge_window`` seconds of each other per
    ``ready_times``.
    """
    buckets: list[SyncBucket] = []
    members: list[int] = []
    total = 0.0
    peers = 0

    def flush():
        nonlocal members, total
        if members:
            buckets.append(
                SyncBucket(len(buckets), tuple(members), total, peers)
            )
            members, total = [], 0.0

    for index in workload.sync_indices:
        node = workload.nodes[index]
        fits = (
            members
            and bucket_bytes is not None
            and node.peers == peers
            and total + node.nbytes <= bucket_bytes
        )
        if fits and merge_window is not None:
            fits = ready_times[index] - ready_times[members[-1]] <= merge_window
        if not fits:
            flush()
            peers = node.peers
        members.append(index)
        total += node.nbytes
    flush()
    return buckets


class _Execution:
    """Shared walk state for one policy execution."""

    def __init__(self, ctx, workload: Workload, iterations: int):
        self.ctx = ctx
        self.workload = workload
        self.iterations = iterations
        #: this iteration's done event per node index (None for syncs).
        self.events: list = []
        #: previous iteration's node events.
        self.prev_events: list = []
        #: sync node index -> carry event published by the policy, for
        #: the *previous* iteration's syncs.
        self.sync_carry: dict[int, object] = {}

    def gate(self, events):
        events = [e for e in events if e is not None]
        if not events:
            return None
        if len(events) == 1:
            return events[0]
        return self.ctx.sim.all_of(events)

    def node_gate(self, node: WorkloadNode, extra=None):
        events = [self.events[d] for d in node.deps]
        if self.prev_events:
            for d in node.carry_deps:
                if self.workload.nodes[d].sync:
                    events.append(self.sync_carry.get(d))
                else:
                    events.append(self.prev_events[d])
        if extra is not None:
            events.append(extra)
        return self.gate(events)

    def submit_node(self, index: int, iteration: int, extra_gate=None):
        """Submit one compute or literal-collective node; returns done."""
        node = self.workload.nodes[index]
        gate = self.node_gate(node, extra=extra_gate)
        if node.is_compute:
            job = self.ctx.submit_compute(
                node.duration, iteration, node.name,
                category=node.category or "compute", gate=gate,
                metadata={"node": index},
            )
            if index == self.workload.first_compute_index:
                self.ctx.ff_first_jobs.append(job)
        else:
            job = self.ctx.submit_collective(
                node.op, node.nbytes, iteration, label=node.name,
                gate=gate, metadata={"node": index},
                peers=node.peers or None,
            )
        done = job.done
        self.events.append(done)
        return done

    def bucket_gate(self, bucket: SyncBucket, extra=None):
        """Readiness gate of a bucket: every member's dependencies."""
        events = [] if extra is None else [extra]
        for index in bucket.members:
            node = self.workload.nodes[index]
            events.extend(self.events[d] for d in node.deps)
            if self.prev_events:
                for d in node.carry_deps:
                    if self.workload.nodes[d].sync:
                        events.append(self.sync_carry.get(d))
                    else:
                        events.append(self.prev_events[d])
        return self.gate(events)

    def bucket_metadata(self, bucket: SyncBucket) -> dict:
        return {"group": bucket.index, "num_tensors": len(bucket.members)}

    def begin_iteration(self):
        self.prev_events, self.events = self.events, []


OverheadFn = Callable[[object, SyncBucket], float]


def execute_serial(ctx, workload: Workload, iterations: int,
                   bucket_bytes: Optional[float]) -> None:
    """All syncs after the iteration's work; next iteration waits."""
    buckets = plan_sync_buckets(workload, bucket_bytes)
    state = _Execution(ctx, workload, iterations)
    barrier = None
    for iteration in range(iterations):
        state.begin_iteration()
        new_carry: dict[int, object] = {}
        for index, node in enumerate(workload.nodes):
            if node.sync:
                state.events.append(None)
                continue
            extra = None
            if barrier is not None and index == workload.first_compute_index:
                extra = barrier
            state.submit_node(index, iteration, extra_gate=extra)
        iteration_done = state.gate([e for e in state.events if e is not None])
        comm_done = []
        for position, bucket in enumerate(buckets):
            job = ctx.submit_collective(
                "all_reduce", bucket.nbytes, iteration, label=bucket.label,
                gate=iteration_done if position == 0 else None,
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            comm_done.append(job.done)
            for member in bucket.members:
                new_carry[member] = job.done
        barrier = state.gate(comm_done)
        state.sync_carry = new_carry


def execute_barrier(ctx, workload: Workload, iterations: int,
                    bucket_bytes: Optional[float],
                    overhead: Optional[OverheadFn] = None,
                    merge_window: Optional[float] = None) -> None:
    """WFBP-family realization: syncs at readiness, coarse barrier.

    ``overhead`` charges per-bucket coordination time (DDP launch
    overhead, Horovod negotiation); ``merge_window`` switches bucket
    planning to MG-WFBP's readiness-gap merging.
    """
    ready = asap_ready_times(ctx, workload) if merge_window is not None else None
    buckets = plan_sync_buckets(
        workload, bucket_bytes, merge_window=merge_window, ready_times=ready
    )
    by_last = {bucket.last_member: bucket for bucket in buckets}
    state = _Execution(ctx, workload, iterations)
    barrier = None
    for iteration in range(iterations):
        state.begin_iteration()
        new_carry: dict[int, object] = {}
        comm_done = []
        for index, node in enumerate(workload.nodes):
            if node.sync:
                state.events.append(None)
            else:
                extra = None
                if barrier is not None and index == workload.first_compute_index:
                    extra = barrier
                state.submit_node(index, iteration, extra_gate=extra)
            bucket = by_last.get(index)
            if bucket is None:
                continue
            job = ctx.submit_collective(
                "all_reduce", bucket.nbytes, iteration, label=bucket.label,
                gate=state.bucket_gate(bucket),
                extra_time=overhead(ctx, bucket) if overhead is not None else 0.0,
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            comm_done.append(job.done)
            for member in bucket.members:
                new_carry[member] = job.done
        barrier = state.gate(comm_done)
        state.sync_carry = new_carry


def execute_dear(ctx, workload: Workload, iterations: int,
                 bucket_bytes: Optional[float]) -> None:
    """DeAR realization: RS at readiness, AGs in consumer order.

    Each bucket's all-reduce decouples into a reduce-scatter launched
    the moment its gradients are ready (BackPipe) and an all-gather
    scheduled in the order next iteration consumes the results
    (FeedPipe): the first all-gather gates on all reduce-scatters
    finishing, the rest follow FIFO, and each carry consumer gates on
    its own bucket's all-gather only — no global barrier.
    """
    buckets = plan_sync_buckets(workload, bucket_bytes)
    by_last = {bucket.last_member: bucket for bucket in buckets}

    def consumer_rank(bucket: SyncBucket):
        consumers = [
            c for member in bucket.members
            for c in workload.consumers_of(member)
        ]
        # Buckets nobody consumes re-gather last, in bucket order.
        return (min(consumers) if consumers else len(workload.nodes),
                bucket.index)

    ag_order = sorted(buckets, key=consumer_rank)
    state = _Execution(ctx, workload, iterations)
    for iteration in range(iterations):
        state.begin_iteration()
        rs_done = {}
        for index, node in enumerate(workload.nodes):
            if node.sync:
                state.events.append(None)
            else:
                state.submit_node(index, iteration)
            bucket = by_last.get(index)
            if bucket is None:
                continue
            job = ctx.submit_collective(
                "reduce_scatter", bucket.nbytes, iteration, label=bucket.label,
                gate=state.bucket_gate(bucket),
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            rs_done[bucket.index] = job.done
        rs_barrier = state.gate(list(rs_done.values()))
        new_carry: dict[int, object] = {}
        for position, bucket in enumerate(ag_order):
            job = ctx.submit_collective(
                "all_gather", bucket.nbytes, iteration, label=bucket.label,
                gate=rs_barrier if position == 0 else None,
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            for member in bucket.members:
                new_carry[member] = job.done
        state.sync_carry = new_carry


def execute_zero(ctx, workload: Workload, iterations: int,
                 bucket_bytes: Optional[float]) -> None:
    """Sharded realization: RS at readiness, re-gather next iteration.

    Gradients reduce-scatter into shards as they become ready; the
    full values are only materialised when the *next* iteration
    starts, one all-gather per bucket each gated on its own
    reduce-scatter (first-iteration consumers run ungated — parameters
    start replicated).
    """
    buckets = plan_sync_buckets(workload, bucket_bytes)
    by_last = {bucket.last_member: bucket for bucket in buckets}
    state = _Execution(ctx, workload, iterations)
    rs_done: dict[int, object] = {}
    for iteration in range(iterations):
        state.begin_iteration()
        new_carry: dict[int, object] = {}
        for bucket in buckets if rs_done else ():
            job = ctx.submit_collective(
                "all_gather", bucket.nbytes, iteration, label=bucket.label,
                gate=rs_done[bucket.index],
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            for member in bucket.members:
                new_carry[member] = job.done
        state.sync_carry = new_carry
        rs_done = {}
        for index, node in enumerate(workload.nodes):
            if node.sync:
                state.events.append(None)
            else:
                state.submit_node(index, iteration)
            bucket = by_last.get(index)
            if bucket is None:
                continue
            job = ctx.submit_collective(
                "reduce_scatter", bucket.nbytes, iteration, label=bucket.label,
                gate=state.bucket_gate(bucket),
                metadata=state.bucket_metadata(bucket),
                peers=bucket.peers or None,
            )
            rs_done[bucket.index] = job.done


def execute_bytescheduler(ctx, workload: Workload, iterations: int,
                          partition_bytes: float,
                          overhead: float = 0.0) -> None:
    """Partitioned realization: each sync splits into equal parts.

    Every sync node all-reduces as ``ceil(nbytes / partition_bytes)``
    equal partitions launched FIFO at readiness, each charged
    ``overhead`` coordination time; the next iteration's first compute
    waits for all partitions (coarse barrier), and a carry consumer
    gates on its sync's last partition.
    """
    state = _Execution(ctx, workload, iterations)
    barrier = None
    for iteration in range(iterations):
        state.begin_iteration()
        new_carry: dict[int, object] = {}
        comm_done = []
        for index, node in enumerate(workload.nodes):
            if not node.sync:
                extra = None
                if barrier is not None and index == workload.first_compute_index:
                    extra = barrier
                state.submit_node(index, iteration, extra_gate=extra)
                continue
            state.events.append(None)
            parts = max(1, math.ceil(node.nbytes / partition_bytes))
            part_bytes = node.nbytes / parts
            gate = state.node_gate(node)
            last = None
            for part in range(parts):
                job = ctx.submit_collective(
                    "all_reduce", part_bytes, iteration,
                    label=f"{node.name}.p{part}",
                    gate=gate if part == 0 else None,
                    extra_time=overhead,
                    metadata={"node": index, "part": part, "parts": parts},
                    peers=node.peers or None,
                )
                last = job.done
                comm_done.append(last)
            new_carry[index] = last
        barrier = state.gate(comm_done)
        state.sync_carry = new_carry

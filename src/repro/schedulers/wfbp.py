"""Wait-free backpropagation (paper Fig. 1(b)/(c)).

Each fusion group's all-reduce is launched as soon as all its gradients
are computed during the backward pass; collectives execute FIFO on the
communication stream.  The next iteration's feed-forward starts only
after *all* of the iteration's communication finished — WFBP overlaps
communication with backpropagation but never with feed-forward, the
sub-optimality DeAR removes.

This class is the base of the WFBP family: PyTorch-DDP, Horovod and
MG-WFBP differ only in the fusion plan and the per-collective overhead,
which subclasses override.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fusion import FusionGroup, FusionPlan, buffer_size_groups, no_fusion_groups
from repro.schedulers.base import Scheduler, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.workloads.executor import SyncBucket, execute_barrier

__all__ = ["WFBPScheduler"]


@register_scheduler
class WFBPScheduler(Scheduler):
    """Wait-free backpropagation with an optional fusion buffer.

    Args:
        buffer_bytes: fusion buffer size; ``None`` (paper's plain WFBP)
            communicates one all-reduce per tensor.
    """

    name = "wfbp"

    def __init__(self, buffer_bytes: Optional[float] = None):
        self.buffer_bytes = buffer_bytes

    # -- extension points for the WFBP family --------------------------------

    def fusion_plan(self, ctx: IterationContext) -> FusionPlan:
        """Which tensors are communicated together."""
        if self.buffer_bytes is None:
            return no_fusion_groups(ctx.model)
        return buffer_size_groups(ctx.model, self.buffer_bytes)

    def collective_overhead(self, ctx: IterationContext, group: FusionGroup) -> float:
        """Per-collective overhead serialised with the all-reduce."""
        return 0.0

    def workload_overhead(self, ctx: IterationContext, bucket: SyncBucket) -> float:
        """Per-bucket overhead on the workload-DAG path (same role as
        :meth:`collective_overhead`, keyed on a sync bucket)."""
        return 0.0

    # -- schedule -------------------------------------------------------------

    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        plan = self.fusion_plan(ctx)
        prev_comm_done = None
        for iteration in range(iterations):
            ctx.submit_forward_pass(iteration, first_gate=prev_comm_done)
            bp = ctx.submit_backward_pass(iteration)
            if ctx.tracer is not None:
                for group in plan:
                    bp.add_flows(group.layer_indices, f"{iteration}.g{group.index}")
            prev_comm_done = ctx.submit_collectives(
                "all_reduce", plan, iteration, gates=ctx.ready_gates(bp, plan),
                extras=[self.collective_overhead(ctx, group) for group in plan],
            ).done

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """WFBP over a DAG: sync buckets at readiness, coarse barrier."""
        execute_barrier(
            ctx, workload, iterations, self.buffer_bytes,
            overhead=self.workload_overhead,
        )

    def describe_options(self) -> dict:
        return {"buffer_bytes": self.buffer_bytes}

"""ZeRO-3 / FSDP scheduler model (Rajbhandari et al., SC'20).

The paper's related work (§VII-B) contrasts DeAR with ZeRO: ZeRO also
decouples the all-reduce into reduce-scatter + all-gather, but does it
to *shard model states* — each rank stores 1/P of the parameters, so
the gathered weights must be reconstructed by an all-gather before
**every** forward *and* backward use, and gradients are reduce-scattered
once.  Per iteration that is

    comm(ZeRO) = AG(m) + AG(m) + RS(m)  =  1.5 x comm(DeAR) = 3m/B,

"which unfortunately has increased the total communication overheads
compared with DeAR" — the claim this model quantifies.  In exchange,
model states shrink by ~P x (the memory side lives in
:mod:`repro.analysis.memory`).

Schedule (FSDP-style, prefetch depth 1):

- forward: per fusion group, all-gather the parameters; layer compute
  waits for its group's gather; gathers overlap earlier layers' compute;
- backward: parameters are re-gathered per group in backward order, and
  each group's gradient reduce-scatter launches when its gradients are
  ready, interleaved with the next group's gather on the FIFO stream;
- the next iteration's forward gather of a group waits on that group's
  reduce-scatter (the sharded update must land first).
"""

from __future__ import annotations

from typing import Optional

from repro.core.fusion import FusionPlan, buffer_size_groups, no_fusion_groups
from repro.schedulers.base import Scheduler, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.workloads.executor import execute_zero

__all__ = ["ZeROScheduler"]


@register_scheduler
class ZeROScheduler(Scheduler):
    """Fully-sharded data parallelism (ZeRO stage 3).

    Args:
        buffer_bytes: FSDP unit size (``None`` = one unit per tensor).
    """

    name = "zero"

    def __init__(self, buffer_bytes: Optional[float] = 25e6):
        self.buffer_bytes = buffer_bytes

    def fusion_plan(self, ctx: IterationContext) -> FusionPlan:
        if self.buffer_bytes is None:
            return no_fusion_groups(ctx.model)
        return buffer_size_groups(ctx.model, self.buffer_bytes)

    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        plan = self.fusion_plan(ctx)
        forward_groups = plan.groups_forward_order()
        # The forward gather of a group waits on its reduce-scatter, the
        # run's slot at the group's index.
        updated = [(group.index,) for group in forward_groups]
        rs = None
        for iteration in range(iterations):
            # -- forward: gather parameters per group, overlap compute.
            ag_fwd = ctx.submit_collectives(
                "all_gather", forward_groups, iteration,
                gates=None if rs is None else ctx.cover_gates(rs, updated),
                prefix="fwd.",
            )
            ctx.submit_forward_pass(
                iteration, layer_gates=ctx.cover_gates(ag_fwd, plan.forward_cover)
            )

            # -- backward: re-gather parameters per group (submitted
            # eagerly: FSDP prefetches, and the FIFO stream keeps them
            # in backward order), then reduce-scatter each group's
            # gradients as they become ready.
            ag_bwd = ctx.submit_collectives(
                "all_gather", plan, iteration, prefix="bwd."
            )
            bp = ctx.submit_backward_pass(
                iteration, layer_gates=ctx.cover_gates(ag_bwd, plan.backward_cover)
            )
            if ctx.tracer is not None:
                for group in plan:
                    bp.add_flows(group.layer_indices, f"{iteration}.g{group.index}")
            rs = ctx.submit_collectives(
                "reduce_scatter", plan, iteration, gates=ctx.ready_gates(bp, plan)
            )

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """ZeRO over a DAG: shard via RS, re-gather next iteration."""
        execute_zero(ctx, workload, iterations, self.buffer_bytes)

    def describe_options(self) -> dict:
        return {"buffer_bytes": self.buffer_bytes}

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
from repro.sim.engine import Event
from repro.workloads.executor import execute_zero

__all__ = ["ZeROScheduler"]


def _group_metadata(group) -> dict:
    """Fusion attribution recorded on every collective span."""
    return {
        "group": group.index,
        "layers": group.layer_indices,
        "num_tensors": len(group.tensors),
    }


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
        backward_groups = list(plan)
        rs_done_of_group: dict[int, Event] = {}

        for iteration in range(iterations):
            # -- forward: gather parameters per group, overlap compute.
            ag_fwd_done: dict[int, Event] = {}
            for group in forward_groups:
                job = ctx.submit_collective(
                    "all_gather",
                    group.nbytes,
                    iteration,
                    label=f"fwd.g{group.index}",
                    gate=rs_done_of_group.get(group.index),
                    metadata=_group_metadata(group),
                )
                ag_fwd_done[group.index] = job.done
            ctx.submit_forward_pass(
                iteration,
                layer_gates=plan.layer_gates(ag_fwd_done, ctx.sim.all_of),
            )

            # -- backward: re-gather parameters per group (submitted
            # eagerly: FSDP prefetches, and the FIFO stream keeps them
            # in backward order), then reduce-scatter each group's
            # gradients as they become ready.
            ag_bwd_done: dict[int, Event] = {}
            rs_done_of_group = {}
            for group in backward_groups:
                job = ctx.submit_collective(
                    "all_gather",
                    group.nbytes,
                    iteration,
                    label=f"bwd.g{group.index}",
                    metadata=_group_metadata(group),
                )
                ag_bwd_done[group.index] = job.done
            bp = ctx.submit_backward_pass(
                iteration,
                layer_gates=plan.layer_gates(ag_bwd_done, ctx.sim.all_of),
            )
            for group in backward_groups:
                bp.add_flows(group.layer_indices, f"{iteration}.g{group.index}")
                job = ctx.submit_collective(
                    "reduce_scatter",
                    group.nbytes,
                    iteration,
                    label=f"g{group.index}",
                    gate=bp.done_of(group.layer_indices),
                    metadata=_group_metadata(group),
                )
                rs_done_of_group[group.index] = job.done

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """ZeRO over a DAG: shard via RS, re-gather next iteration."""
        execute_zero(ctx, workload, iterations, self.buffer_bytes)

    def describe_options(self) -> dict:
        return {"buffer_bytes": self.buffer_bytes}

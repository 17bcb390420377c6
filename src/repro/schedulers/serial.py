"""No-overlap S-SGD baseline.

Each iteration is strictly FF, then BP, then the gradient all-reduces
(one per fusion group, FIFO), with the next iteration's FF waiting for
everything — the naive schedule every algorithm in the paper improves
on.  Its iteration time realises ``t_ff + t_bp + t_ar``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fusion import FusionPlan, buffer_size_groups, no_fusion_groups
from repro.schedulers.base import Scheduler, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.workloads.executor import execute_serial

__all__ = ["SerialScheduler"]


@register_scheduler
class SerialScheduler(Scheduler):
    """FF -> BP -> all communication, no overlap anywhere.

    Args:
        buffer_bytes: optional fusion buffer; ``None`` communicates one
            all-reduce per tensor.
    """

    name = "serial"

    def __init__(self, buffer_bytes: Optional[float] = None):
        self.buffer_bytes = buffer_bytes

    def _plan(self, ctx: IterationContext) -> FusionPlan:
        if self.buffer_bytes is None:
            return no_fusion_groups(ctx.model)
        return buffer_size_groups(ctx.model, self.buffer_bytes)

    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        plan = self._plan(ctx)
        prev_comm_done = None
        for iteration in range(iterations):
            ctx.submit_forward_pass(iteration, first_gate=prev_comm_done)
            bp = ctx.submit_backward_pass(iteration)
            backward_done = bp.done_of(range(len(bp)))
            comm_done = []
            for group in plan:
                # Only the first collective needs the gate: the comm
                # stream is in-order, so the rest follow FIFO.
                gate = backward_done if not comm_done else None
                comm_done.append(
                    ctx.submit_collective(
                        "all_reduce",
                        group.nbytes,
                        iteration,
                        label=f"g{group.index}",
                        gate=gate,
                        metadata={
                            "group": group.index,
                            "layers": group.layer_indices,
                            "num_tensors": len(group.tensors),
                        },
                    ).done
                )
            prev_comm_done = ctx.sim.all_of(comm_done)

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """Serial over a DAG: every sync runs after the iteration's work."""
        execute_serial(ctx, workload, iterations, self.buffer_bytes)

    def describe_options(self) -> dict:
        return {"buffer_bytes": self.buffer_bytes}

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
        # Only the first collective needs the gate: the comm stream is
        # in-order, so the rest follow FIFO.
        ungated = [None] * (len(plan) - 1)
        prev_comm_done = None
        for iteration in range(iterations):
            ctx.submit_forward_pass(iteration, first_gate=prev_comm_done)
            bp = ctx.submit_backward_pass(iteration)
            prev_comm_done = ctx.submit_collectives(
                "all_reduce", plan, iteration, gates=[bp.done, *ungated]
            ).done

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """Serial over a DAG: every sync runs after the iteration's work."""
        execute_serial(ctx, workload, iterations, self.buffer_bytes)

    def describe_options(self) -> dict:
        return {"buffer_bytes": self.buffer_bytes}

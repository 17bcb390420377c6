"""DeAR: decoupled all-reduce with fine-grained pipelining (paper §III).

The all-reduce of each fusion group is decoupled into OP1
(reduce-scatter) + OP2 (all-gather):

- **BackPipe**: a group's reduce-scatter launches the moment the last
  of its gradients is computed in the backward pass; collectives run
  FIFO on the comm stream, so no cross-worker re-ordering (and no
  negotiation) is ever needed.
- **Synchronisation point**: all OP1 tasks are synchronised at the end
  of the backward pass, guaranteeing OP1 -> OP2 dependencies.
- **FeedPipe**: all-gathers are issued in feed-forward order; the next
  iteration's feed-forward of layer ``l`` waits only for the
  all-gather of the group(s) covering layer ``l``, overlapping OP2
  with feed-forward compute.

Fusion variants (paper §IV, Fig. 9):

- ``fusion="none"``   — DeAR w/o TF (one collective pair per tensor);
- ``fusion="layers"`` — DeAR-NL (four consecutive layers per group);
- ``fusion="buffer"`` — DeAR-FB (fixed byte threshold, 5 MB in Fig. 9,
  25 MB in Fig. 7);
- ``fusion="bo"``     — DeAR-BO (run-time Bayesian optimisation of the
  buffer size, the paper's headline configuration).
"""

from __future__ import annotations

from typing import Optional

from repro.core.fusion import (
    FusionPlan,
    buffer_size_groups,
    layer_count_groups,
    no_fusion_groups,
)
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import Scheduler, ScheduleResult, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.workloads.executor import execute_dear

__all__ = ["DeARScheduler", "DEAR_DEFAULT_BUFFER_BYTES"]

#: The 25 MB default DeAR's BO tuner starts from (paper §IV-B).
DEAR_DEFAULT_BUFFER_BYTES = 25e6


@register_scheduler
class DeARScheduler(Scheduler):
    """Decoupled all-reduce with BackPipe/FeedPipe scheduling.

    Args:
        fusion: ``"none"``, ``"layers"``, ``"buffer"`` or ``"bo"``.
        buffer_bytes: threshold for ``fusion="buffer"``.
        layers_per_group: group width for ``fusion="layers"``.
        bo_trials / bo_seed / bo_low / bo_high: BO loop settings for
            ``fusion="bo"``.
    """

    name = "dear"

    def __init__(
        self,
        fusion: str = "bo",
        buffer_bytes: float = DEAR_DEFAULT_BUFFER_BYTES,
        layers_per_group: int = 4,
        bo_trials: int = 15,
        bo_seed: Optional[int] = 0,
        bo_low: float = 1e6,
        bo_high: float = 100e6,
    ):
        if fusion not in ("none", "layers", "buffer", "bo"):
            raise ValueError(f"unknown DeAR fusion mode {fusion!r}")
        if fusion == "buffer" and (buffer_bytes is None or buffer_bytes <= 0):
            raise ValueError("DeAR buffer fusion requires a positive buffer size")
        self.fusion = fusion
        self.buffer_bytes = buffer_bytes
        self.layers_per_group = layers_per_group
        self.bo_trials = bo_trials
        self.bo_seed = bo_seed
        self.bo_low = bo_low
        self.bo_high = bo_high

    def fusion_plan(self, ctx: IterationContext) -> FusionPlan:
        if self.fusion == "none":
            return no_fusion_groups(ctx.model)
        if self.fusion == "layers":
            return layer_count_groups(ctx.model, self.layers_per_group)
        # "buffer", and the per-trial configuration of "bo".
        return buffer_size_groups(ctx.model, self.buffer_bytes)

    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        plan = self.fusion_plan(ctx)
        forward_groups = plan.groups_forward_order()
        ungated = [None] * (len(plan) - 1)
        layer_gates = None
        for iteration in range(iterations):
            # FeedPipe: FF of layer l waits for the all-gather(s) of the
            # previous iteration's group(s) covering layer l.
            ff = ctx.submit_forward_pass(iteration, layer_gates=layer_gates)
            bp = ctx.submit_backward_pass(iteration)
            if ctx.tracer is not None:
                for group in plan:
                    # Gradient-lifecycle flow arrows: grad-ready at the BP
                    # spans that fill the group, "update" at the next FFs.
                    bp.add_flows(group.layer_indices, f"{iteration}.g{group.index}")
                    if iteration:
                        ff.add_flows(
                            group.layer_indices, f"{iteration - 1}.g{group.index}"
                        )

            # BackPipe: reduce-scatter per group, launched on gradient
            # readiness, FIFO on the comm stream (backward order).
            rs = ctx.submit_collectives(
                "reduce_scatter", plan, iteration, gates=ctx.ready_gates(bp, plan)
            )
            # FeedPipe: all-gathers in feed-forward order; only the first
            # waits for the OP1/OP2 synchronisation at the end of
            # BackPipe (§III-B), the rest follow FIFO.
            ag = ctx.submit_collectives(
                "all_gather", forward_groups, iteration, gates=[rs.done, *ungated]
            )
            layer_gates = ctx.cover_gates(ag, plan.forward_cover)

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """DeAR over a workload DAG: RS at readiness, AGs consumer-ordered.

        Sync buckets follow the fusion mode: ``"buffer"`` (and each BO
        trial) fuses up to ``buffer_bytes``; ``"none"`` and
        ``"layers"`` keep one collective pair per sync node — a DAG has
        no layer count to group by, so DeAR-NL degenerates to DeAR w/o
        TF there.
        """
        bucket_bytes = (
            self.buffer_bytes if self.fusion in ("buffer", "bo") else None
        )
        execute_dear(ctx, workload, iterations, bucket_bytes)

    def run(self, timing: TimingModel, cost: CollectiveTimeModel,
            iterations: int = 5, faults=None, fastpath: bool = True,
            workload=None, trace: bool = False) -> ScheduleResult:
        if self.fusion != "bo":
            return super().run(timing, cost, iterations=iterations,
                               faults=faults, fastpath=fastpath,
                               workload=workload, trace=trace)
        return self._run_bo(
            lambda buffer_bytes: DeARScheduler(
                fusion="buffer", buffer_bytes=buffer_bytes
            ),
            timing, cost, iterations, faults=faults, fastpath=fastpath,
            workload=workload, trace=trace,
        )

    def supports_batched_run(self) -> bool:
        # BO mode wraps run() in the tuning loop; the other fusion
        # modes delegate straight to the base run and batch exactly.
        return self.fusion != "bo"

    def describe_options(self) -> dict:
        options = {"fusion": self.fusion}
        if self.fusion == "buffer":
            options["buffer_bytes"] = self.buffer_bytes
        if self.fusion == "layers":
            options["layers_per_group"] = self.layers_per_group
        return options

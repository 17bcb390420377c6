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
from repro.sim.engine import Event
from repro.workloads.executor import execute_dear

__all__ = ["DeARScheduler", "DEAR_DEFAULT_BUFFER_BYTES"]

#: The 25 MB default DeAR's BO tuner starts from (paper §IV-B).
DEAR_DEFAULT_BUFFER_BYTES = 25e6


def _group_metadata(group) -> dict:
    """Fusion attribution recorded on every collective span (trace +
    breakdown tables can charge time to fusion decisions)."""
    return {
        "group": group.index,
        "layers": group.layer_indices,
        "num_tensors": len(group.tensors),
    }


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
        layer_gates: Optional[dict[int, Event]] = None
        for iteration in range(iterations):
            # FeedPipe: FF of layer l waits for the all-gather(s) of the
            # previous iteration's group(s) covering layer l.
            ff = ctx.submit_forward_pass(iteration, layer_gates=layer_gates)
            if iteration:
                # The "update" end of the previous iteration's
                # gradient-lifecycle flow arrows.
                for group in plan:
                    ff.add_flows(
                        group.layer_indices, f"{iteration - 1}.g{group.index}"
                    )
            bp = ctx.submit_backward_pass(iteration)

            # BackPipe: reduce-scatter per group, launched on gradient
            # readiness, FIFO on the comm stream (backward order).
            rs_done = []
            for group in plan:
                # grad-ready end of the flow: the BP span(s) whose
                # gradients fill this fusion group.
                bp.add_flows(group.layer_indices, f"{iteration}.g{group.index}")
                rs_done.append(
                    ctx.submit_collective(
                        "reduce_scatter",
                        group.nbytes,
                        iteration,
                        label=f"g{group.index}",
                        gate=bp.done_of(group.layer_indices),
                        metadata=_group_metadata(group),
                    ).done
                )
            # OP1/OP2 synchronisation at the end of BackPipe (§III-B).
            rs_barrier = ctx.sim.all_of(rs_done)

            # FeedPipe: all-gathers in feed-forward order; only the
            # first needs the barrier gate, the rest follow FIFO.
            ag_done_of_group: dict[int, Event] = {}
            for position, group in enumerate(forward_groups):
                job = ctx.submit_collective(
                    "all_gather",
                    group.nbytes,
                    iteration,
                    label=f"g{group.index}",
                    gate=rs_barrier if position == 0 else None,
                    metadata=_group_metadata(group),
                )
                ag_done_of_group[group.index] = job.done
            layer_gates = plan.layer_gates(ag_done_of_group, ctx.sim.all_of)

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

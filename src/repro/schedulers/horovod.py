"""Horovod model (Sergeev & Del Balso, 2018).

Horovod is WFBP with a fusion buffer (64 MB by default; the paper pins
25 MB for the Fig. 7 comparison) plus *dynamic coordination*: a
background coordinator cycles every ``cycle_time``, collecting
readiness bitmaps from all workers and broadcasting the response before
each fused all-reduce can launch.  That negotiation is a latency-bound
small collective, and the average half-cycle wait adds on top — the
overheads that let statically-bucketed DDP edge out Horovod on
high-latency networks.

``fusion="bo"`` reproduces Horovod-BO (paper §VI-G): Horovod's autotuner
restricted to the buffer-size knob, driven by the same Bayesian
optimiser DeAR uses.
"""

from __future__ import annotations

from typing import Optional

from repro.core.fusion import FusionGroup
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import ScheduleResult, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.schedulers.wfbp import WFBPScheduler

__all__ = ["HorovodScheduler", "HOROVOD_DEFAULT_BUFFER_BYTES"]

#: HOROVOD_FUSION_THRESHOLD default.
HOROVOD_DEFAULT_BUFFER_BYTES = 64e6


@register_scheduler
class HorovodScheduler(WFBPScheduler):
    """Horovod: WFBP + fusion buffer + coordinator negotiation.

    Args:
        buffer_bytes: fusion threshold (64 MB Horovod default).
        cycle_time: coordinator cycle period; a tensor group waits half
            a cycle on average before its negotiation round.
        fusion: ``"buffer"`` (Horovod-FB) or ``"bo"`` (Horovod-BO).
        bo_trials / bo_seed / bo_low / bo_high: BO loop settings when
            ``fusion="bo"``.
    """

    name = "horovod"

    def __init__(
        self,
        buffer_bytes: float = HOROVOD_DEFAULT_BUFFER_BYTES,
        cycle_time: float = 1e-3,
        fusion: str = "buffer",
        bo_trials: int = 15,
        bo_seed: Optional[int] = 0,
        bo_low: float = 1e6,
        bo_high: float = 100e6,
    ):
        if fusion not in ("buffer", "bo"):
            raise ValueError(f"unknown Horovod fusion mode {fusion!r}")
        if buffer_bytes is None or not buffer_bytes > 0:  # NaN fails too
            raise ValueError("Horovod requires a positive fusion buffer")
        super().__init__(buffer_bytes=buffer_bytes)
        self.cycle_time = cycle_time
        self.fusion = fusion
        self.bo_trials = bo_trials
        self.bo_seed = bo_seed
        self.bo_low = bo_low
        self.bo_high = bo_high

    def collective_overhead(self, ctx: IterationContext, group: FusionGroup) -> float:
        # One readiness consensus round (a few bytes per tensor) plus
        # the expected half-cycle wait for the coordinator to tick.
        negotiation = ctx.cost.negotiation(payload_bytes=8.0 * len(group.tensors))
        return negotiation + 0.5 * self.cycle_time

    def workload_overhead(self, ctx, bucket) -> float:
        # Same consensus round, sized by the bucket's member syncs.
        negotiation = ctx.cost.negotiation(payload_bytes=8.0 * len(bucket.members))
        return negotiation + 0.5 * self.cycle_time

    def run(self, timing: TimingModel, cost: CollectiveTimeModel,
            iterations: int = 5, faults=None, fastpath: bool = True,
            workload=None, trace: bool = False) -> ScheduleResult:
        if self.fusion != "bo":
            return super().run(timing, cost, iterations=iterations,
                               faults=faults, fastpath=fastpath,
                               workload=workload, trace=trace)
        return self._run_bo(
            lambda buffer_bytes: HorovodScheduler(
                buffer_bytes=buffer_bytes, cycle_time=self.cycle_time,
                fusion="buffer",
            ),
            timing, cost, iterations, faults=faults, fastpath=fastpath,
            workload=workload, trace=trace,
        )

    def supports_batched_run(self) -> bool:
        # BO mode wraps run() in the tuning loop; the other fusion
        # modes delegate straight to the base run and batch exactly.
        return self.fusion != "bo"

    def describe_options(self) -> dict:
        return {
            "buffer_bytes": self.buffer_bytes,
            "cycle_time": self.cycle_time,
            "fusion": self.fusion,
        }

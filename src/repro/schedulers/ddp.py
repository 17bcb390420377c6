"""PyTorch DistributedDataParallel model (Li et al., VLDB 2020).

DDP is WFBP with static gradient *buckets*: tensors are packed into
25 MB buckets in backward order at construction time, and a bucket's
all-reduce launches when its last gradient arrives.  There is no
per-iteration negotiation (the bucketing is decided once), only a small
bucket-management cost per collective (gradient copy-in/copy-out and
the dispatch of the NCCL kernel).
"""

from __future__ import annotations

from repro.core.fusion import FusionGroup
from repro.schedulers.base import register_scheduler
from repro.schedulers.engine import IterationContext
from repro.schedulers.wfbp import WFBPScheduler
from repro.workloads.executor import SyncBucket

__all__ = ["DDPScheduler", "DDP_DEFAULT_BUCKET_BYTES"]

#: torch.nn.parallel.DistributedDataParallel's bucket_cap_mb default.
DDP_DEFAULT_BUCKET_BYTES = 25e6


@register_scheduler
class DDPScheduler(WFBPScheduler):
    """PyTorch-DDP: WFBP + 25 MB static buckets.

    Args:
        buffer_bytes: bucket capacity (the paper fixes 25 MB, DDP's
            default, in the Fig. 7 comparison).
        launch_overhead: per-bucket host-side cost (copy + dispatch).
    """

    name = "ddp"

    def __init__(
        self,
        buffer_bytes: float = DDP_DEFAULT_BUCKET_BYTES,
        launch_overhead: float = 50e-6,
    ):
        if buffer_bytes is None or not buffer_bytes > 0:  # NaN fails too
            raise ValueError("DDP requires a positive bucket size")
        super().__init__(buffer_bytes=buffer_bytes)
        self.launch_overhead = launch_overhead

    def collective_overhead(self, ctx: IterationContext, group: FusionGroup) -> float:
        return self.launch_overhead

    def workload_overhead(self, ctx: IterationContext, bucket: SyncBucket) -> float:
        return self.launch_overhead

    def describe_options(self) -> dict:
        return {
            "buffer_bytes": self.buffer_bytes,
            "launch_overhead": self.launch_overhead,
        }

"""Communication schedulers: DeAR and every baseline of the evaluation.

Each scheduler simulates a multi-GPU training iteration on the
discrete-event engine: per-layer compute jobs on an in-order compute
stream, collective jobs on an in-order communication stream (or a
priority engine for ByteScheduler, recorded on the vectorized replay as
a checked static order), with gate events expressing the exact
dependencies each algorithm enforces.

Schedulers (paper §VI baselines):

- ``serial``        — no overlap: FF, BP, then all gradient all-reduces;
- ``wfbp``          — wait-free backpropagation (Fig. 1(b));
- ``ddp``           — PyTorch-DDP: WFBP with 25 MB gradient buckets;
- ``horovod``       — DDP-style fusion plus coordinator negotiation;
- ``mg_wfbp``       — WFBP with merged-gradient optimal fusion;
- ``bytescheduler`` — priority scheduling + tensor partitioning with
  per-tensor negotiation (Fig. 1(d));
- ``dear``          — decoupled all-reduce with BackPipe/FeedPipe
  (Fig. 2), fusion variants w/o TF, NL, FB, and BO;
- ``zero``          — ZeRO-3/FSDP model-state sharding (the §VII-B
  comparison: 1.5x DeAR's communication volume for ~P x less state
  memory).

Entry point::

    from repro.schedulers import simulate
    result = simulate("dear", model, cluster, fusion="buffer",
                      buffer_bytes=25e6)
"""

from repro.schedulers.base import (
    SCHEDULER_NAMES,
    ScheduleResult,
    Scheduler,
    get_scheduler,
    simulate,
    single_gpu_result,
)
from repro.schedulers.serial import SerialScheduler
from repro.schedulers.wfbp import WFBPScheduler
from repro.schedulers.ddp import DDPScheduler
from repro.schedulers.horovod import HorovodScheduler
from repro.schedulers.mg_wfbp import MGWFBPScheduler
from repro.schedulers.bytescheduler import ByteSchedulerScheduler
from repro.schedulers.dear import DeARScheduler
from repro.schedulers.zero import ZeROScheduler

__all__ = [
    "ByteSchedulerScheduler",
    "DDPScheduler",
    "DeARScheduler",
    "HorovodScheduler",
    "MGWFBPScheduler",
    "SCHEDULER_NAMES",
    "ScheduleResult",
    "Scheduler",
    "SerialScheduler",
    "WFBPScheduler",
    "ZeROScheduler",
    "get_scheduler",
    "simulate",
    "single_gpu_result",
]

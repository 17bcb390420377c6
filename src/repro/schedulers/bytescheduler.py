"""ByteScheduler model (Peng et al., SOSP 2019), under all-reduce.

ByteScheduler provides fine-grained overlap by (1) *partitioning* large
tensors into fixed-size pieces and (2) *re-ordering* communications by
priority (earlier layers first) so the next iteration's early
feed-forward layers unblock soonest.  Under the all-reduce architecture
both mechanisms cost extra:

- every partition is a full collective and pays the ring startup
  ``2 (P-1) alpha`` (paper §II-D);
- re-ordering requires all workers to agree on the next tensor, i.e. a
  per-collective negotiation round (a latency-bound small collective).

Those overheads — negligible in the PS architecture ByteScheduler was
designed for — are why its bars collapse below 1.0x WFBP on the 10GbE
CNNs in the paper's Fig. 6, while BERT's large tensors amortise them.

The communication engine here is a priority queue rather than a FIFO
stream: among ready partitions, the lowest (iteration, layer,
partition) triple is sent next.  ByteScheduler's *credit* mechanism
allows several partitions in flight at once; with ``credit > 1`` the
engine drives that many parallel channels, which overlaps the
latency-bound phases of small collectives (the startup rounds pipeline
across channels) while the bandwidth term is still paid per collective
— an optimistic model for bandwidth-bound tensors (real channels share
the NIC), documented here because it bounds credit's benefit from
above.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.schedulers.base import Scheduler, register_scheduler
from repro.schedulers.engine import IterationContext
from repro.sim.engine import Event
from repro.workloads.executor import execute_bytescheduler

__all__ = ["ByteSchedulerScheduler", "BYTESCHEDULER_DEFAULT_PARTITION_BYTES"]

#: ByteScheduler's partition knob.  Its own BO tuner lands on large
#: partitions at the 64-GPU all-reduce scale (small partitions multiply
#: the ring startup); 16 MB leaves typical CNN tensors unpartitioned
#: and splits only BERT's largest tensors, matching the qualitative
#: behaviour of the paper's Fig. 6.
BYTESCHEDULER_DEFAULT_PARTITION_BYTES = 16e6


@dataclass(order=True)
class _CommItem:
    """One partition's all-reduce, ordered by scheduling priority."""

    priority: tuple[int, int, int]
    nbytes: float = field(compare=False)
    label: str = field(compare=False)
    iteration: int = field(compare=False)
    gate: Event = field(compare=False)
    done: Event = field(compare=False)
    extra: float = field(compare=False)


@register_scheduler
class ByteSchedulerScheduler(Scheduler):
    """Priority scheduling + tensor partitioning over all-reduce.

    Args:
        partition_bytes: tensors larger than this are split into
            ceil(size / partition_bytes) separate collectives.
        negotiate: charge the per-collective consensus round (turning
            this off isolates the partitioning cost in ablations).
    """

    name = "bytescheduler"
    #: the credit engine reacts to events at runtime; the schedule is
    #: not static, so the vectorized replay cannot express it.
    supports_fast_path = False

    def __init__(
        self,
        partition_bytes: float = BYTESCHEDULER_DEFAULT_PARTITION_BYTES,
        negotiate: bool = True,
        credit: int = 1,
    ):
        if partition_bytes <= 0:
            raise ValueError(f"partition_bytes must be positive, got {partition_bytes}")
        if credit < 1:
            raise ValueError(f"credit must be >= 1, got {credit}")
        self.partition_bytes = partition_bytes
        self.negotiate = negotiate
        self.credit = credit

    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        items: list[_CommItem] = []
        layer_gates: Optional[dict[int, Event]] = None
        for iteration in range(iterations):
            ctx.submit_forward_pass(iteration, layer_gates=layer_gates)
            bp_jobs = ctx.submit_backward_pass(iteration)

            done_by_layer: dict[int, list[Event]] = {}
            for tensor in ctx.model.tensors_backward_order():
                parts = max(1, math.ceil(tensor.nbytes / self.partition_bytes))
                part_bytes = tensor.nbytes / parts
                for part in range(parts):
                    done = ctx.sim.event(name=f"bs.{iteration}.{tensor.name}.{part}")
                    items.append(
                        _CommItem(
                            priority=(iteration, tensor.layer_index, part),
                            nbytes=part_bytes,
                            label=f"{tensor.name}.p{part}",
                            iteration=iteration,
                            gate=bp_jobs[tensor.layer_index].done,
                            done=done,
                            extra=self._overhead(ctx),
                        )
                    )
                    done_by_layer.setdefault(tensor.layer_index, []).append(done)

            layer_gates = {
                layer: ctx.sim.all_of(events)
                for layer, events in done_by_layer.items()
            }

        channels = [ctx.comm] + [
            ctx.stream(f"comm.ch{index}", actor=f"gpu.comm{index}")
            for index in range(1, self.credit)
        ]
        state = {"ready": [], "waiters": [], "claimed": 0, "total": len(items)}

        def arm(item: _CommItem, sequence: int) -> None:
            def on_ready(_evt) -> None:
                heapq.heappush(state["ready"], (item.priority, sequence, item))
                waiters, state["waiters"] = state["waiters"], []
                for waiter in waiters:
                    if not waiter.triggered:
                        waiter.succeed()

            item.gate.add_callback(on_ready)

        for sequence, item in enumerate(items):
            arm(item, sequence)
        for index, channel in enumerate(channels):
            ctx.sim.process(
                self._channel_driver(ctx, channel, state),
                name=f"bytescheduler.engine{index}",
            )

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """ByteScheduler over a DAG: partitioned syncs at readiness.

        The credit engine's dynamic priority queue assumes the
        layer-wise tensor ordering; on arbitrary DAGs the model keeps
        the two costs that define ByteScheduler under all-reduce —
        per-partition ring startups and the per-collective negotiation
        round — with partitions launched FIFO at readiness.
        """
        execute_bytescheduler(
            ctx, workload, iterations, self.partition_bytes,
            overhead=self._overhead(ctx),
        )

    def _overhead(self, ctx: IterationContext) -> float:
        if not self.negotiate:
            return 0.0
        # One latency-bound consensus round: readiness flags circulate
        # once around the ring (half the full all-reduce round-trip the
        # Horovod coordinator pays).
        return 0.5 * ctx.cost.negotiation(payload_bytes=8.0)

    def _channel_driver(self, ctx: IterationContext, channel,
                        state: dict) -> Generator:
        """One communication channel: claim the highest-priority ready
        partition and run its collective; multiple drivers realise the
        credit mechanism."""
        while state["claimed"] < state["total"]:
            if not state["ready"]:
                waiter = ctx.sim.event()
                state["waiters"].append(waiter)
                yield waiter
                continue
            _, _, item = heapq.heappop(state["ready"])
            state["claimed"] += 1
            # Price through the fault injector when a plan is active, so
            # the credit engine's collectives feel link degradation too.
            if ctx.faults is not None:
                duration = ctx.faults.collective_priced(
                    "all_reduce", item.nbytes, item.extra
                )
            else:
                duration = ctx.cost.all_reduce(item.nbytes) + item.extra
            job = channel.submit(
                duration,
                name=f"all_reduce.{item.iteration}.{item.label}",
                category="comm.ar",
                metadata={
                    "iteration": item.iteration,
                    "bytes": item.nbytes,
                    "extra": item.extra,
                },
            )
            yield job.done
            item.done.succeed()

    def describe_options(self) -> dict:
        return {
            "partition_bytes": self.partition_bytes,
            "negotiate": self.negotiate,
            "credit": self.credit,
        }

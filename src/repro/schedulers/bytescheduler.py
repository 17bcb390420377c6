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

On the vectorized replay the credit engine becomes a static order.
Every partition of iteration *i* gates its layer's feed-forward job in
iteration *i+1*, and the whole feed-forward pass runs before
backpropagation *i+1*, so every all-reduce of iteration *i* ends before
any partition of *i+1* is ready.  The dispatch order is therefore
decided one iteration at a time, from that iteration's BP end times and
the starts of the jobs whose timers make them ready, the all-reduce
durations and the order the channels went idle in; :func:`_dispatch`
reproduces the engine's choices from exactly those, ties included: the
kernel keys its heap on ``(time, sequence)``, so at one instant it
handles readiness and freed channels in the order their jobs started.
:class:`_DispatchPlan` guesses the order from iteration-relative BP
times, records each channel's partitions in it as a plain stream gated
on their BP jobs — the replay's ``start = max(prev_end, ready)`` is then
the engine's float arithmetic — and after the replay re-derives the
order from the replayed times, each all-reduce priced at the start the
derived order gives it
(:meth:`~repro.schedulers.engine.FastIterationContext.record_verified`).
Each rejected round settles at least one more iteration, so
``iterations + 1`` rounds suffice; an order still moving after them is
an internal error.  :meth:`schedule` drives the credit engine itself on
the event kernel when the run passes ``fastpath=False``: the oracle the
replay is tested against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from repro.schedulers.base import Scheduler, register_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
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
            bp = ctx.submit_backward_pass(iteration)

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
                            gate=bp[tensor.layer_index].done,
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

    def _schedule_onto(self, ctx: IterationContext, iterations: int,
                       workload) -> None:
        """On the vectorized replay, the credit engine's verified static
        order (:class:`_DispatchPlan`); anywhere else, :meth:`schedule`
        or the FIFO DAG schedule, both static."""
        if workload is None and isinstance(ctx, FastIterationContext):
            # Each rejected round settles at least one more iteration
            # (_DispatchPlan.verify), so the last round can only confirm.
            ctx.record_verified(
                _DispatchPlan(self, ctx, iterations), iterations,
                rounds=iterations + 1,
            )
        else:
            super()._schedule_onto(ctx, iterations, workload)

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


def _owners(starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Each compute job's readiness owner start, in stream order.

    The kernel completes a zero-duration job in the same resume as the
    positive-duration job before it, so partitions its BP job makes
    ready are one tail hop from that owner's timer.  ``-inf`` before the
    first positive-duration job: such readiness is the iteration's
    first, when no claim of the iteration can be running.
    """
    owner = -math.inf
    owners = []
    for start, end in zip(starts, ends):
        if end > start:
            owner = start
        owners.append(owner)
    return owners


def _dispatch(
    ready: Sequence[float],
    owners: Sequence[float],
    price: Callable[[int, float], float],
    priorities: Sequence[tuple],
    idle: Sequence[int],
) -> tuple[list[tuple[int, int]], list[int]]:
    """The credit engine's claims for one iteration's partitions.

    Partition ``k`` becomes ready at ``ready[k]`` (its layer's BP end),
    one tail hop after the timer of the compute job that started at
    ``owners[k]`` (:func:`_owners`); it runs for ``price(k, start)`` and
    ranks by ``(priorities[k], k)``, as in the engine's heap.  ``idle``
    holds every channel, in the order it went idle.  This is
    :meth:`ByteSchedulerScheduler._channel_driver` on
    :class:`~repro.sim.engine.Simulator`, one instant at a time:

    - every timer due at an instant pops before any tail callback runs,
      in the order it was scheduled, which is the order its job started;
      a compute job starting at the instant a claim does was scheduled
      first, so a readiness goes before a channel that frees at its
      instant unless that channel's claim started before its owner;
    - a freed channel's turn and a readiness are each one hop from their
      timer; a readiness wakes every idle channel, whose turns are one
      more hop away, so a freed channel claims before the channels a
      readiness ahead of it wakes;
    - a turn claims the best ready partition, or idles.  A
      zero-duration claim (one GPU: every all-reduce is free, so no
      timer ever frees a channel) ends as it starts, and its channel
      takes its next turn behind the turns already queued.

    Every partition of the iteration before ended before any of this
    one's is ready (they gate its FF pass), so a channel carried over
    went idle at or before the first ready time.

    Returns the ``(partition, channel)`` claims in the order they are
    made, and the channels once every partition has ended, in the order
    they went idle.
    """
    order = sorted(range(len(ready)), key=ready.__getitem__)
    times = [ready[k] for k in order] + [math.inf]
    queued: list[tuple[tuple, int]] = []
    #: ``(end, start, claim, channel)`` of each claim still running.
    busy: list[tuple[float, float, int, int]] = []
    idle = list(idle)
    claims: list[tuple[int, int]] = []
    position = 0
    while True:
        now = times[position]
        if busy and busy[0][0] < now:
            now = busy[0][0]
        elif now == math.inf:
            return claims, idle
        first = position
        while times[position] == now:
            position += 1
        # Partitions ready at one instant share their owner: no job
        # between them ends after it starts.
        owner = owners[order[first]] if position > first else math.inf
        # The instant's tail callbacks in order: ``-1`` is the
        # readiness, ``c >= 0`` channel c's turn.
        tail: list[int] = []
        late: list[int] = []
        while busy and busy[0][0] == now:
            _, start, _, channel = heapq.heappop(busy)
            (tail if start < owner else late).append(channel)
        if position > first:
            tail.append(-1)
        tail += late
        hop = 0
        while hop < len(tail):
            entry = tail[hop]
            hop += 1
            if entry < 0:
                for k in order[first:position]:
                    heapq.heappush(queued, (priorities[k], k))
                tail += idle
                idle = []
            elif not queued:
                idle.append(entry)
            else:
                k = heapq.heappop(queued)[1]
                duration = price(k, now)
                if duration > 0.0:
                    heapq.heappush(busy, (now + duration, now, len(claims), entry))
                else:
                    tail.append(entry)
                claims.append((k, entry))


class _DispatchPlan:
    """ByteScheduler's layer-wise schedule as a verified static order.

    One iteration's partitions are ``parts``, in the engine's creation
    order (tensors in backward order, each split into equal
    partitions); ``orders[i]`` is iteration ``i``'s ``(partition,
    channel)`` claims.  Called as a schedule it records, per iteration,
    the FF pass, the BP pass, then each claim on its channel's stream,
    gated on its layer's BP job, with the engine's span names,
    categories, metadata and durations — so every iteration is a block
    of ``period`` slots at fixed offsets.  The first orders come from
    :func:`_dispatch` over iteration-relative BP ends and healthy
    durations, every channel idle at each iteration's first ready
    partition; :meth:`verify` re-derives them from a replay.
    """

    def __init__(self, scheduler: ByteSchedulerScheduler,
                 ctx: IterationContext, iterations: int):
        layers = ctx.model.num_layers
        self.credit = scheduler.credit
        self.extra = scheduler._overhead(ctx)
        #: ``(layer, bytes, label)`` of each partition.
        self.parts: list[tuple[int, float, str]] = []
        self.priorities: list[tuple[int, int]] = []
        for tensor in ctx.model.tensors_backward_order():
            count = max(1, math.ceil(tensor.nbytes / scheduler.partition_bytes))
            part_bytes = tensor.nbytes / count
            for part in range(count):
                self.parts.append(
                    (tensor.layer_index, part_bytes, f"{tensor.name}.p{part}")
                )
                self.priorities.append((tensor.layer_index, part))
        self.healthy = [
            ctx.cost.all_reduce(nbytes) + self.extra for _, nbytes, _ in self.parts
        ]
        self.period = 2 * layers + len(self.parts)
        #: offset of each partition's BP slot in its iteration's block,
        #: whose first ``2 * layers`` slots are the FF and BP passes.
        self._bp_slots = [2 * layers - 1 - layer for layer, _, _ in self.parts]
        # The BP pass from its start, last layer first.
        starts, ends = [], []
        elapsed = 0.0
        for duration in ctx.durations.bp_pass:
            starts.append(elapsed)
            elapsed += duration
            ends.append(elapsed)
        owners = _owners(starts, ends)
        ready = [ends[slot - layers] for slot in self._bp_slots]
        owners = [owners[slot - layers] for slot in self._bp_slots]
        guesses: dict[tuple[int, ...], tuple[list, tuple[int, ...]]] = {}
        idle = tuple(range(self.credit))
        self.orders: list[list[tuple[int, int]]] = []
        for _ in range(iterations):
            if idle not in guesses:
                claims, after = _dispatch(
                    ready, owners, self._healthy_price, self.priorities, idle
                )
                guesses[idle] = (claims, tuple(after))
            claims, idle = guesses[idle]
            self.orders.append(claims)
        self._update_periodic()

    def _healthy_price(self, k: int, start: float) -> float:
        return self.healthy[k]

    def _update_periodic(self) -> None:
        #: whether every iteration repeats iteration 0's claims (tiling).
        self.periodic = all(order == self.orders[0] for order in self.orders[1:])

    def __call__(self, ctx: IterationContext, iterations: int) -> None:
        channels = [ctx.comm] + [
            ctx.stream(f"comm.ch{index}", actor=f"gpu.comm{index}")
            for index in range(1, self.credit)
        ]
        faults = ctx.faults
        extra = self.extra
        layer_gates: Optional[dict] = None
        for iteration in range(iterations):
            ctx.submit_forward_pass(iteration, layer_gates=layer_gates)
            bp = ctx.submit_backward_pass(iteration)
            done_by_layer: dict[int, list] = {}
            for k, channel in self.orders[iteration]:
                layer, nbytes, label = self.parts[k]
                job = channels[channel].submit(
                    self.healthy[k] if faults is None
                    else faults.collective_priced("all_reduce", nbytes, extra),
                    name=f"all_reduce.{iteration}.{label}",
                    category="comm.ar",
                    gate=bp.done_of((layer,)),
                    metadata={"iteration": iteration, "bytes": nbytes,
                              "extra": extra},
                )
                done_by_layer.setdefault(layer, []).append(job.done)
            layer_gates = {
                layer: ctx.sim.all_of(events)
                for layer, events in done_by_layer.items()
            }

    def verify(self, ctx: FastIterationContext) -> bool:
        """Whether the replayed ``ctx`` confirms :attr:`orders`.

        Re-derives every iteration's claims with :func:`_dispatch` from
        the replayed BP ends and readiness owners, pricing each claim at
        the start :func:`_dispatch` gives it (as the replay resolved it,
        when the orders agree), channels carried over from the iteration
        before.  Up to the first iteration that differs the replay
        followed the engine, so that iteration's ready times are exact
        and so are its derived claims: every rejected round settles at
        least one more iteration.  The iterations after it were replayed
        from shifted times; their derived claims are kept as the next
        round's guess.
        """
        faults = ctx.faults
        if faults is None:
            price = self._healthy_price
        else:
            parts, extra = self.parts, self.extra

            def price(k: int, start: float) -> float:
                return faults.collective_price(
                    "all_reduce", parts[k][1], extra, start
                )

        starts = ctx._timeline._starts[:, 0].tolist()
        ends = ctx._timeline._ends[:, 0].tolist()
        passes = 2 * ctx.model.num_layers
        idle = range(self.credit)
        confirmed = True
        for iteration, claims in enumerate(self.orders):
            base = iteration * self.period
            owners = _owners(starts[base:base + passes], ends[base:base + passes])
            derived, idle = _dispatch(
                [ends[base + slot] for slot in self._bp_slots],
                [owners[slot] for slot in self._bp_slots],
                price, self.priorities, idle,
            )
            if derived != claims:
                self.orders[iteration] = derived
                confirmed = False
        self._update_periodic()
        return confirmed

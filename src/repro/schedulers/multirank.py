"""Multi-rank simulation with heterogeneous workers (straggler studies).

The main scheduler engine simulates one representative rank, which is
exact for the paper's homogeneous testbed.  This module simulates
*every* rank with its own compute/communication streams and models each
collective as a rendezvous: it starts only when the **last** rank
reaches it (synchronous collectives wait for stragglers) and completes
``duration`` later for everyone.

This answers a question the paper could not (§VI-I discusses scale, not
heterogeneity): how do WFBP-style and DeAR-style schedules degrade when
one worker is slower?  The measured answer: both degrade essentially
linearly in the straggler's slowdown — synchronous collectives make the
iteration straggler-bound regardless of how cleverly communication is
overlapped, so DeAR keeps its (small) absolute advantage but cannot
absorb heterogeneity.  Quantifying that *negative* result is the point
of the bench built on this module.

Scheduling policies are the real scheduler classes
(:mod:`repro.schedulers.wfbp` and friends): the per-rank contexts here
implement the same submit API as :class:`IterationContext`, so one
``schedule()`` body drives either one representative rank or all of
them.  Two execution engines back that API:

- :class:`MultiRankIterationContext` runs per-rank streams and
  rendezvous collectives on the event kernel — fully general, but
  O(world x jobs) events;
- :class:`FastMultiRankContext` records the same schedule into a
  :class:`~repro.sim.multirank_fastpath.MultiRankTimeline` and replays
  it in closed form along the rank axis — the engine that makes
  1024-GPU sweeps interactive.

Engine selection mirrors :meth:`repro.schedulers.base.Scheduler.run`:
vectorized replay first (honouring ``DEAR_FASTPATH`` and the
``fastpath`` override), event kernel on
:class:`~repro.sim.fastpath.FastPathUnsupported`.  Uniform
``compute_scales`` with no faults collapse to the single-rank engine
outright (synchronous collectives make identical ranks redundant; the
engine module's docstring makes the exactness argument).  The
differential suite in ``tests/sim/test_multirank_fastpath.py`` pins the
engines against each other — iteration times to 1e-9 and per-rank
Perfetto traces byte-for-byte.

Entry point: :func:`simulate_heterogeneous`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.models.layers import ModelSpec
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.faults.plan import FaultPlan, normalize_plan
from repro.faults.timing import (
    PricedCollective,
    RankPricedCompute,
    TimingFaultInjector,
)
from repro.schedulers.base import Scheduler
from repro.schedulers.ddp import DDP_DEFAULT_BUCKET_BYTES, DDPScheduler
from repro.schedulers.dear import DeARScheduler
from repro.schedulers.engine import COLLECTIVE_CATEGORIES, IterationContext, record_fallback
from repro.schedulers.horovod import HOROVOD_DEFAULT_BUFFER_BYTES, HorovodScheduler
from repro.schedulers.mg_wfbp import MGWFBPScheduler
from repro.schedulers.wfbp import WFBPScheduler
from repro.sim.engine import Event, Simulator
from repro.sim.fastpath import FastPathUnsupported, fast_path_enabled
from repro.sim.multirank_fastpath import MultiRankTimeline
from repro.sim.resources import Stream
from repro.sim.trace import Tracer
from repro.telemetry.registry import default_registry

__all__ = ["HeterogeneousResult", "simulate_heterogeneous", "POLICIES"]

POLICIES = ("wfbp", "ddp", "horovod", "mg_wfbp", "dear")


@dataclass
class HeterogeneousResult:
    """Steady-state outcome of a heterogeneous multi-rank run."""

    policy: str
    model_name: str
    cluster_name: str
    compute_scales: tuple[float, ...]
    iteration_time: float
    iteration_times: tuple[float, ...]
    tracer: Optional[Tracer] = field(default=None, repr=False)
    #: engine that produced the result ("multirank-fastpath",
    #: "multirank-event" or "collapsed") plus fault totals when faulty.
    extras: dict = field(default_factory=dict)

    @property
    def world_size(self) -> int:
        return len(self.compute_scales)


def _policy_scheduler(
    policy: str, fusion_buffer_bytes: Optional[float]
) -> Scheduler:
    """Instantiate the scheduler class implementing a policy name.

    ``fusion_buffer_bytes=None`` means per-tensor collectives where the
    policy supports that (wfbp, dear) and the policy's own default
    bucket where it requires one (ddp, horovod); mg_wfbp derives its
    plan from rank 0's backward timings and ignores the knob.
    """
    if policy == "wfbp":
        return WFBPScheduler(buffer_bytes=fusion_buffer_bytes)
    if policy == "ddp":
        return DDPScheduler(
            buffer_bytes=fusion_buffer_bytes or DDP_DEFAULT_BUCKET_BYTES
        )
    if policy == "horovod":
        return HorovodScheduler(
            buffer_bytes=fusion_buffer_bytes or HOROVOD_DEFAULT_BUFFER_BYTES,
            fusion="buffer",
        )
    if policy == "mg_wfbp":
        return MGWFBPScheduler()
    if policy == "dear":
        if fusion_buffer_bytes is None:
            return DeARScheduler(fusion="none")
        return DeARScheduler(fusion="buffer", buffer_bytes=fusion_buffer_bytes)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


class _Collective:
    """Rendezvous: starts at the last arrival, ends ``duration`` later.

    ``pricer`` (timing faults) re-prices the duration at the rendezvous
    instant — the same "factors sampled at start" semantics as the
    single-rank engine's callable bodies, evaluated exactly once per
    collective in both multi-rank engines.
    """

    def __init__(self, sim: Simulator, world_size: int, duration: float,
                 name: str,
                 pricer: Optional[Callable[[float], float]] = None):
        self._sim = sim
        self._expected = world_size
        self._arrived = 0
        self._pricer = pricer
        self.duration = duration
        self.done: Event = sim.event(name=f"{name}.done")
        self.start_time: Optional[float] = None

    def arrive(self) -> None:
        self._arrived += 1
        if self._arrived > self._expected:
            raise RuntimeError(f"collective {self.done.name} over-subscribed")
        if self._arrived == self._expected:
            self.start_time = self._sim.now
            if self._pricer is not None:
                self.duration = self._pricer(self.start_time)
            self._sim.schedule(self.duration, lambda: self.done.succeed())

    def body(self):
        """Stream job body: register arrival, hold until global done."""
        self.arrive()
        yield self.done


class _RankGate:
    """Per-rank gate events for one logical dependency (event engine)."""

    __slots__ = ("events",)

    def __init__(self, events: list):
        self.events = events


class _EventJobSet:
    """The rank-r instances of one submission, behind one handle.

    ``metadata`` is the single dict shared by every rank's job, so
    scheduler-side mutations (flow ids) reach all per-rank spans — the
    same sharing the fast engine's
    :class:`~repro.sim.multirank_fastpath.MultiRankJobSet` has.
    """

    __slots__ = ("jobs", "metadata", "done")

    def __init__(self, jobs: list, metadata: dict,
                 done: Optional[_RankGate] = None):
        self.jobs = jobs
        self.metadata = metadata
        self.done = done if done is not None else _RankGate(
            [job.done for job in jobs]
        )

    def rank_start(self, rank: int) -> float:
        start = self.jobs[rank].start
        if start is None:
            raise RuntimeError(
                f"job {self.jobs[rank].name} never ran; dependency deadlock?"
            )
        return start


class _EventShim:
    """`ctx.sim` facade fanning `all_of` out to each rank's events."""

    __slots__ = ("_sim", "_world")

    def __init__(self, sim: Simulator, world: int):
        self._sim = sim
        self._world = world

    def all_of(self, gates, name: str = "all_of") -> _RankGate:
        gates = list(gates)
        for gate in gates:
            if not isinstance(gate, _RankGate):
                raise TypeError(
                    f"multi-rank schedules gate on job handles, "
                    f"got {type(gate).__name__}"
                )
        return _RankGate([
            self._sim.all_of([gate.events[rank] for gate in gates], name=name)
            for rank in range(self._world)
        ])


class _MultiRankContextBase(IterationContext):
    """Shared submit API over per-rank execution engines.

    Subclasses provide :meth:`_submit_compute` /
    :meth:`_submit_collective_slot` / :meth:`run`; everything the
    scheduler classes call (``submit_forward_pass``,
    ``submit_backward_pass``, ``submit_collective``, ``ctx.sim.all_of``,
    ``ff_start_times``) is inherited or implemented here, with span
    names, categories, and metadata dicts identical to the single-rank
    engine's — the trace byte-identity between engines depends on it.

    ``self.timing`` is rank 0's profile: the *planning* view that
    fusion-plan builders (mg_wfbp's ready times, horovod's negotiation
    sizing) consume, deterministic and identical across engines.
    """

    engine = ""

    def __init__(self, timings: Sequence[TimingModel],
                 cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self.timings = list(timings)
        self.world = len(self.timings)
        self.timing = self.timings[0]
        self.model = self.timing.model
        self.cost = cost
        self.tracer = tracer
        self.ff_first_jobs = []
        self._collective_time = {
            "all_reduce": cost.all_reduce,
            "reduce_scatter": cost.reduce_scatter,
            "all_gather": cost.all_gather,
            "all_to_all": cost.all_to_all,
            "all_to_allv": cost.all_to_allv,
            "send_recv": cost.send_recv,
        }
        faults = normalize_plan(faults)
        self.faults = (
            TimingFaultInjector(faults, cost)
            if faults is not None and faults.has_timing_faults
            else None
        )
        #: layer -> (vector, list) per-rank duration caches, filled
        #: lazily and reused across iterations.
        self._ff_cache: dict[int, tuple[np.ndarray, list[float]]] = {}
        self._bp_cache: dict[int, tuple[np.ndarray, list[float]]] = {}
        #: duration -> (vector, list) cache for generic workload kernels.
        self._compute_cache: dict[float, tuple[np.ndarray, list[float]]] = {}
        #: per-rank compute-speed ratios vs. the planning rank; every
        #: profile time scales linearly with ``compute_scale``, so the
        #: t_ff ratio IS the scale ratio.
        self._scale_ratios = np.array(
            [timing.t_ff / self.timing.t_ff for timing in self.timings]
        )

    # -- per-rank durations ---------------------------------------------------

    def _layer_durations(self, cache: dict, times: Callable[[TimingModel], float],
                         layer_index: int) -> tuple[np.ndarray, list[float]]:
        entry = cache.get(layer_index)
        if entry is None:
            vec = np.array([times(timing) for timing in self.timings])
            entry = (vec, vec.tolist())
            cache[layer_index] = entry
        return entry

    def _ff_durations(self, layer_index: int) -> tuple[np.ndarray, list[float]]:
        return self._layer_durations(
            self._ff_cache, lambda t: t.ff_time(layer_index), layer_index
        )

    def _bp_durations(self, layer_index: int) -> tuple[np.ndarray, list[float]]:
        return self._layer_durations(
            self._bp_cache, lambda t: t.bp_time(layer_index), layer_index
        )

    # -- submit API (same shape as IterationContext) --------------------------

    def submit_ff_layer(self, iteration: int, layer_index: int, gate=None):
        job = self._submit_compute(
            self._ff_durations(layer_index),
            name=f"ff.{iteration}.{layer_index}",
            category="ff",
            gate=gate,
            metadata={"iteration": iteration, "layer": layer_index},
        )
        if layer_index == 0:
            self.ff_first_jobs.append(job)
        return job

    def submit_bp_layer(self, iteration: int, layer_index: int, gate=None):
        return self._submit_compute(
            self._bp_durations(layer_index),
            name=f"bp.{iteration}.{layer_index}",
            category="bp",
            gate=gate,
            metadata={"iteration": iteration, "layer": layer_index},
        )

    def submit_compute(self, duration: float, iteration: int, name: str,
                       category: str = "compute", gate=None,
                       metadata: Optional[dict] = None):
        """Generic workload kernel, scaled per rank by compute speed.

        ``duration`` is the kernel's time on the planning rank (rank 0);
        each rank runs it at its own :func:`build_profile
        <repro.models.profiles.build_profile>` ``compute_scale``.
        """
        entry = self._compute_cache.get(duration)
        if entry is None:
            vec = duration * self._scale_ratios
            entry = self._compute_cache[duration] = (vec, vec.tolist())
        span_metadata = {"iteration": iteration}
        if metadata:
            span_metadata.update(metadata)
        return self._submit_compute(
            entry,
            name=f"{name}.{iteration}",
            category=category,
            gate=gate,
            metadata=span_metadata,
        )

    def submit_collective(self, kind: str, nbytes: float, iteration: int,
                          label: str, gate=None, extra_time: float = 0.0,
                          metadata: Optional[dict] = None,
                          peers: Optional[int] = None):
        if kind not in COLLECTIVE_CATEGORIES:
            raise ValueError(
                f"unknown collective kind {kind!r}; "
                f"expected one of {sorted(COLLECTIVE_CATEGORIES)}"
            )
        if peers is not None:
            # Subgroup collectives (tensor/pipeline-parallel) carry a
            # fixed flat-ring price and skip timing-fault repricing —
            # the injector models full-world launches.
            duration = self.cost.subgroup_time(kind, nbytes, peers) + extra_time
        else:
            duration = self._collective_time[kind](nbytes) + extra_time
        # Same keys in the same order as the single-rank engine: the
        # serialised span args must match byte-for-byte.
        span_metadata = {
            "iteration": iteration,
            "bytes": nbytes,
            "extra": extra_time,
            "algorithm": getattr(
                self.cost, "trace_algorithm",
                getattr(self.cost, "algorithm", "unknown"),
            ),
            "flow": f"{iteration}.{label}",
        }
        if peers is not None:
            span_metadata["peers"] = peers
        if metadata:
            span_metadata.update(metadata)
        return self._submit_collective_slot(
            kind, nbytes, extra_time, duration,
            name=f"{kind}.{iteration}.{label}",
            category=COLLECTIVE_CATEGORIES[kind],
            gate=gate,
            metadata=span_metadata,
            priced=peers is None,
        )

    def ff_start_times(self) -> list[float]:
        """Rank 0's start time of each iteration's first FF job."""
        return [job.rank_start(0) for job in self.ff_first_jobs]

    # -- engine hooks ---------------------------------------------------------

    def _submit_compute(self, durations, name, category, gate, metadata):
        raise NotImplementedError

    def _submit_collective_slot(self, kind, nbytes, extra_time, duration,
                                name, category, gate, metadata,
                                priced=True):
        raise NotImplementedError

    def _publish_engine_metrics(self) -> None:
        default_registry().counter(
            "sim.runs", "simulations executed, by engine kind"
        ).inc(engine=f"multirank-{self.engine}")


class MultiRankIterationContext(_MultiRankContextBase):
    """Every rank on the event kernel: the general (slow) engine."""

    engine = "event"

    def __init__(self, timings: Sequence[TimingModel],
                 cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        super().__init__(timings, cost, tracer=tracer, faults=faults)
        self._sim = Simulator()
        self.sim = _EventShim(self._sim, self.world)
        self.compute_streams = [
            Stream(self._sim, f"rank{rank}.compute", tracer=self.tracer,
                   actor=f"rank{rank}.compute")
            for rank in range(self.world)
        ]
        self.comm_streams = [
            Stream(self._sim, f"rank{rank}.comm", tracer=self.tracer,
                   actor=f"rank{rank}.comm")
            for rank in range(self.world)
        ]

    def _submit_compute(self, durations, name, category, gate, metadata):
        _, per_rank = durations
        faults = self.faults
        jobs = []
        for rank in range(self.world):
            body = (
                per_rank[rank]
                if faults is None
                else faults.compute_body(per_rank[rank], self._sim)
            )
            jobs.append(self.compute_streams[rank].submit(
                body, name=name, category=category,
                gate=None if gate is None else gate.events[rank],
                metadata=metadata,
            ))
        return _EventJobSet(jobs, metadata)

    def _submit_collective_slot(self, kind, nbytes, extra_time, duration,
                                name, category, gate, metadata,
                                priced=True):
        faults = self.faults
        pricer = (
            None
            if faults is None or not priced
            else lambda now: faults.collective_duration(
                kind, nbytes, extra_time, now
            )
        )
        collective = _Collective(
            self._sim, world_size=self.world, duration=duration, name=name,
            pricer=pricer,
        )
        jobs = []
        for rank in range(self.world):
            jobs.append(self.comm_streams[rank].submit(
                collective.body(), name=name, category=category,
                gate=None if gate is None else gate.events[rank],
                metadata=metadata,
            ))
        # Every rank ends with the shared rendezvous, so the logical
        # done gate is the collective's (identical instants, one event).
        return _EventJobSet(
            jobs, metadata, done=_RankGate([collective.done] * self.world)
        )

    def run(self, check_quiescent: bool = True) -> float:
        final = self._sim.run()
        if check_quiescent:
            stuck = [
                stream.stall_report()
                for stream in (*self.compute_streams, *self.comm_streams)
                if stream.outstanding
            ]
            if stuck:
                raise RuntimeError("schedule deadlocked: " + "; ".join(stuck))
        if self.faults is not None:
            self.faults.publish(self.tracer)
        self._publish_engine_metrics()
        return final


class FastMultiRankContext(_MultiRankContextBase):
    """Every rank on the rank-axis vectorized replay.

    Records the schedule into a
    :class:`~repro.sim.multirank_fastpath.MultiRankTimeline`; dynamic
    features raise :class:`~repro.sim.fastpath.FastPathUnsupported` and
    the caller falls back to :class:`MultiRankIterationContext`.
    Timing faults stay on this engine: compute slots carry
    :class:`~repro.faults.timing.RankPricedCompute` vectors and
    collectives :class:`~repro.faults.timing.PricedCollective` scalars,
    priced at replay from the same start times the event kernel would
    price at.
    """

    engine = "fastpath"

    def __init__(self, timings: Sequence[TimingModel],
                 cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        super().__init__(timings, cost, tracer=tracer, faults=faults)
        self._timeline = MultiRankTimeline(self.world)
        self.sim = self._timeline.sim
        self.compute = self._timeline.stream("compute")
        self.comm = self._timeline.stream("comm")

    def _submit_compute(self, durations, name, category, gate, metadata):
        vec, _ = durations
        body = (
            vec if self.faults is None else RankPricedCompute(self.faults, vec)
        )
        return self.compute.submit(
            body, name=name, category=category, gate=gate, metadata=metadata
        )

    def _submit_collective_slot(self, kind, nbytes, extra_time, duration,
                                name, category, gate, metadata,
                                priced=True):
        body = (
            duration
            if self.faults is None or not priced
            else PricedCollective(self.faults, kind, nbytes, extra_time)
        )
        return self.comm.submit_collective(
            body, name=name, category=category, gate=gate, metadata=metadata
        )

    def run(self, check_quiescent: bool = True) -> float:
        """Replay the recorded schedule (recordable = deadlock-free)."""
        final = self._timeline.replay(self.tracer)
        self.finish()
        return final

    def finish(self) -> None:
        """Post-replay bookkeeping, shared with the batched replay path."""
        if self.faults is not None:
            self.faults.publish(self.tracer)
        self._publish_engine_metrics()


def _make_timings(
    model: ModelSpec,
    compute_scales: Sequence[float],
    batch_size: Optional[int],
    iteration_compute: Optional[float],
) -> list[TimingModel]:
    return [
        TimingModel.for_model(
            model,
            batch_size=batch_size,
            iteration_compute=iteration_compute,
            compute_scale=scale,
        )
        for scale in compute_scales
    ]


def _validate_heterogeneous(
    policy: str,
    cluster: ClusterSpec,
    compute_scales: Sequence[float],
    iterations: int,
) -> tuple[float, ...]:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if len(compute_scales) != cluster.world_size:
        raise ValueError(
            f"need {cluster.world_size} compute scales, got {len(compute_scales)}"
        )
    if iterations < 3:
        raise ValueError("need >= 3 iterations for a steady-state measurement")
    return tuple(float(scale) for scale in compute_scales)


def collapses_to_single_rank(
    compute_scales: Sequence[float], faults: Optional[FaultPlan]
) -> bool:
    """Whether a multi-rank run is exactly one representative rank.

    True when every rank has the same compute scale and no faults are
    injected: identical ranks run identical timelines and the
    collectives are synchronous, so one rank's timeline is the whole
    answer (the engine module's docstring makes the exactness
    argument).
    """
    return (
        all(scale == compute_scales[0] for scale in compute_scales)
        and normalize_plan(faults) is None
    )


def wrap_collapsed(
    result,
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: tuple[float, ...],
    trace: bool,
) -> HeterogeneousResult:
    """Lift a single-rank :class:`ScheduleResult` of a collapsed run.

    Shared by :func:`simulate_heterogeneous` and the batched runner so
    both produce byte-identical collapsed results (same ``extras``,
    same tracer handling).
    """
    return HeterogeneousResult(
        policy=policy,
        model_name=model.name,
        cluster_name=cluster.name,
        compute_scales=compute_scales,
        iteration_time=result.iteration_time,
        iteration_times=result.iteration_times,
        tracer=result.tracer if trace else None,
        extras={"engine": "collapsed"},
    )


def record_heterogeneous_fast(
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: Sequence[float],
    fusion_buffer_bytes: Optional[float] = 25e6,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
    algorithm: str = "ring",
    iterations: int = 5,
    faults: Optional[FaultPlan] = None,
    trace: bool = False,
    tuned_table=None,
    workload=None,
) -> FastMultiRankContext:
    """Record a heterogeneous run without replaying it.

    The multi-rank analogue of
    :meth:`repro.schedulers.base.Scheduler.record_fast`, used by the
    config-axis batched runner.  Raises
    :class:`~repro.sim.fastpath.FastPathUnsupported` for policies only
    the event kernel can execute.  The caller is responsible for the
    collapse decision (see :func:`collapses_to_single_rank`).
    ``workload`` selects a comm-compute DAG (name or built
    :class:`~repro.workloads.ir.Workload`); kernel durations are the
    planning rank's and scale per rank with its compute speed.
    """
    compute_scales = _validate_heterogeneous(
        policy, cluster, compute_scales, iterations
    )
    scheduler = _policy_scheduler(policy, fusion_buffer_bytes)
    if not scheduler.supports_fast_path:
        raise FastPathUnsupported(
            f"scheduler {scheduler.name!r} opts out of the fast path",
            reason="opt_out",
        )
    cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=tuned_table)
    timings = _make_timings(model, compute_scales, batch_size, iteration_compute)
    workload = scheduler._resolve_workload(workload, timings[0], cost)
    ctx = FastMultiRankContext(
        timings, cost, tracer=Tracer() if trace else None,
        faults=normalize_plan(faults),
    )
    scheduler._schedule_onto(ctx, iterations, workload)
    return ctx


def finalize_heterogeneous(
    ctx,
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: tuple[float, ...],
    iterations: int,
) -> HeterogeneousResult:
    """Measure an executed multi-rank context into a result.

    Shared by :func:`simulate_heterogeneous` and the batched runner —
    the measurement (steady-state gaps from rank 0's first-FF starts)
    and the ``extras`` layout are identical on either path.
    """
    starts = ctx.ff_start_times()
    if len(starts) != iterations:
        raise RuntimeError(
            f"{policy}: expected {iterations} iterations, observed {len(starts)}"
        )
    gaps = tuple(b - a for a, b in zip(starts, starts[1:]))
    extras = {"engine": f"multirank-{ctx.engine}"}
    workload_name = getattr(ctx, "workload_name", None)
    if workload_name is not None:
        extras["workload"] = workload_name
    if ctx.faults is not None:
        extras["fault_plan"] = ctx.faults.plan.label()
        extras["timing_faults"] = ctx.faults.summary()
    return HeterogeneousResult(
        policy=policy,
        model_name=model.name,
        cluster_name=cluster.name,
        compute_scales=compute_scales,
        iteration_time=gaps[-1],
        iteration_times=gaps,
        tracer=ctx.tracer,
        extras=extras,
    )


def simulate_heterogeneous(
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: Sequence[float],
    fusion_buffer_bytes: Optional[float] = 25e6,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
    algorithm: str = "ring",
    iterations: int = 5,
    faults: Optional[FaultPlan] = None,
    fastpath: Optional[bool] = None,
    collapse: bool = True,
    trace: bool = False,
    tuned_table=None,
    workload=None,
) -> HeterogeneousResult:
    """Simulate every rank explicitly with per-rank compute speeds.

    Args:
        policy: one of :data:`POLICIES`.
        compute_scales: per-rank compute-time multipliers (1.0 = the
            calibrated profile; 1.2 = 20% slower).  Must have exactly
            ``cluster.world_size`` entries.
        fusion_buffer_bytes: fusion threshold (``None`` = per tensor
            where the policy supports it; ddp/horovod fall back to
            their own default buckets).
        faults: timing-level fault plan (straggler / link-degradation
            windows), priced identically on either engine.
        fastpath: force the vectorized replay on/off (None defers to
            ``DEAR_FASTPATH``).
        collapse: allow delegating uniform-scale fault-free runs to the
            single-rank engine (exact; disable to force a true
            multi-rank execution, e.g. for differential testing).
        trace: record per-rank Perfetto spans into ``result.tracer``
            (off by default — a 1024-rank trace is large).
        tuned_table: autotuner selection table consulted when
            ``algorithm="auto"`` (None = process-registered table, or
            plain ring with neither).
        workload: comm-compute DAG to run instead of the layer-wise
            schedule — a registry name
            (:data:`repro.workloads.WORKLOAD_NAMES`) or a built
            :class:`~repro.workloads.ir.Workload`.
    """
    compute_scales = _validate_heterogeneous(
        policy, cluster, compute_scales, iterations
    )
    faults = normalize_plan(faults)
    scheduler = _policy_scheduler(policy, fusion_buffer_bytes)
    cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=tuned_table)

    if collapse and collapses_to_single_rank(compute_scales, faults):
        # Homogeneous ranks run identical timelines and the collectives
        # are synchronous, so one representative rank is exact — reuse
        # the single-rank engine (and its own fast path) outright.
        timing = TimingModel.for_model(
            model,
            batch_size=batch_size,
            iteration_compute=iteration_compute,
            compute_scale=compute_scales[0],
        )
        result = scheduler.run(
            timing, cost, iterations=iterations, fastpath=fastpath,
            workload=workload,
        )
        return wrap_collapsed(
            result, policy, model, cluster, compute_scales, trace
        )

    timings = _make_timings(model, compute_scales, batch_size, iteration_compute)
    workload = scheduler._resolve_workload(workload, timings[0], cost)
    use_fast = fast_path_enabled() if fastpath is None else fastpath
    ctx = None
    if use_fast and scheduler.supports_fast_path:
        try:
            fast_ctx = FastMultiRankContext(
                timings, cost, tracer=Tracer() if trace else None,
                faults=faults,
            )
            scheduler._schedule_onto(fast_ctx, iterations, workload)
            fast_ctx.run()
            ctx = fast_ctx
        except FastPathUnsupported as exc:
            record_fallback("multirank-fastpath", "multirank-event", exc)
            ctx = None
    if ctx is None:
        event_ctx = MultiRankIterationContext(
            timings, cost, tracer=Tracer() if trace else None, faults=faults
        )
        scheduler._schedule_onto(event_ctx, iterations, workload)
        event_ctx.run()
        ctx = event_ctx

    return finalize_heterogeneous(
        ctx, policy, model, cluster, compute_scales, iterations
    )

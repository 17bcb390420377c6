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
inherit the submit API of :class:`IterationContext` and supply only
per-rank durations and how one slot is realised, so one ``schedule()``
body drives either one representative rank or all of them.  Two
execution engines back that API:

- :class:`MultiRankIterationContext` runs per-rank streams and
  rendezvous collectives on the event kernel — fully general, but
  O(world x jobs) events;
- :class:`FastMultiRankContext` records the same schedule into a
  ``world``-rank :class:`~repro.sim.fastpath.Timeline` with one lane per
  rank class (the ranks with one compute scale) and replays it in
  closed form along the lane axis — the engine that makes 1024-GPU
  sweeps interactive.

Engine selection is :meth:`repro.schedulers.base.Scheduler.run`'s: the
vectorized replay, or the event kernel when the run passes
``fastpath=False`` (a schedule the replay cannot record raises
:class:`~repro.sim.fastpath.FastPathUnsupported` and runs only there).  Uniform
``compute_scales`` with no faults collapse to the single-rank engine
outright (synchronous collectives make identical ranks redundant; the
engine module's docstring makes the exactness argument).  One set-up,
:class:`_Run`, decides the collapse for :func:`simulate_heterogeneous`
and for the batched runner alike.  The differential suite in
``tests/sim/test_multirank_fastpath.py`` pins the engines against each
other — iteration times to 1e-9 and per-rank Perfetto traces
byte-for-byte.

Entry point: :func:`simulate_heterogeneous`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.models.layers import ModelSpec
from repro.models.profiles import TimingModel, profile_times
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.faults.plan import FaultPlan, normalize_plan
from repro.faults.timing import RankPricedCompute
from repro.schedulers.base import Scheduler
from repro.schedulers.ddp import DDP_DEFAULT_BUCKET_BYTES, DDPScheduler
from repro.schedulers.dear import DeARScheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.schedulers.horovod import HOROVOD_DEFAULT_BUFFER_BYTES, HorovodScheduler
from repro.schedulers.mg_wfbp import MGWFBPScheduler
from repro.schedulers.wfbp import WFBPScheduler
from repro.sim.engine import Event, Simulator
from repro.sim.fastpath import Timeline
from repro.sim.resources import DeferredDuration
from repro.sim.trace import Tracer
from repro.telemetry.registry import default_registry

__all__ = ["HeterogeneousResult", "simulate_heterogeneous", "POLICIES"]

POLICIES = ("wfbp", "ddp", "horovod", "mg_wfbp", "dear")

#: Fusion threshold of a multi-rank run that sets none.
_FUSION_BUFFER_BYTES = 25e6


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
    policy: str, fusion_buffer_bytes: Optional[float] = _FUSION_BUFFER_BYTES
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

    A :class:`~repro.sim.resources.DeferredDuration` (a timing-fault
    :class:`~repro.faults.timing.PricedCollective`) is resolved at the
    rendezvous instant — the start the rank-axis replay prices the same
    placeholder at — exactly once per collective.
    """

    def __init__(self, sim: Simulator, world_size: int, duration, name: str):
        if isinstance(duration, (int, float)) and not duration >= 0:
            raise ValueError(f"job {name!r} has a negative or NaN duration: {duration}")
        self._sim = sim
        self._expected = world_size
        self._arrived = 0
        self.duration = duration
        self.done: Event = sim.event(name=f"{name}.done")
        self.start_time: Optional[float] = None

    def arrive(self) -> None:
        self._arrived += 1
        if self._arrived > self._expected:
            raise RuntimeError(f"collective {self.done.name} over-subscribed")
        if self._arrived == self._expected:
            self.start_time = self._sim.now
            if isinstance(self.duration, DeferredDuration):
                self.duration = self.duration.resolve(self.start_time)
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
    :class:`~repro.sim.fastpath.JobSet` has.
    """

    __slots__ = ("jobs", "metadata", "done")

    def __init__(self, jobs: list, metadata: dict,
                 done: Optional[_RankGate] = None):
        self.jobs = jobs
        self.metadata = metadata
        self.done = done if done is not None else _RankGate(
            [job.done for job in jobs]
        )

    @property
    def name(self) -> str:
        return self.jobs[0].name

    @property
    def start(self) -> Optional[float]:
        """Rank 0's start (``None`` until the job ran)."""
        return self.jobs[0].start


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


def _rank_classes(scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(class scales, inverse)``: each distinct scale once, in order of
    first appearance, and each rank's class — so rank 0 is in class 0,
    and ``-0.0`` shares ``0.0``'s class (the first one's value)."""
    _, first, inverse = np.unique(scales, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    return scales[first[order]], renumber[inverse.ravel()]


class _RankDurations:
    """Slot durations on explicit ranks, as cached ``(classes,)`` vectors.

    Ranks with one compute scale form a *class*: each FF/BP layer time
    and kernel ratio is priced once per class, every class's profile in
    one :func:`~repro.models.profiles.profile_times` pass.  The vector
    is what the replay records, one lane per class; the event kernel's
    per-rank streams expand it to ranks with the ``inverse`` index
    array, which copies values exactly.  Each vector is built once and
    reused across iterations.  ``scales[0]`` is the planning rank's, so
    rank 0 is always in class 0.  ``iteration_compute`` is the run's
    override of the calibrated compute time, as for ``planning``.
    """

    __slots__ = ("planning", "scales", "inverse", "ff_times", "bp_times",
                 "ff_pass", "bp_pass", "_kernels", "_ratios")

    def __init__(self, planning: TimingModel, scales: np.ndarray,
                 inverse: np.ndarray, iteration_compute: Optional[float]):
        #: rank 0's timing model, the planning view of the contexts.
        self.planning = planning
        #: compute scale of each class, and the class of each rank.
        self.scales = scales
        self.inverse = inverse
        #: ``(classes, layers)`` FF and BP times, row ``c`` class ``c``'s.
        self.ff_times, self.bp_times = profile_times(
            planning.model, planning.batch_size, iteration_compute,
            scales=scales,
        )
        #: a pass's ``(classes,)`` vectors in submission order, one row
        #: per layer: FF first layer first, BP last layer first.
        self.ff_pass = np.ascontiguousarray(self.ff_times.T)
        self.bp_pass = np.ascontiguousarray(self.bp_times.T[::-1])
        self._kernels: dict[float, np.ndarray] = {}
        self._ratios: Optional[np.ndarray] = None

    def kernel(self, duration: float) -> np.ndarray:
        """A workload kernel of ``duration`` seconds on the planning rank.

        Each rank runs it at its own :func:`build_profile
        <repro.models.profiles.build_profile>` ``compute_scale``: every
        profile time scales linearly with it, so the t_ff ratio to the
        planning rank IS the scale ratio (:func:`_check_heterogeneous`
        rejects a zero planning scale).  A class's t_ff is Python's sum
        over its row, as :attr:`TimingModel.t_ff` computes it.
        """
        vec = self._kernels.get(duration)
        if vec is None:
            if self._ratios is None:
                t_ff = [sum(row) for row in self.ff_times.tolist()]
                self._ratios = np.array([value / t_ff[0] for value in t_ff])
            vec = self._kernels[duration] = duration * self._ratios
        return vec


class MultiRankIterationContext(IterationContext):
    """Every rank on the event kernel: the general (slow) engine.

    ``self.timing`` is rank 0's profile: the *planning* view that
    fusion-plan builders (mg_wfbp's ready times, horovod's negotiation
    sizing) consume, deterministic and identical across engines.
    """

    engine = "multirank-event"

    def __init__(self, durations: _RankDurations,
                 cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self._bind(durations.planning, cost, tracer, faults, durations)
        self.world = len(durations.inverse)
        self._start_kernel()
        self.sim = _EventShim(self._sim, self.world)
        self.compute_streams = [
            self.stream(f"rank{rank}.compute") for rank in range(self.world)
        ]
        self.comm_streams = [
            self.stream(f"rank{rank}.comm") for rank in range(self.world)
        ]

    def _compute_slot(self, durations, name, category, gate, metadata):
        per_rank = durations[self.durations.inverse].tolist()
        if self.faults is not None:
            per_rank = [self.faults.compute_priced(base) for base in per_rank]
        jobs = [
            stream.submit(
                duration, name=name, category=category,
                gate=None if gate is None else gate.events[rank],
                metadata=metadata,
            )
            for rank, (stream, duration)
            in enumerate(zip(self.compute_streams, per_rank))
        ]
        return _EventJobSet(jobs, metadata)

    def _collective_slot(self, body, name, metadata, category, gate):
        collective = _Collective(self._sim, self.world, body, name)
        jobs = [
            stream.submit(
                collective.body(), name=name, category=category,
                gate=None if gate is None else gate.events[rank],
                metadata=metadata,
            )
            for rank, stream in enumerate(self.comm_streams)
        ]
        # Every rank ends with the shared rendezvous, so the logical
        # done gate is the collective's (identical instants, one event).
        return _EventJobSet(
            jobs, metadata, done=_RankGate([collective.done] * self.world)
        )

    def _stream_totals(self) -> list:
        return []  # per-rank streams publish no sim.stream.* counters


class FastMultiRankContext(FastIterationContext):
    """Every rank on the vectorized replay, one lane per rank class.

    Records the schedule into a ``world``-rank
    :class:`~repro.sim.fastpath.Timeline` whose lanes are the rank
    classes of :class:`_RankDurations` — two iterations of every run,
    traced or faulted, tiled to the rest as on one rank; dynamic
    features raise :class:`~repro.sim.fastpath.FastPathUnsupported`, and
    run only on :class:`MultiRankIterationContext`.
    Timing faults stay on this engine: each compute pass records one
    :class:`~repro.faults.timing.RankPricedCompute` body (its slots' rows
    of lane vectors) and collectives
    :class:`~repro.faults.timing.PricedCollective` scalars,
    priced at replay from the same start times the event kernel would
    price at.  Set-up, pricing and replay are per rank class, not per
    rank; each recording observes its class count — the replay width —
    in the ``sim.multirank.rank_classes`` histogram.
    """

    engine = "multirank-fastpath"

    def __init__(self, durations: _RankDurations,
                 cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self._bind(durations.planning, cost, tracer, faults, durations)
        default_registry().histogram(
            "sim.multirank.rank_classes",
            "distinct compute profiles per multi-rank recording",
        ).observe(len(durations.scales))
        self.world = len(durations.inverse)
        self._timeline = Timeline(self.world, rank_lanes=durations.inverse)
        self.sim = self._timeline.sim
        self.compute = self.stream("compute")
        self.comm = self.stream("comm")

    def _compute_slot(self, durations, name, category, gate, metadata):
        body = self._pass_bodies(durations[None])
        return self.compute.submit(
            body if isinstance(body, RankPricedCompute) else body[0],
            name=name, category=category, gate=gate, metadata=metadata,
        )

    def _pass_bodies(self, durations):
        """Slot bodies from a pass's ``(slots, lanes)`` rows: a one-rank
        timeline records plain floats, and timing faults record one
        priced body for the pass."""
        if self.world == 1:
            return super()._pass_bodies(durations[:, 0].tolist())
        if self.faults is None:
            return durations
        return self.faults.compute_priced_ranks(durations, self.durations.inverse)

    def _stream_totals(self) -> list:
        return []  # per-rank streams publish no sim.stream.* counters


def _check_heterogeneous(
    policy: str,
    cluster: ClusterSpec,
    compute_scales: Sequence[float],
    iterations: int,
    faults: Optional[FaultPlan] = None,
    workload=None,
    collapse: bool = True,
) -> tuple[tuple[float, ...], bool]:
    """Validate a heterogeneous run: its float scales, and whether it collapses.

    The one collapse decision: with ``collapse`` set, a run whose ranks
    all have one scale and that injects no faults is exactly one
    representative rank (see the module docstring).  A workload DAG
    plans its kernels on rank 0, which then needs a positive scale.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if len(compute_scales) != cluster.world_size:
        raise ValueError(
            f"need {cluster.world_size} compute scales, got {len(compute_scales)}"
        )
    if iterations < 3:
        raise ValueError("need >= 3 iterations for a steady-state measurement")
    scales = tuple(map(float, compute_scales))
    values = np.array(scales)
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        rank = int(bad.argmax())
        raise ValueError(
            f"compute scale of rank {rank} must be finite and >= 0, "
            f"got {scales[rank]}"
        )
    collapsed = (
        collapse
        and bool((values == values[0]).all())
        and normalize_plan(faults) is None
    )
    if workload is not None and not collapsed and scales[0] == 0:
        raise ValueError(
            "rank 0 is the planning rank of workload kernels, "
            "so its compute scale must be > 0, got 0"
        )
    return scales, collapsed


class _Run:
    """One heterogeneous run, set up once for every runner.

    A collapsed run (:func:`_check_heterogeneous`) gets the single-rank
    contexts and rank 0's timing model, so its recordings batch with
    plain single-rank specs; any other run gets the multi-rank contexts
    and a :class:`_RankDurations` with one profile per distinct compute
    scale, shared by every rank with that scale (a rank class).  The
    public entry points pass ``collapse=True``; ``collapse=False``,
    every rank explicitly, is the reference the collapse is tested
    against.
    """

    def __init__(
        self,
        policy: str,
        model: ModelSpec,
        cluster: ClusterSpec,
        compute_scales: Sequence[float],
        fusion_buffer_bytes: Optional[float] = _FUSION_BUFFER_BYTES,
        batch_size: Optional[int] = None,
        iteration_compute: Optional[float] = None,
        algorithm: str = "ring",
        iterations: int = 5,
        faults: Optional[FaultPlan] = None,
        tuned_table=None,
        workload=None,
        *,
        collapse: bool,
    ):
        self.compute_scales, collapsed = _check_heterogeneous(
            policy, cluster, compute_scales, iterations, faults, workload, collapse
        )
        self.policy, self.model, self.cluster = policy, model, cluster
        self.iterations, self.faults = iterations, faults
        self.scheduler = _policy_scheduler(policy, fusion_buffer_bytes)
        cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=tuned_table)
        planning = TimingModel.for_model(
            model,
            batch_size=batch_size,
            iteration_compute=iteration_compute,
            compute_scale=self.compute_scales[0],
        )
        self.workload = self.scheduler._resolve_workload(workload, planning, cost)
        # (vectorized replay, event kernel), and what both are built from.
        if collapsed:
            self.contexts = (FastIterationContext, IterationContext)
            self.args = (planning, cost)
        else:
            self.contexts = (FastMultiRankContext, MultiRankIterationContext)
            classes = _rank_classes(np.array(self.compute_scales))
            self.args = (
                _RankDurations(planning, *classes, iteration_compute), cost
            )

    def record(self, trace: bool = False) -> IterationContext:
        """Schedule onto the vectorized replay without replaying."""
        ctx = self.contexts[0](
            *self.args, tracer=Tracer() if trace else None, faults=self.faults
        )
        self.scheduler._schedule_onto(ctx, self.iterations, self.workload)
        return ctx

    def simulate(self, fastpath: bool = True,
                 trace: bool = False) -> HeterogeneousResult:
        """Schedule, execute and measure (see :func:`simulate_heterogeneous`)."""
        ctx = self.scheduler._execute(
            *self.contexts, self.iterations, self.workload, fastpath,
            *self.args, tracer=Tracer() if trace else None, faults=self.faults,
        )
        return finalize_heterogeneous(
            ctx, self.policy, self.model, self.cluster, self.compute_scales,
            self.iterations,
        )


def record_heterogeneous_fast(
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: Sequence[float],
    trace: bool = False,
    **options,
) -> IterationContext:
    """Record a heterogeneous run without replaying it.

    The multi-rank analogue of
    :meth:`repro.schedulers.base.Scheduler.record_fast`, used by the
    config-axis batched runner; ``options`` are
    :func:`simulate_heterogeneous`'s.  A run that collapses records the
    single-rank schedule.
    """
    return _Run(
        policy, model, cluster, compute_scales, collapse=True, **options
    ).record(trace)


def finalize_heterogeneous(
    ctx,
    policy: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    compute_scales: tuple[float, ...],
    iterations: int,
) -> HeterogeneousResult:
    """Measure an executed context into a result; the one result builder.

    Shared by :func:`simulate_heterogeneous` and the batched runner:
    steady-state gaps from rank 0's first-FF starts, on explicit ranks
    or on the one representative rank of a collapsed run (whose
    ``extras`` name only the ``"collapsed"`` engine).
    """
    starts, gaps = ctx.steady_state(iterations, policy)
    if ctx.tracer is not None:
        ctx.tracer.window = (starts[-2], starts[-1])
    if isinstance(ctx, (FastMultiRankContext, MultiRankIterationContext)):
        extras = {"engine": ctx.engine, **ctx.result_extras()}
    else:
        extras = {"engine": "collapsed"}
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
    fastpath: bool = True,
    trace: bool = False,
    **options,
) -> HeterogeneousResult:
    """Simulate every rank explicitly with per-rank compute speeds.

    Uniform scales with no faults collapse to the single-rank engine
    (exact; ``extras["engine"]`` is ``"collapsed"``).

    Args:
        policy: one of :data:`POLICIES`.
        compute_scales: per-rank compute-time multipliers (1.0 = the
            calibrated profile; 1.2 = 20% slower).  Must have exactly
            ``cluster.world_size`` entries.
        fastpath: False runs the multi-rank event kernel instead of the
            vectorized replay (bit-identical results).
        trace: record per-rank Perfetto spans into ``result.tracer``
            (off by default — a 1024-rank trace is large).
        options: ``batch_size``, ``iteration_compute``, ``algorithm``
            and ``iterations`` (default 5) as for
            :func:`~repro.schedulers.base.simulate`, and
            ``fusion_buffer_bytes`` (default 25e6; ``None`` = per
            tensor where the policy supports it, ddp/horovod fall back
            to their own default buckets); ``faults``, a timing-level
            fault plan priced identically on either engine;
            ``tuned_table``, the selection table consulted when
            ``algorithm="auto"`` (None = process-registered table, or
            plain ring with neither); ``workload``, a comm-compute DAG
            to run instead of the layer-wise schedule — a registry name
            (:data:`repro.workloads.WORKLOAD_NAMES`) or a built
            :class:`~repro.workloads.ir.Workload`.
    """
    return _Run(
        policy, model, cluster, compute_scales, collapse=True, **options
    ).simulate(fastpath, trace)

"""Scheduler interface, result type, registry, and the `simulate` facade."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bayesopt.optimizer import BayesianOptimizer
from repro.bayesopt.search import tune
from repro.faults.plan import FaultPlan
from repro.models.layers import ModelSpec
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.sim.trace import CATEGORY_CODES, COMM_CATEGORIES, Tracer, exposed_times
from repro.telemetry.registry import default_registry

__all__ = [
    "ScheduleResult",
    "Scheduler",
    "SCHEDULER_NAMES",
    "get_scheduler",
    "simulate",
    "single_gpu_result",
]

#: Iterations simulated per run; the first two warm the pipeline, the
#: final inter-iteration gap is the steady-state measurement.
DEFAULT_ITERATIONS = 5

#: The category codes behind ``exposed_comm``, ``exposed_rs`` and
#: ``exposed_ag``, in that order.
_EXPOSED_GROUPS = tuple(tuple(map(CATEGORY_CODES.get, group))
                        for group in (COMM_CATEGORIES, ("comm.rs",), ("comm.ag",)))


@dataclass
class ScheduleResult:
    """Outcome of one simulated training run.

    ``iteration_time`` is the steady-state time between consecutive
    iterations; ``throughput`` is the aggregate cluster throughput in
    samples/s.  The exposed_* fields follow Fig. 8's definition: time
    of that communication category *not* hidden by compute, within one
    steady-state iteration window.  ``tracer`` holds the run's Perfetto
    spans when the run was asked for a trace, and is ``None`` otherwise.
    """

    scheduler: str
    model_name: str
    cluster_name: str
    world_size: int
    batch_size: int
    iteration_time: float
    t_ff: float
    t_bp: float
    exposed_comm: float
    exposed_rs: float
    exposed_ag: float
    tracer: Optional[Tracer] = field(default=None, repr=False)
    iteration_times: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Aggregate samples/s across the cluster."""
        return self.world_size * self.batch_size / self.iteration_time

    @property
    def per_gpu_throughput(self) -> float:
        """Samples/s contributed by each GPU."""
        return self.batch_size / self.iteration_time

    def speedup_over(self, other: "ScheduleResult") -> float:
        """Throughput ratio vs. another run of the same workload."""
        if other.batch_size != self.batch_size:
            raise ValueError("speedups require matching batch sizes")
        return self.throughput / other.throughput

    def scaling_speedup(self, single_gpu_iteration_time: float) -> float:
        """The paper's S: throughput vs. one GPU running alone."""
        return self.world_size * single_gpu_iteration_time / self.iteration_time


class Scheduler(ABC):
    """Base class: subclasses submit one run's jobs onto the context."""

    #: registry key, e.g. "wfbp"; subclasses must set it.
    name: str = ""

    @abstractmethod
    def schedule(self, ctx: IterationContext, iterations: int) -> None:
        """Submit compute and communication jobs for ``iterations`` runs.

        All jobs are submitted up front with gate events encoding the
        scheduler's dependency policy; the engine then executes them.

        This is the classic layer-wise entry point; arbitrary
        comm-compute DAGs enter through :meth:`schedule_workload`.
        """

    def schedule_workload(self, ctx: IterationContext, workload,
                          iterations: int) -> None:
        """Submit jobs realizing a :class:`~repro.workloads.ir.Workload`.

        Every registered scheduler implements this by delegating to its
        policy's executor (:mod:`repro.workloads.executor`) with its own
        knobs; the base raises so an out-of-tree subclass that predates
        the DAG contract fails loudly rather than silently running the
        layer-wise schedule.
        """
        raise NotImplementedError(
            f"scheduler {self.name!r} does not implement schedule_workload()"
        )

    def _resolve_workload(self, workload, timing: TimingModel,
                          cost: CollectiveTimeModel):
        """Registry name -> built Workload (pass-through for objects)."""
        if workload is None or not isinstance(workload, str):
            return workload
        from repro.workloads import build_workload

        return build_workload(workload, timing, cost.cluster)

    def _schedule_onto(self, ctx: IterationContext, iterations: int,
                       workload) -> None:
        if workload is None:
            schedule = self.schedule
        else:
            ctx.workload_name = workload.name

            def schedule(ctx: IterationContext, iterations: int) -> None:
                self.schedule_workload(ctx, workload, iterations)

        ctx.record(schedule, iterations)

    def _execute(self, fast: type, event: type, iterations: int, workload,
                 fastpath: bool, *args, **kwargs) -> IterationContext:
        """Schedule + execute on ``fast(*args, **kwargs)``, the vectorized
        replay, or with ``fastpath=False`` on ``event(*args, **kwargs)``,
        the event kernel.

        The replay is the one production engine.  A schedule it cannot
        record (``sim.event``, ``sim.process``, a dynamic gate or
        duration) raises :class:`~repro.sim.fastpath.FastPathUnsupported`
        and runs only with ``fastpath=False``.  Timing-fault plans ride
        the replay too (priced durations resolved at replay).
        """
        ctx = (fast if fastpath else event)(*args, **kwargs)
        self._schedule_onto(ctx, iterations, workload)
        ctx.run()
        return ctx

    def run(
        self,
        timing: TimingModel,
        cost: CollectiveTimeModel,
        iterations: int = DEFAULT_ITERATIONS,
        faults: Optional[FaultPlan] = None,
        fastpath: bool = True,
        workload=None,
        trace: bool = False,
    ) -> ScheduleResult:
        """Simulate and measure the steady-state iteration time.

        ``fastpath=False`` runs the event kernel instead of the
        vectorized replay (bit-identical results).
        ``workload`` selects a comm-compute DAG — a registry name or a
        built :class:`~repro.workloads.ir.Workload` — instead of the
        classic layer-wise schedule.  ``trace`` records the run's
        Perfetto spans into ``result.tracer`` (``None`` otherwise).
        """
        if iterations < 3:
            raise ValueError(f"need >= 3 iterations to reach steady state, got {iterations}")
        ctx = self._execute(
            FastIterationContext, IterationContext, iterations,
            self._resolve_workload(workload, timing, cost), fastpath,
            timing, cost, tracer=Tracer() if trace else None, faults=faults,
        )
        return self.measure(ctx, iterations)

    def _run_bo(
        self,
        make_trial: Callable[[float], "Scheduler"],
        timing: TimingModel,
        cost: CollectiveTimeModel,
        iterations: int,
        faults: Optional[FaultPlan] = None,
        fastpath: bool = True,
        workload=None,
        trace: bool = False,
    ) -> ScheduleResult:
        """The paper's run-time loop: measure, fit the GP, re-fuse.

        Tunes the fusion buffer size of a BO-mode scheduler (its
        ``bo_low``/``bo_high``/``bo_seed``/``bo_trials`` settings):
        each trial is ``make_trial(buffer_bytes).run(...)``, scored by
        throughput, and the best trial's result is returned.  Trials
        are never traced; with ``trace`` the best size is run once more
        to record its spans.
        """
        optimizer = BayesianOptimizer(self.bo_low, self.bo_high, seed=self.bo_seed)
        # Resolve once so every trial shares one built DAG.
        workload = self._resolve_workload(workload, timing, cost)
        trials: dict[float, ScheduleResult] = {}
        by_partition: dict[tuple, ScheduleResult] = {}
        counter = default_registry().counter(
            "bayesopt.trials", "BO fusion trials, simulated or reused")

        def measure(buffer_bytes: float, trace: bool = False) -> ScheduleResult:
            return make_trial(buffer_bytes).run(
                timing, cost, iterations=iterations, faults=faults,
                fastpath=fastpath, workload=workload, trace=trace,
            )

        def throughput(buffer_bytes: float) -> float:
            # Only the partition reaches the schedule: a trial that
            # repeats one takes its result (extras are overwritten below).
            key = make_trial(buffer_bytes).fusion_partition(timing.model, workload)
            result = by_partition.get(key)
            counter.inc(outcome="simulated" if result is None else "reused")
            if result is None:
                result = by_partition[key] = measure(buffer_bytes)
            trials[buffer_bytes] = result
            return result.throughput

        tune(optimizer, throughput, self.bo_trials)
        best_x, _ = optimizer.best
        final = measure(best_x, trace=True) if trace else trials[best_x]
        final.scheduler = self.name
        final.extras.update({
            "fusion": "bo", "buffer_bytes": best_x,
            "bo_history": optimizer.observations,
        })
        return final

    def fusion_partition(self, model: ModelSpec, workload=None) -> tuple:
        """What a buffer-fused run of this scheduler schedules from its
        ``buffer_bytes``: :func:`~repro.core.fusion.buffer_cuts` on the
        layer-wise schedule, the sync buckets' members on a built DAG.
        :meth:`_run_bo` simulates each partition once."""
        from repro.core.fusion import buffer_cuts
        from repro.workloads.executor import plan_sync_buckets

        if workload is None:
            return buffer_cuts(model, self.buffer_bytes)
        return tuple(b.members for b in plan_sync_buckets(workload, self.buffer_bytes))

    def record_fast(
        self,
        timing: TimingModel,
        cost: CollectiveTimeModel,
        iterations: int = DEFAULT_ITERATIONS,
        faults: Optional[FaultPlan] = None,
        workload=None,
    ) -> FastIterationContext:
        """Record this policy's schedule without replaying it.

        The config-axis batched runner (:mod:`repro.runner.batched`)
        records one context per sweep config, stacks structurally
        identical recordings, replays them in one numpy pass, and
        hands each context back to :meth:`measure` — so a batched run
        produces exactly the result :meth:`run` would have.  Raises
        ``ValueError`` when :meth:`supports_batched_run` is False.
        """
        if iterations < 3:
            raise ValueError(f"need >= 3 iterations to reach steady state, got {iterations}")
        if not self.supports_batched_run():
            raise ValueError(
                f"scheduler {self.name!r} customises run(); recording one "
                f"schedule would skip its outer procedure"
            )
        workload = self._resolve_workload(workload, timing, cost)
        ctx = FastIterationContext(timing, cost, faults=faults)
        self._schedule_onto(ctx, iterations, workload)
        return ctx

    def measure(self, ctx: IterationContext, iterations: int) -> ScheduleResult:
        """Build the result from an executed (or batch-replayed) context.

        Shared by :meth:`run` and the batched runner so both paths
        assemble results with the same measurement code: steady-state
        iteration gaps from the first-FF start times, exposed
        communication from the final inter-iteration window.  Exposed
        time is computed from the context's job columns
        (``ctx.job_columns``), never from spans, so an untraced run
        builds none; a traced run's tracer records the window in
        ``tracer.window``.
        """
        timing = ctx.timing
        cost = ctx.cost
        starts, gaps = ctx.steady_state(iterations, self.name)
        window = (starts[-2], starts[-1])
        exposed_comm, exposed_rs, exposed_ag = exposed_times(
            *ctx.job_columns(), window, _EXPOSED_GROUPS
        )
        if ctx.tracer is not None:
            ctx.tracer.window = window
        result = ScheduleResult(
            scheduler=self.name,
            model_name=timing.model.name,
            cluster_name=cost.cluster.name,
            world_size=cost.world_size,
            batch_size=timing.batch_size,
            iteration_time=gaps[-1],
            t_ff=timing.t_ff,
            t_bp=timing.t_bp,
            exposed_comm=exposed_comm,
            exposed_rs=exposed_rs,
            exposed_ag=exposed_ag,
            tracer=ctx.tracer,
            iteration_times=gaps,
            extras=self.describe_options(),
        )
        result.extras.update(ctx.result_extras())
        _publish_run_metrics(result)
        return result

    def supports_batched_run(self) -> bool:
        """Whether ``record_fast`` + ``measure`` reproduces :meth:`run`.

        False whenever a subclass overrides :meth:`run` with a
        meta-procedure around multiple simulations (the BO fusion
        tuners): recording captures a single schedule, so batching it
        would silently skip the outer loop.  Subclasses whose override
        merely delegates for some configurations re-enable those
        configurations explicitly.
        """
        return type(self).run is Scheduler.run

    def describe_options(self) -> dict:
        """Scheduler-specific settings recorded into the result."""
        return {}


def _publish_run_metrics(result: "ScheduleResult") -> None:
    """Per-run headline metrics into the process registry."""
    registry = default_registry()
    labels = {
        "scheduler": result.scheduler,
        "model": result.model_name,
        "cluster": result.cluster_name,
    }
    registry.counter("run.count", "scheduler runs completed").inc(**labels)
    registry.gauge(
        "run.iteration_seconds", "steady-state iteration time of the last run"
    ).set(result.iteration_time, **labels)
    registry.gauge(
        "run.exposed_comm_seconds",
        "non-overlapped communication time of the last run (Fig. 8)",
    ).set(result.exposed_comm, **labels)
    registry.gauge(
        "run.throughput_samples_per_s", "aggregate cluster throughput"
    ).set(result.throughput, **labels)


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, type] = {}

SCHEDULER_NAMES = (
    "serial",
    "wfbp",
    "ddp",
    "horovod",
    "mg_wfbp",
    "bytescheduler",
    "dear",
    "zero",
)


def register_scheduler(cls: type) -> type:
    """Class decorator adding a Scheduler subclass to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a registry name")
    if cls.name in _REGISTRY:
        raise ValueError(f"scheduler {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_scheduler(name: str, **options) -> Scheduler:
    """Instantiate a scheduler by registry name with its options."""
    key = name.lower().replace("-", "_")
    if key not in _REGISTRY:
        raise KeyError(f"unknown scheduler {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**options)


#: Pre-facade ``simulate`` kwargs, removed at the end of their
#: deprecation cycle, with the migration each error message points to.
_REMOVED_OPTION_HINTS = {
    "fusion_plan": "pass fusion=... instead",
    "topology": "pass a ClusterSpec (see repro.api.SimulationConfig.cluster)",
    "link_preset": "pass a ClusterSpec (see repro.api.SimulationConfig.cluster)",
    "world_size": (
        "the cluster defines the world size; derive one with "
        "cluster.with_nodes(...)"
    ),
}


def _reject_legacy_options(options: dict) -> None:
    """Raise on pre-facade ``simulate`` kwargs (deprecation cycle over).

    These spellings warned with :class:`DeprecationWarning` for one
    release; they now fail fast with the migration hint so stale call
    sites cannot silently diverge from :class:`repro.api.SimulationConfig`.
    """
    for key, hint in _REMOVED_OPTION_HINTS.items():
        if key in options:
            raise TypeError(f"simulate() no longer accepts {key!r}; {hint}")


def simulate(
    scheduler: str,
    model: ModelSpec,
    cluster: ClusterSpec,
    batch_size: Optional[int] = None,
    algorithm: str = "ring",
    iterations: int = DEFAULT_ITERATIONS,
    iteration_compute: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    fastpath: bool = True,
    tuned_table=None,
    workload: Optional[str] = None,
    trace: bool = False,
    **options,
) -> ScheduleResult:
    """One-call facade: build timing + cost models and run a scheduler.

    ``iteration_compute`` overrides the calibrated single-GPU compute
    time (required for models outside the Table I zoo).  ``faults``
    injects a timing-level :class:`~repro.faults.plan.FaultPlan`;
    ``fastpath=False`` runs the event kernel instead of the vectorized
    replay (bit-identical results).

    ``algorithm="auto"`` consults ``tuned_table`` (a
    :class:`~repro.network.autotuner.SelectionTable`) — or, when None,
    the process-wide registered table — and falls back to plain ring
    with neither, bit-identically.

    ``workload`` names a registered comm-compute DAG
    (:data:`repro.workloads.WORKLOAD_NAMES`) to run instead of the
    classic layer-wise schedule.

    ``trace`` records the run's Perfetto spans into ``result.tracer``;
    without it the result carries no tracer and no span is built.

    Example::

        result = simulate("dear", get_model("resnet50"), cluster_10gbe(),
                          fusion="buffer", buffer_bytes=25e6)
    """
    _reject_legacy_options(options)
    timing = TimingModel.for_model(
        model, batch_size=batch_size, iteration_compute=iteration_compute
    )
    cost = CollectiveTimeModel(cluster, algorithm=algorithm, table=tuned_table)
    return get_scheduler(scheduler, **options).run(
        timing, cost, iterations=iterations, faults=faults, fastpath=fastpath,
        workload=workload, trace=trace,
    )


def single_gpu_result(
    model: ModelSpec,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
) -> ScheduleResult:
    """Reference run of one GPU with no communication at all."""
    timing = TimingModel.for_model(
        model, batch_size=batch_size, iteration_compute=iteration_compute
    )
    iteration_time = timing.t_ff + timing.t_bp
    return ScheduleResult(
        scheduler="single_gpu",
        model_name=model.name,
        cluster_name="single-gpu",
        world_size=1,
        batch_size=timing.batch_size,
        iteration_time=iteration_time,
        t_ff=timing.t_ff,
        t_bp=timing.t_bp,
        exposed_comm=0.0,
        exposed_rs=0.0,
        exposed_ag=0.0,
    )

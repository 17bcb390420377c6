"""Scheduler interface, result type, registry, and the `simulate` facade."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.faults.plan import FaultPlan, normalize_plan
from repro.models.layers import ModelSpec
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.schedulers.engine import FastIterationContext, IterationContext, record_fallback
from repro.sim.fastpath import FastPathUnsupported, fast_path_enabled
from repro.sim.trace import Tracer, subtract_intervals, total_length
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


@dataclass
class ScheduleResult:
    """Outcome of one simulated training run.

    ``iteration_time`` is the steady-state time between consecutive
    iterations; ``throughput`` is the aggregate cluster throughput in
    samples/s.  The exposed_* fields follow Fig. 8's definition: time
    of that communication category *not* hidden by compute, within one
    steady-state iteration window.
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

    #: Whether this policy's schedule is static (fixed durations, gates
    #: over previously submitted jobs only) and therefore eligible for
    #: the vectorized replay.  Schedulers that drive dynamic events or
    #: processes (e.g. bytescheduler's priority engine) set this False.
    #: The flag is advisory — a scheduler that claims support but uses a
    #: dynamic feature raises FastPathUnsupported at record time and
    #: falls back; the differential suite pins the timings either way.
    supports_fast_path: bool = True

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
            self.schedule(ctx, iterations)
        else:
            ctx.workload_name = workload.name
            self.schedule_workload(ctx, workload, iterations)

    def _build_and_run(
        self,
        timing: TimingModel,
        cost: CollectiveTimeModel,
        iterations: int,
        faults: Optional[FaultPlan] = None,
        fastpath: Optional[bool] = None,
        workload=None,
    ) -> IterationContext:
        """Schedule + execute on the fastest applicable context.

        ``fastpath`` overrides the DEAR_FASTPATH toggle (None = env).
        Timing-fault plans ride the fast path too (priced durations
        resolved at replay); only genuinely dynamic schedules raise
        :class:`FastPathUnsupported` and fall back to the event kernel.
        ``workload`` selects a comm-compute DAG — a registry name or a
        built :class:`~repro.workloads.ir.Workload` — instead of the
        classic layer-wise schedule.
        """
        workload = self._resolve_workload(workload, timing, cost)
        use_fast = fast_path_enabled() if fastpath is None else fastpath
        if self.supports_fast_path and use_fast:
            ctx = FastIterationContext(timing, cost, faults=faults)
            try:
                self._schedule_onto(ctx, iterations, workload)
                ctx.run()
                return ctx
            except FastPathUnsupported as exc:
                record_fallback("fastpath", "event", exc)
        ctx = IterationContext(timing, cost, faults=faults)
        self._schedule_onto(ctx, iterations, workload)
        ctx.run()
        return ctx

    def run(
        self,
        timing: TimingModel,
        cost: CollectiveTimeModel,
        iterations: int = DEFAULT_ITERATIONS,
        faults: Optional[FaultPlan] = None,
        fastpath: Optional[bool] = None,
        workload=None,
    ) -> ScheduleResult:
        """Simulate and measure the steady-state iteration time."""
        if iterations < 3:
            raise ValueError(f"need >= 3 iterations to reach steady state, got {iterations}")
        faults = normalize_plan(faults)
        ctx = self._build_and_run(
            timing, cost, iterations, faults=faults, fastpath=fastpath,
            workload=workload,
        )
        return self.measure(ctx, iterations)

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
        :class:`FastPathUnsupported` for policies (or feature
        combinations) only the event kernel can execute.
        """
        if iterations < 3:
            raise ValueError(f"need >= 3 iterations to reach steady state, got {iterations}")
        if not self.supports_fast_path:
            raise FastPathUnsupported(
                f"scheduler {self.name!r} opts out of the fast path",
                reason="opt_out",
            )
        if not self.supports_batched_run():
            raise FastPathUnsupported(
                f"scheduler {self.name!r} customises run(); recording one "
                f"schedule would skip its outer procedure",
                reason="custom_run",
            )
        workload = self._resolve_workload(workload, timing, cost)
        ctx = FastIterationContext(timing, cost, faults=normalize_plan(faults))
        self._schedule_onto(ctx, iterations, workload)
        return ctx

    def measure(self, ctx: IterationContext, iterations: int) -> ScheduleResult:
        """Build the result from an executed (or batch-replayed) context.

        Shared by :meth:`run` and the batched runner so both paths
        assemble results with the same measurement code: steady-state
        iteration gaps from the first-FF start times, exposed
        communication from the final inter-iteration window.
        """
        timing = ctx.timing
        cost = ctx.cost
        starts = ctx.ff_start_times()
        if len(starts) != iterations:
            raise RuntimeError(
                f"{self.name}: expected {iterations} iterations, observed {len(starts)}"
            )
        gaps = tuple(b - a for a, b in zip(starts, starts[1:]))
        iteration_time = gaps[-1]
        window = (starts[-2], starts[-1])
        result = ScheduleResult(
            scheduler=self.name,
            model_name=timing.model.name,
            cluster_name=cost.cluster.name,
            world_size=cost.world_size,
            batch_size=timing.batch_size,
            iteration_time=iteration_time,
            t_ff=timing.t_ff,
            t_bp=timing.t_bp,
            exposed_comm=_exposed(
                ctx.tracer,
                ("comm.ar", "comm.rs", "comm.ag", "comm.a2a", "comm.p2p"),
                window,
            ),
            exposed_rs=_exposed(ctx.tracer, ("comm.rs",), window),
            exposed_ag=_exposed(ctx.tracer, ("comm.ag",), window),
            tracer=ctx.tracer,
            iteration_times=gaps,
            extras=self.describe_options(),
        )
        workload_name = getattr(ctx, "workload_name", None)
        if workload_name is not None:
            result.extras["workload"] = workload_name
        if ctx.faults is not None:
            result.extras["fault_plan"] = ctx.faults.plan.label()
            result.extras["timing_faults"] = ctx.faults.summary()
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


def _clip(
    intervals: list[tuple[float, float]], window: tuple[float, float]
) -> list[tuple[float, float]]:
    lo, hi = window
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


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


def _exposed(tracer: Tracer, categories: tuple[str, ...], window: tuple[float, float]) -> float:
    """Non-overlapped communication time within the steady-state window."""
    comm: list[tuple[float, float]] = []
    for category in categories:
        comm.extend(
            (span.start, span.end) for span in tracer.filter(category=category)
        )
    compute = [
        (span.start, span.end)
        for span in tracer.spans
        if span.category in ("ff", "bp", "compute")
    ]
    return total_length(subtract_intervals(_clip(comm, window), _clip(compute, window)))


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
    fastpath: Optional[bool] = None,
    tuned_table=None,
    workload: Optional[str] = None,
    **options,
) -> ScheduleResult:
    """One-call facade: build timing + cost models and run a scheduler.

    ``iteration_compute`` overrides the calibrated single-GPU compute
    time (required for models outside the Table I zoo).  ``faults``
    injects a timing-level :class:`~repro.faults.plan.FaultPlan`;
    ``fastpath`` force-enables/disables the vectorized replay (None
    defers to ``DEAR_FASTPATH``).

    ``algorithm="auto"`` consults ``tuned_table`` (a
    :class:`~repro.network.autotuner.SelectionTable`) — or, when None,
    the process-wide registered table — and falls back to plain ring
    with neither, bit-identically.

    ``workload`` names a registered comm-compute DAG
    (:data:`repro.workloads.WORKLOAD_NAMES`) to run instead of the
    classic layer-wise schedule.

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
        workload=workload,
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

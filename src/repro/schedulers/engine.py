"""Shared discrete-event wiring for one simulated training run.

The :class:`IterationContext` owns the simulator, a GPU compute stream,
a communication stream, and the tracer.  Because the paper's cluster is
homogeneous and the collectives are synchronous, all ranks execute
identical timelines; the context therefore simulates one representative
rank and charges each collective its full cluster-wide cost from the
alpha-beta model — the same reduction the paper's own analysis
(Eq. 6-9) makes.  Heterogeneity studies can scale the compute profile
instead (``compute_scale`` in :func:`repro.models.build_profile`).

Dependency conventions (mirroring CUDA semantics):

- both streams are strictly in-order; a job with a ``gate`` stalls the
  stream until the gate event triggers (``cudaStreamWaitEvent``);
- cross-stream dependencies are expressed only through gates.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan, normalize_plan
from repro.faults.timing import TimingFaultInjector
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.sim.engine import Event, Simulator
from repro.sim.fastpath import FastPathUnsupported, FastTimeline
from repro.sim.resources import Job, Stream
from repro.sim.trace import Tracer
from repro.telemetry.registry import default_registry

__all__ = ["IterationContext", "FastIterationContext"]

#: Tracer category of each collective kind (hoisted: ``submit_collective``
#: is called once per fusion group per iteration).
COLLECTIVE_CATEGORIES = {
    "all_reduce": "comm.ar",
    "reduce_scatter": "comm.rs",
    "all_gather": "comm.ag",
    "all_to_all": "comm.a2a",
    "all_to_allv": "comm.a2a",
    "send_recv": "comm.p2p",
}


class IterationContext:
    """One simulated training run: streams, tracer, and submit helpers."""

    def __init__(self, timing: TimingModel, cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self.timing = timing
        self.cost = cost
        self.model = timing.model
        self.sim = Simulator()
        self.tracer = tracer if tracer is not None else Tracer()
        self.compute = Stream(self.sim, "compute", tracer=self.tracer, actor="gpu.compute")
        self.comm = Stream(self.sim, "comm", tracer=self.tracer, actor="gpu.comm")
        #: start time of the first feed-forward job of each iteration,
        #: filled in after :meth:`run` from the recorded jobs.
        self.ff_first_jobs: list[Job] = []
        #: kind -> bound cost-model method (dict dispatch beats the
        #: per-call ``getattr`` lookup on this hot path).
        self._collective_time = {
            "all_reduce": cost.all_reduce,
            "reduce_scatter": cost.reduce_scatter,
            "all_gather": cost.all_gather,
            "all_to_all": cost.all_to_all,
            "all_to_allv": cost.all_to_allv,
            "send_recv": cost.send_recv,
        }
        # Timing faults swap fixed job durations for callables evaluated
        # at job start; an empty plan normalises to None and leaves the
        # healthy code path (and its timings) byte-identical.
        faults = normalize_plan(faults)
        self.faults = (
            TimingFaultInjector(faults, cost)
            if faults is not None and faults.has_timing_faults
            else None
        )

    # -- compute submission --------------------------------------------------

    def _compute_body(self, duration: float):
        """Fixed duration, or a start-time callable under timing faults."""
        if self.faults is None:
            return duration
        return self.faults.compute_body(duration, self.sim)

    def _collective_body(self, kind: str, nbytes: float, extra_time: float,
                         duration: float):
        """Healthy duration, or a start-priced body under timing faults."""
        if self.faults is None:
            return duration
        return self.faults.collective_body(kind, nbytes, extra_time, self.sim)

    def submit_ff_layer(self, iteration: int, layer_index: int,
                        gate: Optional[Event] = None) -> Job:
        """Feed-forward compute job for one layer of one iteration."""
        job = self.compute.submit(
            self._compute_body(self.timing.ff_time(layer_index)),
            name=f"ff.{iteration}.{layer_index}",
            category="ff",
            gate=gate,
            metadata={"iteration": iteration, "layer": layer_index},
        )
        if layer_index == 0:
            self.ff_first_jobs.append(job)
        return job

    def submit_bp_layer(self, iteration: int, layer_index: int,
                        gate: Optional[Event] = None) -> Job:
        """Backpropagation compute job for one layer of one iteration."""
        return self.compute.submit(
            self._compute_body(self.timing.bp_time(layer_index)),
            name=f"bp.{iteration}.{layer_index}",
            category="bp",
            gate=gate,
            metadata={"iteration": iteration, "layer": layer_index},
        )

    def submit_compute(self, duration: float, iteration: int, name: str,
                       category: str = "compute",
                       gate: Optional[Event] = None,
                       metadata: Optional[dict] = None) -> Job:
        """Generic compute kernel on the compute stream.

        The workload-DAG executor submits arbitrary kernels (expert
        FFNs, embedding lookups, pipeline-stage slices) through this
        instead of the layer-indexed helpers; ``duration`` is the
        kernel's virtual seconds on the representative rank.
        """
        span_metadata = {"iteration": iteration}
        if metadata:
            span_metadata.update(metadata)
        return self.compute.submit(
            self._compute_body(duration),
            name=f"{name}.{iteration}",
            category=category,
            gate=gate,
            metadata=span_metadata,
        )

    def submit_forward_pass(self, iteration: int,
                            first_gate: Optional[Event] = None,
                            layer_gates: Optional[dict[int, Event]] = None) -> list[Job]:
        """All FF jobs of an iteration, first layer first.

        ``first_gate`` stalls the whole pass (the WFBP-family barrier);
        ``layer_gates`` adds per-layer gates (DeAR's FeedPipe and
        ByteScheduler's per-layer readiness).
        """
        jobs = []
        layer_gates = layer_gates or {}
        for layer_index in range(self.model.num_layers):
            gate: Optional[Event] = layer_gates.get(layer_index)
            if layer_index == 0 and first_gate is not None:
                if gate is None:
                    gate = first_gate
                else:
                    gate = self.sim.all_of([first_gate, gate])
            jobs.append(self.submit_ff_layer(iteration, layer_index, gate=gate))
        return jobs

    def submit_backward_pass(self, iteration: int) -> list[Job]:
        """All BP jobs of an iteration, last layer first.

        Returns jobs indexed by *layer index* (``jobs[i]`` is layer i's
        BP job) for convenient gating, even though execution order is
        reversed.
        """
        jobs: list[Optional[Job]] = [None] * self.model.num_layers
        for layer_index in reversed(range(self.model.num_layers)):
            jobs[layer_index] = self.submit_bp_layer(iteration, layer_index)
        return jobs  # type: ignore[return-value]

    # -- communication submission ---------------------------------------------

    def submit_collective(
        self,
        kind: str,
        nbytes: float,
        iteration: int,
        label: str,
        gate: Optional[Event] = None,
        extra_time: float = 0.0,
        metadata: Optional[dict] = None,
        peers: Optional[int] = None,
    ) -> Job:
        """One collective on the comm stream.

        ``kind`` is one of :data:`COLLECTIVE_CATEGORIES`; ``extra_time``
        charges scheduler-specific overhead (negotiation, coordinator
        cycles) serialised with the collective.  ``peers`` restricts the
        collective to a subgroup of that many ranks (tensor-parallel
        all-reduces in 3D-parallel workloads), priced by
        :meth:`~repro.network.cost_model.CollectiveTimeModel.subgroup_time`
        and exempt from timing-fault repricing (the fault injector
        models full-world launches).  ``metadata`` merges
        scheduler-specific context into the traced span (fusion-group
        id, member layers) on top of the standard fields: payload
        bytes, the collective algorithm, and a ``flow`` id shared by
        the RS/AG pair of one fusion group so trace viewers can draw
        the gradient's lifecycle arrows.
        """
        if kind not in COLLECTIVE_CATEGORIES:
            raise ValueError(
                f"unknown collective kind {kind!r}; "
                f"expected one of {sorted(COLLECTIVE_CATEGORIES)}"
            )
        if peers is not None:
            duration = self.cost.subgroup_time(kind, nbytes, peers) + extra_time
            body = duration
        else:
            duration = self._collective_time[kind](nbytes) + extra_time
            body = self._collective_body(kind, nbytes, extra_time, duration)
        category = COLLECTIVE_CATEGORIES[kind]
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
        return self.comm.submit(
            body,
            name=f"{kind}.{iteration}.{label}",
            category=category,
            gate=gate,
            metadata=span_metadata,
        )

    # -- execution -------------------------------------------------------------

    def run(self, check_quiescent: bool = True) -> float:
        """Run the simulation to completion; returns the final time.

        With ``check_quiescent`` (default), raises a diagnostic error if
        any stream still has outstanding jobs after the event heap
        drains — the signature of a dependency deadlock in a schedule.
        """
        final = self.sim.run()
        if check_quiescent:
            stuck = [
                stream.stall_report()
                for stream in (self.compute, self.comm)
                if stream.outstanding
            ]
            if stuck:
                raise RuntimeError(
                    "schedule deadlocked: " + "; ".join(stuck)
                )
        if self.faults is not None:
            self.faults.publish(self.tracer)
        self._publish_stream_metrics(
            "event",
            [(s.name, s.jobs_completed, s.busy_time)
             for s in (self.compute, self.comm)],
        )
        return final

    def _publish_stream_metrics(
        self, engine: str, streams: list[tuple[str, int, float]]
    ) -> None:
        """Stream-level counters into the process registry (once per run)."""
        registry = default_registry()
        jobs = registry.counter(
            "sim.stream.jobs", "jobs completed per simulated stream"
        )
        busy = registry.counter(
            "sim.stream.busy_seconds", "virtual busy time per simulated stream"
        )
        for name, completed, busy_time in streams:
            jobs.inc(completed, stream=name)
            busy.inc(busy_time, stream=name)
        registry.counter(
            "sim.runs", "simulations executed, by engine kind"
        ).inc(engine=engine)

    def ff_start_times(self) -> list[float]:
        """Start time of each iteration's first FF job (after :meth:`run`)."""
        starts = []
        for job in self.ff_first_jobs:
            if job.start is None:
                raise RuntimeError(f"job {job.name} never ran; dependency deadlock?")
            starts.append(job.start)
        return starts


def record_fallback(source: str, target: str, exc: FastPathUnsupported) -> None:
    """Count one fall back from a fast engine to a slower one.

    Published as ``sim.fallbacks{from,to,reason}``; ``reason`` is the
    exception's fixed code, never its message, so the label set stays
    bounded.
    """
    default_registry().counter(
        "sim.fallbacks", "fast-path fallbacks to a slower engine"
    ).inc(**{"from": source, "to": target, "reason": exc.reason})


class FastIterationContext(IterationContext):
    """IterationContext backed by the vectorized replay.

    Presents the same submit API, but records jobs into a
    :class:`~repro.sim.fastpath.FastTimeline` instead of driving the
    event kernel; :meth:`run` replays the recorded schedule in closed
    form (see :mod:`repro.sim.fastpath` for the recurrence and its
    equivalence argument).  Timing faults record *priced* duration
    placeholders the replay resolves at each job's start time — the
    same pricing the event kernel's callable bodies perform, so faulty
    runs stay on this engine.  Schedulers that need dynamic events or
    process bodies make the recorder raise
    :class:`~repro.sim.fastpath.FastPathUnsupported`, which
    :meth:`repro.schedulers.base.Scheduler.run` catches to fall back to
    the event-driven context.
    """

    def __init__(self, timing: TimingModel, cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self.timing = timing
        self.cost = cost
        self.model = timing.model
        self.tracer = tracer if tracer is not None else Tracer()
        self._timeline = FastTimeline()
        self.sim = self._timeline.sim
        self.compute = self._timeline.stream("compute", actor="gpu.compute")
        self.comm = self._timeline.stream("comm", actor="gpu.comm")
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

    def _compute_body(self, duration: float):
        """Fixed duration, or a replay-priced placeholder under faults."""
        if self.faults is None:
            return duration
        return self.faults.compute_priced(duration)

    def _collective_body(self, kind: str, nbytes: float, extra_time: float,
                         duration: float):
        if self.faults is None:
            return duration
        return self.faults.collective_priced(kind, nbytes, extra_time)

    def run(self, check_quiescent: bool = True) -> float:
        """Replay the recorded schedule; returns the final virtual time.

        ``check_quiescent`` is accepted for interface parity but has
        nothing to check: recordable schedules only carry back-edges, so
        they cannot deadlock.
        """
        final = self._timeline.replay(self.tracer)
        self.finish()
        return final

    def finish(self, engine: str = "fastpath") -> None:
        """Post-replay bookkeeping: fault markers plus stream metrics.

        Factored out of :meth:`run` so a config-axis batched replay
        (:mod:`repro.sim.batched`), which replays many recorded
        contexts in one numpy pass, performs the same per-context
        publication afterwards.
        """
        if self.faults is not None:
            self.faults.publish(self.tracer)
        busy_times = self._timeline.stream_busy_times()
        self._publish_stream_metrics(
            engine,
            [
                (stream.name, stream.jobs_submitted,
                 busy_times[stream.stream_id])
                for stream in (self.compute, self.comm)
            ],
        )

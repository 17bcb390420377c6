"""The submit API every scheduler drives, and its single-rank engines.

:class:`IterationContext` defines what a scheduler calls — per-layer
FF/BP jobs, generic kernels, collectives, ``ctx.sim.all_of`` — once for
every engine.  It owns the simulator, a GPU compute stream, a
communication stream, and — only when a trace was requested — the
tracer.  Because the paper's cluster is homogeneous and the collectives
are synchronous, all ranks execute identical timelines; the context
therefore simulates one representative rank and charges each collective
its full cluster-wide cost from the alpha-beta model — the same
reduction the paper's own analysis (Eq. 6-9) makes.
:class:`FastIterationContext` realises the same API on the vectorized
replay; :mod:`repro.schedulers.multirank` realises it on explicit ranks
(heterogeneity studies).

Dependency conventions (mirroring CUDA semantics):

- both streams are strictly in-order; a job with a ``gate`` stalls the
  stream until the gate event triggers (``cudaStreamWaitEvent``);
- cross-stream dependencies are expressed only through gates.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, normalize_plan
from repro.faults.timing import TimingFaultInjector
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.sim.engine import Event, Simulator
from repro.sim.fastpath import GateColumn, Timeline
from repro.sim.resources import Job, Stream
from repro.sim.trace import Tracer, category_code
from repro.telemetry.registry import default_registry

__all__ = ["IterationContext", "FastIterationContext", "collective_times"]

#: Tracer category of each collective kind.
COLLECTIVE_CATEGORIES = {
    "all_reduce": "comm.ar",
    "reduce_scatter": "comm.rs",
    "all_gather": "comm.ag",
    "all_to_all": "comm.a2a",
    "all_to_allv": "comm.a2a",
    "send_recv": "comm.p2p",
}


class _RepresentativeRank:
    """Slot durations on the one simulated rank: plain floats.

    ``ff_pass`` and ``bp_pass`` are one pass's durations in submission
    order: FF layers first to last, BP layers last to first.
    """

    __slots__ = ("ff_pass", "bp_pass")

    def __init__(self, timing: TimingModel):
        self.ff_pass = tuple(timing.profile.ff_times)
        self.bp_pass = tuple(reversed(timing.profile.bp_times))

    @staticmethod
    def kernel(duration: float) -> float:
        return duration


class IterationContext:
    """One simulated training run: the submit API every engine shares.

    Schedulers call only what this class defines: the FF/BP pass,
    kernel and collective submit methods, ``ctx.sim.all_of``,
    ``ff_start_times``.  An engine supplies how one slot or pass is
    realised — ``durations`` (floats on the representative rank, cached
    one-per-rank-class vectors on explicit ranks), :meth:`_compute_pass`,
    :meth:`_compute_slot`, :meth:`_collective_run` and :meth:`run` — so
    span names, categories and metadata are built once and stay
    byte-identical across engines.  Timing faults are priced by
    the same placeholder objects on every engine
    (:class:`~repro.faults.timing.PricedCompute`,
    :class:`~repro.faults.timing.PricedCollective`,
    :class:`~repro.faults.timing.RankPricedCompute`), resolved at job
    start.  This class itself runs the representative rank on the event
    kernel: the ``fastpath=False`` oracle the replay is tested against.
    """

    #: engine label of the ``sim.runs`` metric.
    engine = "event"

    def __init__(self, timing: TimingModel, cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self._bind(timing, cost, tracer, faults, _RepresentativeRank(timing))
        self._start_kernel()
        self.sim = self._sim
        self.compute = self.stream("compute", actor="gpu.compute")
        self.comm = self.stream("comm", actor="gpu.comm")

    def _start_kernel(self) -> None:
        """The event kernel and the streams' shared completion log."""
        self._sim = Simulator()
        #: ``(actor, job)`` of every stream's positive-duration jobs, in
        #: completion order: what the run is measured and traced from.
        self._completed: list[tuple[str, Job]] = []
        #: every stream made through :meth:`stream`, checked for stalls.
        self._streams: list[Stream] = []

    def stream(self, name: str, actor: str = "") -> Stream:
        """A new in-order stream whose jobs are traced and measured.

        Schedulers that add streams of their own (ByteScheduler's
        credit channels) create them here, so the run's measurement
        sees their jobs too.
        """
        stream = Stream(self._sim, name, actor=actor, log=self._completed)
        self._streams.append(stream)
        return stream

    def _bind(self, timing: TimingModel, cost: CollectiveTimeModel,
              tracer: Optional[Tracer], faults: Optional[FaultPlan],
              durations) -> None:
        """The state every engine shares.

        ``timing`` is the *planning* profile fusion-plan builders read
        (rank 0's on explicit ranks); ``tracer`` is ``None`` unless a
        trace was requested; ``durations`` holds ``ff_pass`` and
        ``bp_pass`` (a pass's durations in submission order) and answers
        ``kernel(seconds)`` with what :meth:`_compute_slot` takes.
        """
        self.timing = timing
        self.cost = cost
        self.model = timing.model
        self.tracer = tracer
        self.durations = durations
        #: first feed-forward job of each iteration, in submission order.
        self.ff_first_jobs: list = []
        #: set by the scheduler when a workload DAG is scheduled.
        self.workload_name: Optional[str] = None
        #: iteration of the latest submission (:meth:`_enter_iteration`).
        self._iteration = 0
        # An empty plan normalises to None and leaves the healthy code
        # path (and its timings) byte-identical.
        faults = normalize_plan(faults)
        self.faults = (
            TimingFaultInjector(faults, cost)
            if faults is not None and faults.has_timing_faults
            else None
        )

    # -- compute submission --------------------------------------------------

    def submit_forward_pass(self, iteration: int,
                            first_gate: Optional[Event] = None,
                            layer_gates=None):
        """All FF jobs of an iteration, first layer first; returns the pass.

        ``first_gate`` stalls the whole pass (the WFBP-family barrier);
        ``layer_gates`` adds per-layer gates (DeAR's FeedPipe and
        ByteScheduler's per-layer readiness), by layer: a dict, or a
        sequence as :meth:`cover_gates` returns.  The pass is indexed by
        layer; policies gate on it with ``done_of(layers)`` and attach
        flow ids with ``add_flows(layers, flow)``.
        """
        if iteration != self._iteration:
            self._enter_iteration(iteration)
        layers = range(self.model.num_layers)
        gates = None
        if layer_gates or first_gate is not None:
            gates = _slot_gates(layer_gates or {}, layers)
            if first_gate is not None and gates:
                gates = list(gates)
                gates[0] = (
                    first_gate if gates[0] is None
                    else self.sim.all_of([first_gate, gates[0]])
                )
        forward = self._compute_pass(
            "ff", iteration, layers, self.durations.ff_pass, gates
        )
        if layers:
            self.ff_first_jobs.append(forward[0])
        return forward

    def submit_backward_pass(self, iteration: int, layer_gates=None):
        """All BP jobs of an iteration, last layer first; returns the pass.

        The pass is indexed by *layer index* (``bp[i]`` is layer i's BP
        job), even though execution order is reversed.  ``layer_gates``
        gates single layers (ZeRO's parameter re-gathers), as in
        :meth:`submit_forward_pass`.
        """
        if iteration != self._iteration:
            self._enter_iteration(iteration)
        layers = range(self.model.num_layers - 1, -1, -1)
        return self._compute_pass(
            "bp", iteration, layers, self.durations.bp_pass,
            _slot_gates(layer_gates, layers) if layer_gates else None,
        )

    def submit_compute(self, duration: float, iteration: int, name: str,
                       category: str = "compute",
                       gate: Optional[Event] = None,
                       metadata: Optional[dict] = None) -> Job:
        """Generic compute kernel on the compute stream.

        The workload-DAG executor submits arbitrary kernels (expert
        FFNs, embedding lookups, pipeline-stage slices) through this
        instead of the FF/BP pass methods; ``duration`` is the
        kernel's virtual seconds on the planning rank, scaled per rank
        by compute speed on explicit ranks.
        """
        if iteration != self._iteration:
            self._enter_iteration(iteration)
        span_metadata = {"iteration": iteration}
        if metadata:
            span_metadata.update(metadata)
        return self._compute_slot(
            self.durations.kernel(duration),
            name=f"{name}.{iteration}",
            category=category,
            gate=gate,
            metadata=span_metadata,
        )

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
        """One collective on the comm stream: a run of one
        (:meth:`submit_collectives`); returns its job.

        ``kind`` is one of :data:`COLLECTIVE_CATEGORIES`; ``extra_time``
        charges scheduler-specific overhead (negotiation, coordinator
        cycles) serialised with the collective.  ``peers`` restricts the
        collective to a subgroup of that many ranks (tensor-parallel
        all-reduces in 3D-parallel workloads), priced by
        :meth:`~repro.network.cost_model.CollectiveTimeModel.subgroup_time`
        and exempt from timing-fault repricing (the fault injector
        models full-world launches).  ``metadata`` merges
        scheduler-specific context into the traced span on top of the
        standard fields: payload bytes, the collective algorithm, and a
        ``flow`` id shared by the RS/AG pair of one fusion group so
        trace viewers can draw the gradient's lifecycle arrows.
        """
        return self._submit_run(
            kind, iteration, (nbytes,), None if gate is None else (gate,),
            (extra_time,), lambda position: (label, metadata), peers,
        )[0]

    def submit_collectives(self, kind: str, groups: Sequence, iteration: int,
                           gates: Optional[Sequence] = None,
                           extras: Optional[Sequence[float]] = None,
                           prefix: str = ""):
        """One collective per fusion group, in ``groups`` order, on the
        comm stream; returns the run, indexed by position as a pass is by
        layer.  ``gates``/``extras`` hold each slot's ``gate`` and
        ``extra_time``; slot ``p`` is labelled ``"{prefix}g{index}"`` and
        carries its group's fusion attribution."""
        def label_of(position: int) -> tuple[str, dict]:
            group = groups[position]
            return f"{prefix}g{group.index}", {
                "group": group.index, "layers": group.layer_indices,
                "num_tensors": len(group.tensors),
            }

        sizes = [group.nbytes for group in groups]
        return self._submit_run(kind, iteration, sizes, gates, extras, label_of)

    def _submit_run(self, kind: str, iteration: int, sizes: Sequence[float],
                    gates, extras, label_of, peers: Optional[int] = None):
        """Price and submit a run; ``label_of(p)`` is slot ``p``'s ``(label, metadata)``."""
        if kind not in COLLECTIVE_CATEGORIES:
            raise ValueError(
                f"unknown collective kind {kind!r}; "
                f"expected one of {sorted(COLLECTIVE_CATEGORIES)}"
            )
        if iteration != self._iteration:
            self._enter_iteration(iteration)
        extras = extras or [0.0] * len(sizes)
        times = (
            [self.cost.subgroup_time(kind, nbytes, peers) for nbytes in sizes]
            if peers is not None else collective_times(self.cost, kind, sizes)
        )
        if self.faults is not None and peers is None:
            priced = self.faults.collective_priced
            bodies = [priced(kind, nbytes, extra) for nbytes, extra in zip(sizes, extras)]
        else:
            bodies = [time + extra for time, extra in zip(times, extras)]
        algorithm = getattr(
            self.cost, "trace_algorithm", getattr(self.cost, "algorithm", "unknown")
        )

        def describe(position: int) -> tuple[str, dict]:
            label, fields = label_of(position)
            metadata = {"iteration": iteration, "bytes": sizes[position],
                        "extra": extras[position], "algorithm": algorithm,
                        "flow": f"{iteration}.{label}"}
            if peers is not None:
                metadata["peers"] = peers
            metadata.update(fields or {})
            return f"{kind}.{iteration}.{label}", metadata

        return self._collective_run(bodies, gates, COLLECTIVE_CATEGORIES[kind], describe)

    def ready_gates(self, bp, plan) -> list:
        """Each of ``plan``'s groups' gate on its gradients in ``bp``."""
        return [bp.done_of(group.layer_indices) for group in plan]

    def cover_gates(self, run, cover: Sequence[tuple[int, ...]]) -> list:
        """Per entry of ``cover`` (``FusionPlan.forward_cover``, say), a
        gate on the slots of ``run`` at its positions; ``None`` for ``()``."""
        return [
            None if not positions
            else run[positions[0]].done if len(positions) == 1
            else run.done_of(positions)
            for positions in cover
        ]

    # -- engine hooks: how one slot is realised ---------------------------------

    def record(self, schedule: "Schedule", iterations: int,
               periodic: bool = True) -> None:
        """Submit the slots of ``schedule(self, iterations)``.

        The event kernel executes every iteration it is given, so it
        takes them all; the vectorized replay records fewer when
        ``periodic`` says iterations 2 on repeat iteration 1.
        """
        schedule(self, iterations)

    def _enter_iteration(self, iteration: int) -> None:
        """The scheduler's next submission belongs to ``iteration``."""
        self._iteration = iteration

    def _compute_pass(self, kind: str, iteration: int, layers: range,
                      durations, gates):
        """Submit one FF or BP pass: layer ``layers[p]`` takes
        ``durations[p]`` and, when ``gates`` is given, ``gates[p]``."""
        jobs = [None] * len(layers)
        for position, layer in enumerate(layers):
            jobs[layer] = self._compute_slot(
                durations[position],
                name=f"{kind}.{iteration}.{layer}",
                category=kind,
                gate=None if gates is None else gates[position],
                metadata={"iteration": iteration, "layer": layer},
            )
        return _JobPass(jobs, self.sim, self.tracer is not None)

    def _compute_slot(self, duration, name: str, category: str,
                      gate, metadata: dict):
        """Submit one compute slot; ``duration`` comes from ``durations``."""
        if self.faults is not None:
            duration = self.faults.compute_priced(duration)
        return self.compute.submit(
            duration, name=name, category=category, gate=gate, metadata=metadata
        )

    def _collective_run(self, bodies: list, gates, category: str, describe):
        """Submit a run slot by slot; ``describe(position)`` gives a
        slot's ``(name, metadata)``."""
        gates = gates or [None] * len(bodies)
        return _JobPass([
            self._collective_slot(body, *describe(position), category, gates[position])
            for position, body in enumerate(bodies)
        ], self.sim, False)

    def _collective_slot(self, body, name: str, metadata: dict,
                         category: str, gate):
        """Submit one collective: a duration or a priced placeholder."""
        return self.comm.submit(
            body, name=name, category=category, gate=gate, metadata=metadata
        )

    # -- execution -------------------------------------------------------------

    def run(self) -> float:
        """Run the simulation to completion; returns the final time.

        Raises a diagnostic error if any stream still has outstanding
        jobs after the event heap drains — the signature of a dependency
        deadlock in a schedule.
        """
        final = self._sim.run()
        stuck = [stream.stall_report() for stream in self._streams
                 if stream.outstanding]
        if stuck:
            raise RuntimeError("schedule deadlocked: " + "; ".join(stuck))
        if self.tracer is not None:
            record = self.tracer.record
            for actor, job in self._completed:
                record(job.name, job.category, actor, job.start, job.end,
                       job.metadata)
        self.finish()
        return final

    def finish(self) -> None:
        """Post-run bookkeeping: fault markers, then run metrics.

        Separate from :meth:`run` so a config-axis batched replay
        (:mod:`repro.runner.batched`), which replays many recorded
        contexts in one numpy pass, performs the same per-context
        publication afterwards.
        """
        if self.faults is not None:
            self.faults.publish(self.tracer)
        registry = default_registry()
        streams = self._stream_totals()
        if streams:
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
        ).inc(engine=self.engine)

    def _stream_totals(self) -> list[tuple[str, int, float]]:
        """``(name, jobs, busy seconds)`` of each ``sim.stream.*`` stream."""
        return [(s.name, s.jobs_completed, s.busy_time)
                for s in (self.compute, self.comm)]

    # -- measurement -----------------------------------------------------------

    def ff_start_times(self) -> list[float]:
        """Start time of each iteration's first FF job (after :meth:`run`)."""
        starts = []
        for job in self.ff_first_jobs:
            start = job.start
            if start is None:
                raise RuntimeError(f"job {job.name} never ran; dependency deadlock?")
            starts.append(start)
        return starts

    def job_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start, end and category code of every completed job, in the
        engine's order, after :meth:`run`: the measurement input."""
        jobs = [job for _, job in self._completed]
        return (
            np.array([job.start for job in jobs], dtype=float),
            np.array([job.end for job in jobs], dtype=float),
            np.array([category_code(job.category) for job in jobs], dtype=np.intp),
        )

    def steady_state(self, iterations: int,
                     label: str) -> tuple[list[float], tuple[float, ...]]:
        """First-FF start times and the iteration gaps between them.

        Raises when the run did not execute ``iterations`` iterations;
        ``label`` names the policy in the message.
        """
        starts = self.ff_start_times()
        if len(starts) != iterations:
            raise RuntimeError(
                f"{label}: expected {iterations} iterations, observed {len(starts)}"
            )
        return starts, tuple(b - a for a, b in zip(starts, starts[1:]))

    def result_extras(self) -> dict:
        """The ``workload``, ``fault_plan`` and ``timing_faults`` extras."""
        extras = {}
        if self.workload_name is not None:
            extras["workload"] = self.workload_name
        if self.faults is not None:
            extras["fault_plan"] = self.faults.plan.label()
            extras["timing_faults"] = self.faults.summary()
        return extras


def collective_times(cost, kind: str, sizes: Sequence[float]) -> list[float]:
    """``[cost.<kind>(nbytes) for nbytes in sizes]``, in one pass where
    ``cost`` has :meth:`~repro.network.cost_model.CollectiveTimeModel.collective_times`
    (a cost model with the per-size methods only is asked size by size)."""
    if hasattr(cost, "collective_times"):
        return cost.collective_times(kind, sizes)
    return list(map(getattr(cost, kind), sizes))


def _slot_gates(layer_gates, layers: range):
    """A pass's gate per slot, ``layers`` in slot order, from per-layer
    gates: a dict by layer, or a sequence indexed by layer."""
    if isinstance(layer_gates, dict):
        return [layer_gates.get(layer) for layer in layers]
    return layer_gates if layers.step > 0 else layer_gates[::-1]


class _JobPass:
    """One FF or BP pass on an event kernel: its jobs, indexed by layer.

    The event-kernel form of :class:`~repro.sim.fastpath.Chain`, with
    the same ``done_of`` and ``add_flows``.
    """

    __slots__ = ("_jobs", "_sim", "_flows")

    def __init__(self, jobs: list, sim, flows: bool):
        self._jobs = jobs
        self._sim = sim
        self._flows = flows

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs)

    def __getitem__(self, layer: int):
        return self._jobs[layer]

    def done_of(self, layers: Sequence[int]):
        """The gate on these layers' jobs."""
        return self._sim.all_of([self._jobs[layer].done for layer in layers])

    @property
    def done(self):
        """The gate on every job."""
        return self.done_of(range(len(self._jobs)))

    def add_flows(self, layers: Sequence[int], flow: str) -> None:
        """Append ``flow`` to these layers' ``flows`` span metadata
        (only on a traced run: nothing else reads it)."""
        if self._flows:
            for layer in layers:
                self._jobs[layer].metadata.setdefault("flows", []).append(flow)


#: A policy's schedule body: submits ``iterations`` iterations onto a context.
Schedule = Callable[[IterationContext, int], None]


class VerifiedSchedule(Protocol):
    """A schedule recorded in a guessed static order
    (:meth:`FastIterationContext.record_verified`)."""

    #: whether iterations 2 on repeat iteration 1's slots.
    periodic: bool

    def __call__(self, ctx: IterationContext, iterations: int) -> None: ...

    def verify(self, ctx: IterationContext) -> bool:
        """Whether the replayed ``ctx`` confirms the recorded order;
        adopts the order the replay implies when it does not."""


class _TwoIterations(Exception):
    """Stops a periodic recording at the first slot of iteration 2."""


class FastIterationContext(IterationContext):
    """IterationContext backed by the vectorized replay.

    Records jobs into a one-rank :class:`~repro.sim.fastpath.Timeline`
    instead of driving the event kernel; :meth:`run` replays the
    recorded schedule in closed form (see :mod:`repro.sim.fastpath` for
    the recurrence and its equivalence argument).  Every periodic run,
    traced or faulted, records two iterations and tiles the rest
    (:meth:`record`).  The run is measured from the replay arrays; spans
    go only into a tracer attached before recording.
    Timing-fault placeholders are resolved at each job's replayed start,
    so faulty runs stay on this engine.  A schedule whose order is
    decided at run time records a guessed order and has the replay
    confirm it (:meth:`record_verified`).  A schedule that needs dynamic
    events or process bodies makes the recorder raise
    :class:`~repro.sim.fastpath.FastPathUnsupported`: it runs only on
    the event-driven context, with ``fastpath=False``.
    """

    engine = "fastpath"

    #: while :meth:`record` takes two iterations: whether it does, and
    #: the slot where iteration 1 began.
    _tiling = False
    _block_start: Optional[int] = None
    #: whether :meth:`record` ran without a tracer.
    _untraced = False

    def __init__(self, timing: TimingModel, cost: CollectiveTimeModel,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None):
        self._bind(timing, cost, tracer, faults, _RepresentativeRank(timing))
        self._timeline = Timeline()
        self.sim = self._timeline.sim
        self.compute = self.stream("compute", actor="gpu.compute")
        self.comm = self.stream("comm", actor="gpu.comm")

    def stream(self, name: str, actor: str = ""):
        return self._timeline.stream(name, actor=actor)

    def _compute_pass(self, kind: str, iteration: int, layers: range,
                      durations, gates):
        """Record the pass as one chain on the compute stream."""
        return self.compute.submit_chain(
            self._pass_bodies(durations), gates, kind,
            (kind, iteration, layers), flows=self.tracer is not None,
        )

    def _pass_bodies(self, durations):
        """A pass's slot bodies: the durations, or with timing faults
        their priced placeholders in slot order (the ledger's order)."""
        if self.faults is None:
            return durations
        return [self.faults.compute_priced(duration) for duration in durations]

    def _collective_run(self, bodies: list, gates, category: str, describe):
        run = self.comm.submit_collectives(bodies, gates, category, describe)
        if self.tracer is not None:
            run._build_handles()  # a traced run labels every slot anyway
        return run

    def ready_gates(self, bp, plan) -> GateColumn:
        return GateColumn(bp.start, plan.ready_positions)

    def cover_gates(self, run, cover: Sequence[tuple[int, ...]]) -> GateColumn:
        # The greatest position: on an in-order stream, what all_of keeps.
        return GateColumn(run.start, [
            positions[-1] if positions else None for positions in cover
        ])

    def record(self, schedule: Schedule, iterations: int,
               periodic: bool = True) -> None:
        """Record iterations 0 and 1 through the scheduler, tile the rest.

        Every fast-path policy's pipeline is in steady state from
        iteration 1: each later iteration submits iteration 1's slots
        shifted by one block (``tests/sim/test_tiling.py`` checks each
        one against a full recording, traced and faulted runs too).  So
        the first submission of iteration 2 stops the scheduler, and
        :meth:`~repro.sim.fastpath.Timeline.tile` repeats iteration 1's
        block ``iterations - 2`` times, renewing timing-fault
        placeholders and labelling spans per copy; the replay still
        runs every iteration.  Only a schedule the caller marks not
        ``periodic`` records in full (a ByteScheduler dispatch order
        whose claims differ between iterations, iteration 0's
        included).  Publishes ``sim.record.slots{how}`` and, for a full
        recording, ``sim.record.full{reason="aperiodic"}``.
        """
        self._untraced = self.tracer is None
        tiled = 0
        self._tiling = periodic
        try:
            schedule(self, iterations)
        except _TwoIterations:
            copies = iterations - 2
            tiled = self._timeline.tile(self._block_start, copies) * copies
        finally:
            self._tiling = False
        registry = default_registry()
        slots = registry.counter(
            "sim.record.slots",
            "fast-path slots, recorded through the scheduler or tiled",
        )
        slots.inc(self._timeline.slots_recorded - tiled, how="recorded")
        slots.inc(tiled, how="tiled")
        if not periodic:
            registry.counter(
                "sim.record.full", "fast-path runs recorded in full, by reason"
            ).inc(reason="aperiodic")

    def record_verified(self, plan: "VerifiedSchedule", iterations: int,
                        rounds: int) -> None:
        """Record a schedule whose static order is a guess, until the
        replay confirms it.

        ``plan`` records like any schedule, in the order it currently
        holds; after each replay ``plan.verify(self)`` checks that
        order against the replayed times and either confirms it or adopts
        the one they give.  A rejected round starts over on a fresh
        recording and fault injector (the replay priced its deferred
        durations into the old one), so nothing is counted twice.  The
        context is left replayed, and its timeline says so
        (:attr:`~repro.sim.fastpath.Timeline.replayed`): an untraced
        :meth:`run` and the batched runner take that replay as the
        run's, and a traced :meth:`run` replays once more to emit its
        spans.  ``rounds`` is a bound the plan proves; an order still
        moving after it is an internal error (``RuntimeError``), not a
        reason to fall back.
        """
        for _ in range(rounds):
            self.record(plan, iterations, periodic=plan.periodic)
            self._timeline.replay()
            if plan.verify(self):
                return
            self._reset()
        raise RuntimeError(f"dispatch order still changing after {rounds} rounds")

    def _reset(self) -> None:
        """Drop the recording: a fresh timeline, streams and injector."""
        plan = self.faults.plan if self.faults is not None else None
        self.__init__(self.timing, self.cost, self.tracer, plan)
        self._block_start = None

    def _enter_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        if self._tiling:
            if iteration >= 2:
                raise _TwoIterations
            if self._block_start is None:
                self._block_start = self._timeline.slots_recorded

    def ff_start_times(self) -> list[float]:
        """Rank 0's first-FF start of each iteration, tiled ones too."""
        starts = self._timeline._starts
        if starts is None:
            raise RuntimeError("first-FF start times require a completed replay")
        slots = [job.index for job in self.ff_first_jobs]
        block = self._timeline._block
        if block is not None:
            # Each tiled copy's first FF, one period after the last's.
            slots.extend(range(slots[-1] + block[1], len(starts), block[1]))
        return starts[slots, 0].tolist()

    def job_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._timeline.job_columns()

    def run(self) -> float:
        """Replay the recorded schedule; returns the final virtual time.

        Nothing to check for stalls: recordable schedules only carry
        back-edges, so they cannot deadlock.  A tracer attached after
        an untraced recording raises ``RuntimeError``: it has no flow ids.
        An untraced timeline already replayed since its last submission
        (:meth:`record_verified`) is not replayed again.
        """
        timeline = self._timeline
        if self.tracer is not None and self._untraced:
            raise RuntimeError("a tracer attached after recording lacks its flow ids")
        final = (timeline.final_time if self.tracer is None and timeline.replayed
                 else timeline.replay(self.tracer))
        self.finish()
        return final

    def _stream_totals(self) -> list[tuple[str, int, float]]:
        busy_times = self._timeline.stream_busy_times()
        return [
            (stream.name, stream.jobs_submitted, busy_times[stream.stream_id])
            for stream in (self.compute, self.comm)
        ]

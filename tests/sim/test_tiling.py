"""Periodic recording: two recorded iterations, tiled, equal a full recording.

Every periodic fast-path run, traced or faulted, records iterations 0
and 1 through the scheduler and tiles iteration 1's block for the rest
(:meth:`repro.schedulers.engine.FastIterationContext.record`).  This
suite records every fast-path scheduler both ways — tiled, and in full
(through the base :meth:`~repro.schedulers.engine.IterationContext.record`)
— over every zoo model, fusion plan, workload, fabric and algorithm, and
over the multi-rank policies on an 8-rank skewed cluster; traced and
faulted runs (:data:`VARIANTS`) cover a reduced model and fabric
product.  Both ways must give the same
:meth:`~repro.sim.fastpath.Timeline.signature`, durations, start and
end arrays, result (``repr``-equal) and ``sim.stream.*`` counters — and
for traced and faulted runs the same Chrome trace, byte for byte, the
same ``timing_faults`` and the same straggler ledger, entry by entry —
and :func:`~repro.runner.executor.run_many` must return the same results.
Every replay here also passes :func:`tests.sim.invariants.verify_timeline`.
Tiling is only correct for a policy that is periodic from iteration 1,
so every registered fast-path scheduler must appear in :data:`CONFIGS`.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.faults.timing import StragglerRows
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.autotuner import build_selection_table
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, paper_testbed
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.schedulers.multirank import POLICIES, _Run, finalize_heterogeneous
from repro.sim.fastpath import DeferredDuration, DeferredRankDurations, Timeline
from repro.sim.trace import Tracer
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)
from repro.workloads import WORKLOAD_NAMES
from tests.sim.invariants import verify_timeline

ITERATIONS = 5

#: Every fast-path scheduler under each fusion plan that records one
#: schedule (the BO modes run many);
#: :func:`test_every_fast_path_scheduler_is_covered` keeps it complete.
CONFIGS = [
    ("serial", {}),
    ("wfbp", {}),
    ("wfbp", {"buffer_bytes": 25e6}),
    ("ddp", {}),
    ("horovod", {}),
    ("mg_wfbp", {}),
    ("bytescheduler", {}),
    ("bytescheduler", {"partition_bytes": 1e6}),
    ("dear", {"fusion": "none"}),
    ("dear", {"fusion": "layers"}),
    ("dear", {"fusion": "buffer"}),
    ("zero", {}),
    ("zero", {"buffer_bytes": None}),
]
CONFIG_IDS = [
    "-".join([name, *(f"{key}={value}" for key, value in options.items())])
    for name, options in CONFIGS
]
#: ``None`` is the classic layer-wise schedule.
WORKLOADS = (None, *WORKLOAD_NAMES)
FABRICS = ("10gbe", "100gbib")
ALGORITHMS = ("ring", "auto")

#: 8 ranks on two 4-GPU nodes, seeded compute skew (never uniform, so
#: the runs never collapse to one rank).
MULTIRANK_CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=4)
MULTIRANK_SCALES = tuple(
    float(scale)
    for scale in np.random.default_rng(3).uniform(1.0, 1.4, size=8)
)
MULTIRANK_MODELS = ("resnet50", "bert_base")

#: Straggler and link windows that open and close mid-run, so tiled
#: copies are priced differently from their block and from each other.
FAULTS = FaultPlan(
    stragglers=(StragglerFault(0.4, 1.6, compute_factor=1.5),
                StragglerFault(2.0, 9.0, compute_factor=1.2)),
    link_faults=(LinkFault(0.8, 2.4, beta_factor=2.0),),
)
#: ``(id suffix, traced, faults)``: the healthy untraced run, then what a
#: traced or faulted run adds, on reduced products: :data:`VARIANT_PRODUCT`
#: on one rank, ResNet-50 per tensor (the most slots) on eight.
VARIANTS = [
    ("", False, None),
    ("traced", True, None),
    ("faulted", False, FAULTS),
    ("traced-faulted", True, FAULTS),
]
#: The single-rank product of the traced and faulted variants.
VARIANT_PRODUCT = (("resnet50", "10gbe", "ring"),)


def _case(*values, ids, suffix, traced, faults):
    """One ``pytest.param``; the healthy variant keeps the bare id."""
    return pytest.param(*values, traced, faults,
                        id="-".join(filter(None, (*ids, suffix))))


TILING_CASES = [
    _case(name, options, workload, ids=(config_id, str(workload)),
          suffix=suffix, traced=traced, faults=faults)
    for (name, options), config_id in zip(CONFIGS, CONFIG_IDS)
    for workload in WORKLOADS
    for suffix, traced, faults in VARIANTS
]
MULTIRANK_CASES = [
    _case(policy, buffer_bytes, workload, ids=(policy, fusion, str(workload)),
          suffix=suffix, traced=traced, faults=faults)
    for policy in POLICIES
    for fusion, buffer_bytes in (("fused", 25e6), ("per-tensor", None))
    for workload in WORKLOADS
    for suffix, traced, faults in VARIANTS
    if fusion == "per-tensor" or not suffix
]


@pytest.fixture(scope="module")
def tables():
    return {fabric: build_selection_table(paper_testbed(fabric))
            for fabric in FABRICS}


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


def _cost(fabric: str, algorithm: str, tables) -> CollectiveTimeModel:
    return CollectiveTimeModel(
        paper_testbed(fabric), algorithm=algorithm,
        table=tables[fabric] if algorithm == "auto" else None,
    )


def _durations(timeline: Timeline) -> list[bytes]:
    return [np.asarray(body).tobytes() for body in timeline._durations]


def _replay(ctx) -> dict:
    """Replay ``ctx`` under a fresh registry; its ``sim.stream.*`` totals."""
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    try:
        ctx.run()
    finally:
        reset_default_registry()
    verify_timeline(ctx._timeline)
    snapshot = fresh.snapshot()
    return {name: snapshot.get(name)
            for name in ("sim.stream.jobs", "sim.stream.busy_seconds")}


def _ledger(faults) -> list:
    """The straggler ledger, entry by entry, and the fault markers."""
    return [
        [entry.starts.tobytes(), entry.factors.tobytes(),
         entry.extras.tobytes(), entry.slowed.tobytes()]
        if type(entry) is StragglerRows else entry
        for entry in faults._straggler_extras
    ] + list(faults.event_rows())


def _differences(tiled, full, measure) -> list[str]:
    """What differs between a tiled and a full recording of one run.

    ``measure(ctx)`` builds the run's result from a replayed context.
    Durations are compared once replayed, when deferred ones are priced.
    """
    a, b = tiled._timeline, full._timeline
    if a.signature() != b.signature():
        return ["signature"]
    found = []
    if a._categories != b._categories:
        found.append("categories")
    if ([s.jobs_submitted for s in a._streams]
            != [s.jobs_submitted for s in b._streams]):
        found.append("jobs_submitted")
    if _replay(tiled) != _replay(full):
        found.append("sim.stream counters")
    if _durations(a) != _durations(b):
        found.append("durations")
    if a._starts.tobytes() != b._starts.tobytes():
        found.append("starts")
    if a._ends.tobytes() != b._ends.tobytes():
        found.append("ends")
    if repr(measure(tiled)) != repr(measure(full)):
        found.append("result")
    if tiled.tracer is not None and (tiled.tracer.to_chrome_trace()
                                     != full.tracer.to_chrome_trace()):
        found.append("trace")
    if tiled.faults is not None:
        if _tiles(tiled) and not _priced_in_copies(tiled):
            found.append("no fault reached a tiled copy")
        if tiled.faults.summary() != full.faults.summary():
            found.append("timing_faults")
        if _ledger(tiled.faults) != _ledger(full.faults):
            found.append("straggler ledger")
    return found


def _tiles(ctx) -> bool:
    """Whether ``ctx``'s recording has tiled copies."""
    return ctx._timeline.slots_recorded > len(ctx._timeline._handles)


def _counted(record):
    """``record()`` under a fresh registry: the context, and the
    ``sim.record.full`` reasons counted while recording it."""
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    try:
        ctx = record()
    finally:
        reset_default_registry()
    return ctx, _counts(fresh)[1]


def _priced_in_copies(ctx) -> bool:
    """Whether a fault marker falls in a tiled copy of a replayed run."""
    timeline = ctx._timeline
    first = timeline._starts[len(timeline._handles)].min()
    return any(time >= first for time, _, _ in ctx.faults.event_rows())


@contextlib.contextmanager
def recording_in_full():
    """Within it, fast-path contexts record every iteration, untiled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FastIterationContext, "record", IterationContext.record)
        yield


def test_every_fast_path_scheduler_is_covered():
    """A registered policy missing from CONFIGS would be tiled unchecked."""
    assert {name for name, _ in CONFIGS} == set(SCHEDULER_NAMES)


def _record_single(scheduler, timing, cost, workload, traced, faults):
    """``scheduler``'s fast-path recording, with a tracer when ``traced``."""
    if not traced:
        return scheduler.record_fast(timing, cost, iterations=ITERATIONS,
                                     faults=faults, workload=workload)
    ctx = FastIterationContext(timing, cost, faults=faults, tracer=Tracer())
    scheduler._schedule_onto(
        ctx, ITERATIONS, scheduler._resolve_workload(workload, timing, cost)
    )
    return ctx


@pytest.mark.parametrize("name,options,workload,traced,faults", TILING_CASES)
def test_tiled_recording_equals_full_recording(name, options, workload,
                                               traced, faults, tables):
    product = (
        itertools.product(MODEL_NAMES, FABRICS, ALGORITHMS)
        if not traced and faults is None else VARIANT_PRODUCT
    )
    mismatches = []
    for model, fabric, algorithm in product:
        timing = TimingModel.for_model(get_model(model))
        cost = _cost(fabric, algorithm, tables)
        scheduler = get_scheduler(name, **options)
        tiled, reasons = _counted(lambda: _record_single(
            scheduler, timing, cost, workload, traced, faults
        ))
        with recording_in_full():
            full = _record_single(scheduler, timing, cost, workload, traced,
                                  faults)
        assert not _tiles(full)
        # Only an aperiodic dispatch order records in full; here faults
        # can make ByteScheduler's so.
        assert set(reasons) <= {"aperiodic"}
        assert _tiles(tiled) or (faults is not None and reasons)
        found = _differences(
            tiled, full, lambda ctx: scheduler.measure(ctx, ITERATIONS)
        )
        mismatches.extend(f"{model}/{fabric}/{algorithm}: {what}"
                          for what in found)
    assert mismatches == []


@pytest.mark.parametrize(
    "policy,fusion_buffer_bytes,workload,traced,faults", MULTIRANK_CASES
)
def test_multirank_tiled_recording_equals_full_recording(
    policy, fusion_buffer_bytes, workload, traced, faults
):
    models = (
        MULTIRANK_MODELS if not traced and faults is None
        else MULTIRANK_MODELS[:1]
    )
    mismatches = []
    for model in models:
        runs = [
            _Run(policy, get_model(model), MULTIRANK_CLUSTER,
                 MULTIRANK_SCALES, fusion_buffer_bytes=fusion_buffer_bytes,
                 iterations=ITERATIONS, workload=workload, faults=faults,
                 collapse=True)
            for _ in range(2)
        ]
        tiled = runs[0].record(trace=traced)
        with recording_in_full():
            full = runs[1].record(trace=traced)
        assert tiled._timeline.world == 8
        assert _tiles(tiled)
        found = _differences(
            tiled, full,
            lambda ctx: finalize_heterogeneous(
                ctx, policy, runs[0].model, MULTIRANK_CLUSTER,
                MULTIRANK_SCALES, ITERATIONS,
            ),
        )
        mismatches.extend(f"{model}: {what}" for what in found)
    assert mismatches == []


def test_run_many_results_do_not_change(tables):
    """The batched runner over single- and multi-rank specs."""
    specs = [
        RunSpec.create(name, "resnet50", paper_testbed(fabric),
                       algorithm=algorithm, workload=workload,
                       tuned_table=tables[fabric] if algorithm == "auto" else None,
                       **options)
        for (name, options), workload, fabric, algorithm in itertools.product(
            CONFIGS, WORKLOADS, FABRICS, ALGORITHMS
        )
    ] + [
        RunSpec.create(policy, "resnet50", MULTIRANK_CLUSTER,
                       compute_scales=MULTIRANK_SCALES, workload=workload)
        for policy, workload in itertools.product(POLICIES, WORKLOADS)
    ]

    def results() -> list[str]:
        return [repr(result) for result in run_many(
            specs, jobs=1, cache=ResultCache(enabled=False)
        )]

    tiled = results()
    with recording_in_full():
        assert results() == tiled


# -- what a run records, and why one is recorded in full ----------------------


def _counts(registry) -> tuple[dict, dict]:
    snapshot = registry.snapshot()

    def by(name, label):
        family = snapshot.get(name, {"values": []})
        return {value["labels"][label]: value["value"]
                for value in family["values"]}

    return by("sim.record.slots", "how"), by("sim.record.full", "reason")


class TestRecordMetrics:
    def test_healthy_run_records_two_iterations(self, registry, tiny_timing,
                                                ethernet_cost):
        ctx = get_scheduler("dear", fusion="none").record_fast(
            tiny_timing, ethernet_cost, iterations=ITERATIONS
        )
        slots, full = _counts(registry)
        block = ctx._timeline.slots_recorded // ITERATIONS
        assert slots == {"recorded": 2 * block,
                         "tiled": (ITERATIONS - 2) * block}
        assert full == {}

    def test_traced_and_faulted_runs_tile(self, registry, tiny_timing,
                                          ethernet_cost):
        """A trace and timing faults are run options, not properties of
        the schedule: such runs tile like a healthy one, and no reason
        is counted."""
        dear = get_scheduler("dear", fusion="none")
        dear.run(tiny_timing, ethernet_cost, trace=True)
        dear.run(tiny_timing, ethernet_cost, faults=FaultPlan(
            stragglers=(StragglerFault(0.0, 1.0, compute_factor=1.5),)
        ))
        slots, full = _counts(registry)
        assert full == {}
        assert slots["tiled"] == 3 * slots["recorded"] / 2

    def test_aperiodic_dispatch_order_records_in_full(self, registry,
                                                     tables):
        """Four credit channels that take turns from one iteration to
        the next cannot tile; the run records in full and equals the
        event kernel's."""
        timing = TimingModel.for_model(get_model("resnet50"))
        cost = _cost("10gbe", "ring", tables)
        scheduler = get_scheduler("bytescheduler", credit=4)
        fast = scheduler.run(timing, cost, iterations=ITERATIONS)
        slots, full = _counts(registry)
        assert full == {"aperiodic": 1}
        assert slots["tiled"] == 0
        slow = scheduler.run(timing, cost, iterations=ITERATIONS,
                             fastpath=False)
        assert repr(fast) == repr(slow)

    def test_multirank_recordings_are_counted(self, registry, tiny_model):
        _Run("dear", tiny_model, MULTIRANK_CLUSTER, MULTIRANK_SCALES,
             iteration_compute=0.03, collapse=True).simulate()
        slots, full = _counts(registry)
        assert slots["tiled"] == 3 * slots["recorded"] / 2
        assert full == {}


def test_tracer_attached_after_a_tiled_recording_raises(tiny_timing,
                                                        ethernet_cost):
    """An untraced recording keeps no flow ids, tiled or not."""
    tiled = get_scheduler("wfbp").record_fast(
        tiny_timing, ethernet_cost, iterations=ITERATIONS
    )
    assert _tiles(tiled)
    tiled.tracer = Tracer()
    with pytest.raises(RuntimeError, match="flow ids"):
        tiled.run()


def test_tracer_attached_after_a_faulted_recording_raises(tables):
    """The spans of a run traced from the start carry flow ids; a tracer
    attached after recording would get none of them, so it raises."""
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = _cost("10gbe", "ring", tables)
    scheduler = get_scheduler("wfbp")
    traced = _record_single(scheduler, timing, cost, None, True, FAULTS)
    traced.run()
    assert any("flows" in span.metadata for span in traced.tracer.spans)
    late = scheduler.record_fast(timing, cost, iterations=ITERATIONS,
                                 faults=FAULTS)
    late.tracer = Tracer()
    with pytest.raises(RuntimeError, match="flow ids"):
        late.run()


# -- the Timeline primitive and the invariants, on random schedules ------------


@st.composite
def periodic_schedules(draw):
    """One iteration's slots, repeated 2–6 times.

    Each slot: ``(stream, collective, durations, gates, deferred)``
    where a gate is ``(iterations back, slot)``: 0 for an earlier slot
    of the same iteration, 1 for any slot of the previous one (skipped
    in iteration 0), and ``deferred`` prices the durations at replay
    (:class:`_Ledgered`, per lane on several ranks).
    """
    world = draw(st.integers(1, 3))
    streams = draw(st.integers(1, 3))
    durations = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
    block = []
    size = draw(st.integers(1, 8))
    for index in range(size):
        collective = world > 1 and draw(st.booleans())
        width = 1 if collective or world == 1 else world
        values = draw(st.lists(durations, min_size=width, max_size=width))
        gates = []
        if index and draw(st.booleans()):
            gates.append((0, draw(st.integers(0, index - 1))))
        if draw(st.booleans()):
            gates.append((1, draw(st.integers(0, size - 1))))
        block.append((draw(st.integers(0, streams - 1)), collective, values,
                      gates, draw(st.booleans())))
    return world, streams, block, draw(st.integers(2, 6))


class _LedgerEntry:
    """A body priced at replay: 1.5x its base when it starts in ``[2,
    6)``.  Like :class:`~repro.faults.timing.PricedCompute`, it takes a
    ledger entry when created and fills it, with its start and duration,
    when priced, and :meth:`renew` makes a copy with a fresh entry."""

    def __init__(self, ledger: list, base):
        self.ledger = ledger
        self.base = base
        self.entry = len(ledger)
        ledger.append(None)

    def resolve(self, start):
        duration = self.base * np.where((2.0 <= start) & (start < 6.0),
                                        1.5, 1.0)
        self.ledger[self.entry] = (np.asarray(start).tobytes(),
                                   duration.tobytes())
        return duration if duration.ndim else float(duration)

    def renew(self):
        return type(self)(self.ledger, self.base)


class _Ledgered(_LedgerEntry, DeferredDuration):
    pass


class _LedgeredLanes(_LedgerEntry, DeferredRankDurations):
    pass


class _Constant(DeferredDuration):
    """A deferred body with the default ``renew``: copies share it."""

    def resolve(self, start):
        return 1.0


def _record_iterations(world, streams, block, iterations,
                       ledger: list) -> Timeline:
    timeline = Timeline(world)
    lanes = [timeline.stream(f"s{sid}") for sid in range(streams)]
    handles = []
    for iteration in range(iterations):
        base = iteration * len(block)
        for sid, collective, values, gates, deferred in block:
            done = [handles[base - back * len(block) + slot].done
                    for back, slot in gates
                    if base - back * len(block) >= 0]
            gate = timeline.sim.all_of(done) if done else None
            body = values[0] if world == 1 or collective else np.array(values)
            if deferred:
                body = (_LedgeredLanes if np.ndim(body) else _Ledgered)(
                    ledger, body
                )
            if collective:
                handles.append(lanes[sid].submit_collective(body, gate=gate))
            else:
                handles.append(lanes[sid].submit(body, gate=gate))
    return timeline


class TestTimelineTile:
    @settings(deadline=None, max_examples=80)
    @given(spec=periodic_schedules())
    def test_tiling_equals_recording_every_iteration(self, spec):
        """Deferred bodies included: once replayed, the durations and the
        ledger, entry by entry in creation order, equal a full
        recording's."""
        world, streams, block, iterations = spec
        full_ledger: list = []
        tiled_ledger: list = []
        full = _record_iterations(world, streams, block, iterations,
                                  full_ledger)
        tiled = _record_iterations(world, streams, block, 2, tiled_ledger)
        assert tiled.tile(len(block), iterations - 2) == len(block)
        assert tiled.signature() == full.signature()
        assert ([s.jobs_submitted for s in tiled._streams]
                == [s.jobs_submitted for s in full._streams])
        tiled.replay()
        full.replay()
        assert _durations(tiled) == _durations(full)
        assert None not in tiled_ledger
        assert tiled_ledger == full_ledger
        verify_timeline(full)
        verify_timeline(tiled)
        assert tiled._starts.tobytes() == full._starts.tobytes()
        assert tiled._ends.tobytes() == full._ends.tobytes()

    def test_tiled_slots_have_no_handles(self):
        """A copy's spans take its block slot's labels, advanced by the
        copy index; a block slot that breaks the label rule raises."""

        def label(iteration):
            return f"job.{iteration}.x", {
                "iteration": iteration, "layer": 3,
                "flow": f"{iteration}.g0", "flows": [f"{iteration - 1}.g1"],
            }

        timeline = Timeline()
        stream = timeline.stream("s", actor="gpu")
        for iteration in range(2):
            name, metadata = label(iteration)
            stream.submit(1.0, name=name, metadata=metadata)
        timeline.tile(1, 3)
        assert timeline.slots_recorded == 5
        assert len(timeline._handles) == 2
        timeline.replay()
        tracer = Tracer()
        timeline.emit_spans(tracer)
        assert [(span.name, list(span.metadata.items()))
                for span in tracer.spans] == [
            (name, list(metadata.items()))
            for name, metadata in map(label, range(5))
        ]

        unlabelled = _record_iterations(
            1, 1, [(0, False, [1.0], [], False)], 2, []
        )
        unlabelled.tile(1, 1)
        unlabelled.replay()
        with pytest.raises(ValueError, match="iteration"):
            unlabelled.emit_spans(Tracer())

    def test_deferred_durations_are_renewed_per_copy(self):
        """Plain durations and bodies whose ``renew`` is the default are
        shared; the others are renewed copy by copy, in block order."""
        ledger: list = []
        shared = _Constant()
        timeline = Timeline()
        stream = timeline.stream("s")
        for _ in range(2):
            stream.submit(_Ledgered(ledger, 1.0))
            stream.submit(2.0)
            stream.submit(_Ledgered(ledger, 3.0))
            stream.submit(shared)
        timeline.tile(4, 2)
        copies = timeline._durations[8:]
        assert copies[1] == copies[5] == 2.0
        assert copies[3] is copies[7] is shared
        assert [body.entry for body in copies[::2]] == [4, 5, 6, 7]
        assert [body.base for body in copies[::2]] == [1.0, 3.0] * 2

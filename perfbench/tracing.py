"""In-memory spans around the calls into each layer's public functions.

The traced run installs wrappers (:func:`install`) around the entry
points of the simulator's layers — wire validation, spec fingerprinting,
the result cache, the runner, timing models, schedule recording,
replay, measurement, the multi-rank path and the BO tuner — and records
one :class:`Span` per call.  Nothing inside ``src/`` changes: the hooks
live here and are installed only by the traced run.

Spans carry a name, start, end, parent and op id, and are kept in
memory until the run ends.  A span's *self time* is its duration minus
the part of it that its children cover; the op's root span's self time
is the explicit residual, so the self times of an op's spans always add
up to the op's wall time (:func:`layer_seconds`).

Collective pricing has no entry point of its own — it is only entered
from inside schedule recording — so the recording wrapper measures it
as ``record_fast`` on the cold cost model minus ``record_fast`` again on
the now-warm one.  The second recording is a probe: its wall time is
removed from the recorder's clock (:meth:`Recorder.excluded`), so it
never shows up in any span or op time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "Recorder",
    "Span",
    "install",
    "layer_seconds",
    "self_times",
]


@dataclass
class Span:
    """One call into a layer: ``[start, end)`` on the recorder's clock."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    thread: int

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "op": self.op,
            "thread": self.thread,
        }


class Recorder:
    """Collects spans in memory; one parent stack per thread.

    The clock is ``perf_counter`` minus the time spent inside
    :meth:`excluded` blocks, so measurement probes cost no span and no
    op anything.  Exclusion is process-wide: it is used only by the
    single-threaded in-process workloads.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: Optional[int] = None
        self._excluded = 0.0
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def stack(self) -> list[Span]:
        """This thread's open spans, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        with self._lock:
            self._ids += 1
            span_id = self._ids
        stack = self.stack()
        span = Span(
            span_id, name, self.now(), float("nan"),
            stack[-1].id if stack else None, self.op, threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        self.stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def child(self, parent: Span, name: str, seconds: float) -> None:
        """A synthetic child at the head of ``parent`` (measured by difference)."""
        with self._lock:
            self._ids += 1
            span_id = self._ids
        self.spans.append(Span(
            span_id, name, parent.start, parent.start + seconds,
            parent.id, parent.op, parent.thread,
        ))

    @contextmanager
    def excluded(self):
        """Run a probe whose wall time is taken off the clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - started

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Total self seconds per span name."""
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + selfs[span.id]
    return totals


# -- hooks --------------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)

    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", name)
    return wrapper


def _costmodel_totals(registry) -> tuple[float, float]:
    """(queries, memo hits) summed over every label set."""
    families = registry.families()
    totals = []
    for name in ("costmodel.queries", "costmodel.memo_hits"):
        family = families.get(name)
        totals.append(
            sum(child.value for child in family.children) if family else 0.0
        )
    return totals[0], totals[1]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    import repro.runner as runner_pkg
    from repro.api import SimulationConfig
    from repro.bayesopt.optimizer import BayesianOptimizer
    from repro.models.profiles import TimingModel
    from repro.network import autotuner
    from repro.runner import batched, executor
    from repro.runner.cache import ResultCache
    from repro.runner.spec import RunSpec
    from repro.schedulers.base import Scheduler
    from repro.schedulers.dear import DeARScheduler
    from repro.schedulers.engine import FastIterationContext, IterationContext
    from repro.serve import daemon
    from repro.telemetry.registry import default_registry

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(owners, attr: str, name: str) -> None:
        wrapped = _wrap(recorder, name, getattr(owners[0], attr))
        for owner in owners:
            patch(owner, attr, wrapped)

    # api: wire validation -> config -> spec (server side).
    patch_function([daemon], "config_from_payload", "api.config")
    patch(SimulationConfig, "to_spec",
          _wrap(recorder, "api.config", SimulationConfig.__dict__["to_spec"]))

    # runner.spec / runner.cache / runner.executor / runner.batched
    fingerprint = RunSpec.__dict__["fingerprint"]
    patch(RunSpec, "fingerprint",
          property(_wrap(recorder, "runner.spec.fingerprint", fingerprint.fget)))
    patch(ResultCache, "get",
          _wrap(recorder, "runner.cache.get", ResultCache.__dict__["get"]))
    patch(ResultCache, "put",
          _wrap(recorder, "runner.cache.put", ResultCache.__dict__["put"]))
    patch_function([executor, runner_pkg, daemon], "run_many", "runner.run_many")
    patch_function([batched, runner_pkg], "run_batched", "runner.batched")

    # models
    for_model = TimingModel.__dict__["for_model"]
    patch(TimingModel, "for_model",
          classmethod(_wrap(recorder, "models.timing", for_model.__func__)))

    # network: autotuner table builds (set-up)
    patch_function([autotuner], "build_selection_table", "network.autotuner.build")

    # schedulers: record (with the pricing probe), measure, classic run
    record_fast = Scheduler.__dict__["record_fast"]

    def traced_record_fast(self, timing, cost, *args, **kwargs):
        with recorder.span("schedulers.record") as span:
            ctx = record_fast(self, timing, cost, *args, **kwargs)
        cold = span.end - span.start
        registry = default_registry()
        with recorder.excluded():
            before = _costmodel_totals(registry)
            started = time.perf_counter()
            record_fast(self, timing, cost, *args, **kwargs)
            warm = time.perf_counter() - started
            after = _costmodel_totals(registry)
        recorder.count("probe.costmodel.queries", int(after[0] - before[0]))
        recorder.count("probe.costmodel.memo_hits", int(after[1] - before[1]))
        recorder.child(span, "network.pricing", max(0.0, cold - warm))
        return ctx

    patch(Scheduler, "record_fast", traced_record_fast)
    patch(Scheduler, "measure",
          _wrap(recorder, "schedulers.measure", Scheduler.__dict__["measure"]))

    base_run = Scheduler.__dict__["run"]

    def traced_run(self, *args, **kwargs):
        inside_bo = any(span.name == "bayesopt.tune" for span in recorder.stack())
        name = "bayesopt.trial" if inside_bo else "schedulers.run"
        with recorder.span(name):
            return base_run(self, *args, **kwargs)

    patch(Scheduler, "run", traced_run)

    dear_run = DeARScheduler.__dict__["run"]

    def traced_dear_run(self, *args, **kwargs):
        if self.fusion != "bo":
            return dear_run(self, *args, **kwargs)
        with recorder.span("bayesopt.tune"):
            return dear_run(self, *args, **kwargs)

    patch(DeARScheduler, "run", traced_dear_run)

    # sim: vectorized replay, event kernel, batched replays
    patch(FastIterationContext, "run",
          _wrap(recorder, "sim.replay", FastIterationContext.__dict__["run"]))
    patch(IterationContext, "run",
          _wrap(recorder, "sim.event", IterationContext.__dict__["run"]))
    patch_function([batched], "replay_fast_batch", "sim.replay")
    patch_function([batched], "replay_multirank_batch", "sim.multirank_replay")

    # schedulers.multirank
    patch_function([batched], "record_heterogeneous_fast", "multirank.record")
    patch_function([batched], "finalize_heterogeneous", "multirank.finalize")

    # bayesopt
    suggest = BayesianOptimizer.__dict__["suggest"]
    observe = BayesianOptimizer.__dict__["observe"]

    def traced_observe(self, *args, **kwargs):
        recorder.count("bayesopt.evals")
        return observe(self, *args, **kwargs)

    patch(BayesianOptimizer, "suggest", _wrap(recorder, "bayesopt.gp", suggest))
    patch(BayesianOptimizer, "observe",
          _wrap(recorder, "bayesopt.gp", traced_observe))

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return uninstall


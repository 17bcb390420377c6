"""Config-axis batched execution of compatible run specs.

The fan-out executor's unit of work used to be one spec = one replay.
This module turns a sweep into tensor work instead: every pending spec
is *recorded* (schedule captured, nothing replayed), the recordings are
grouped by :meth:`~repro.sim.fastpath.Timeline.signature` (policy grids
over models, clusters, fusion plans, and fault scenarios collapse into a
handful of groups), and each group replays in one
:func:`~repro.sim.fastpath.replay` call.
Each spec's result is then assembled by the exact measurement code the
sequential path uses (:meth:`repro.schedulers.base.Scheduler.measure` /
:func:`repro.schedulers.multirank.finalize_heterogeneous`), so batched
results are bit-identical to per-spec runs — pinned by
``tests/runner/test_batched_runner.py``.

Two kinds of spec are not recorded: BO fusion tuning (a loop of runs,
not one schedule) and the fast path disabled per spec (``fastpath=False``
in its options; batching *is* the fast path, applied across configs).
A plain check routes them — :func:`run_batched` returns ``None`` for
them — to the executor's pool/serial path, which computes them the
classic way; ``runner.batched.specs{outcome}`` counts every outcome.  A
bytescheduler recording arrives already replayed once, to confirm its
order, and replays again with its group.
Multi-rank specs are set up, and collapsed when their ranks are
identical, exactly as :func:`~repro.schedulers.multirank.simulate_heterogeneous`
does.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Sequence, Union

from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler
from repro.schedulers.multirank import (
    finalize_heterogeneous,
    record_heterogeneous_fast,
)
from repro.sim.fastpath import replay
from repro.telemetry.registry import default_registry

__all__ = ["run_batched"]

#: Soft cap on configs x slots x lanes per replay group: one group's
#: start/end tensors stay under ~64 MiB each.  Chunking a group does
#: not change any config's results (chunks replay independently).
_MAX_GROUP_ELEMENTS = 8_388_608

#: The one replay under two names, so a profiler can tell one-rank
#: groups (the first) from multi-rank groups (the second) apart.
replay_fast_batch = replay
replay_multirank_batch = replay


class _Recorded:
    """One spec's recording, ready to group and replay."""

    __slots__ = ("index", "key", "ctx", "finalize", "seconds")

    def __init__(self, ctx, finalize: Callable[[], object]):
        self.index = -1
        self.key = ctx._timeline.signature()
        self.ctx = ctx
        self.finalize = finalize
        self.seconds = 0.0


def _record(spec: RunSpec) -> Union[_Recorded, str]:
    """``spec`` recorded, or the ``runner.batched.specs`` outcome that
    sends it the classic way: ``fastpath_off`` or ``bo_tuning``."""
    options = dict(spec.options)
    if options.pop("fastpath", None) is False:
        return "fastpath_off"
    if spec.compute_scales is not None:
        ctx = record_heterogeneous_fast(
            spec.scheduler, spec.model, spec.cluster, spec.compute_scales,
            batch_size=spec.batch_size, iteration_compute=spec.iteration_compute,
            algorithm=spec.algorithm, iterations=spec.iterations, faults=spec.faults,
            tuned_table=spec.selection_table(), workload=spec.workload, **options,
        )
        return _Recorded(
            ctx,
            lambda: finalize_heterogeneous(
                ctx, spec.scheduler, spec.model, spec.cluster,
                spec.compute_scales, spec.iterations,
            ),
        )
    scheduler = get_scheduler(spec.scheduler, **options)
    if not scheduler.supports_batched_run():
        return "bo_tuning"
    timing = TimingModel.for_model(
        spec.model,
        batch_size=spec.batch_size,
        iteration_compute=spec.iteration_compute,
    )
    cost = CollectiveTimeModel(
        spec.cluster, algorithm=spec.algorithm, table=spec.selection_table()
    )
    ctx = scheduler.record_fast(
        timing, cost, iterations=spec.iterations, faults=spec.faults,
        workload=spec.workload,
    )
    return _Recorded(ctx, lambda: scheduler.measure(ctx, spec.iterations))


def _chunks(group: list):
    timeline = group[0].ctx._timeline
    per_config = max(1, timeline.slots_recorded) * timeline.lanes
    size = max(1, _MAX_GROUP_ELEMENTS // per_config)
    for lo in range(0, len(group), size):
        yield group[lo:lo + size]


def run_batched(
    specs: Sequence[RunSpec],
) -> list[Optional[tuple[object, float]]]:
    """Batch-execute whatever subset of ``specs`` the recorder supports.

    Returns one entry per input spec: ``(tracer_less_result, seconds)``
    for specs that rode a batched replay, ``None`` for specs the caller
    must compute the classic way.  Never partially computes a spec —
    a spec either completes here or is untouched.
    """
    specs = list(specs)
    if not specs:
        return []
    out: list[Optional[tuple[object, float]]] = [None] * len(specs)

    registry = default_registry()
    outcomes = registry.counter(
        "runner.batched.specs", "specs offered to the batched runner, by outcome"
    )
    recorded: list[_Recorded] = []
    for index, spec in enumerate(specs):
        started = time.perf_counter()
        item = _record(spec)
        if isinstance(item, str):
            outcomes.inc(outcome=item)
            continue
        item.index = index
        item.seconds = time.perf_counter() - started
        recorded.append(item)

    groups: dict[tuple, list[_Recorded]] = {}
    for item in recorded:
        groups.setdefault(item.key, []).append(item)

    group_size = registry.histogram(
        "runner.batched.group_size", "specs replayed per batched group"
    )
    for group in groups.values():
        for chunk in _chunks(group):
            replay_started = time.perf_counter()
            timelines = [item.ctx._timeline for item in chunk]
            tracers = [item.ctx.tracer for item in chunk]
            if timelines[0].world == 1:
                replay_fast_batch(timelines, tracers)
            else:
                replay_multirank_batch(timelines, tracers)
            share = (time.perf_counter() - replay_started) / len(chunk)
            group_size.observe(len(chunk))
            for item in chunk:
                finalize_started = time.perf_counter()
                item.ctx.finish()
                result = dataclasses.replace(item.finalize(), tracer=None)
                out[item.index] = (
                    result,
                    item.seconds + share
                    + (time.perf_counter() - finalize_started),
                )

    outcomes.inc(len(recorded), outcome="batched")
    if groups:
        registry.counter(
            "runner.batched.groups", "config groups replayed by the batched runner"
        ).inc(len(groups))
    return out

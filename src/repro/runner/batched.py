"""Config-axis batched execution of compatible run specs.

The fan-out executor's unit of work used to be one spec = one replay.
This module turns a sweep into tensor work instead: every pending spec
is *recorded* (schedule captured, nothing replayed), the recordings are
grouped by structural signature (see :mod:`repro.sim.batched` — policy
grids over models, clusters, fusion plans, and fault scenarios collapse
into a handful of groups), and each group replays in one numpy pass.
Each spec's result is then assembled by the exact measurement code the
sequential path uses (:meth:`repro.schedulers.base.Scheduler.measure` /
:func:`repro.schedulers.multirank.finalize_heterogeneous`), so batched
results are bit-identical to per-spec runs — pinned by
``tests/runner/test_batched_runner.py``.

Specs the recorder cannot express — dynamic schedules (bytescheduler),
fast path disabled per spec, exotic multirank options — return ``None``
from :func:`run_batched` and fall through to the executor's pool/serial
path, which computes them the classic way.

Disable globally with ``DEAR_BATCHED=0``; ``DEAR_FASTPATH=0`` also
disables it (batching *is* the fast path, applied across configs).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Sequence

from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler
from repro.schedulers.engine import record_fallback
from repro.schedulers.multirank import (
    _policy_scheduler,
    _validate_heterogeneous,
    collapses_to_single_rank,
    finalize_heterogeneous,
    record_heterogeneous_fast,
    wrap_collapsed,
)
from repro.sim.batched import (
    fast_signature,
    multirank_signature,
    replay_fast_batch,
    replay_multirank_batch,
)
from repro.sim.fastpath import FastPathUnsupported, fast_path_enabled
from repro.telemetry.registry import default_registry

__all__ = ["batched_enabled", "run_batched"]

#: The multirank options the recorder understands; anything else falls
#: back to :func:`simulate_heterogeneous` via the classic path.
_MULTIRANK_OPTION_KEYS = frozenset(
    ("fusion_buffer_bytes", "collapse", "trace", "fastpath")
)

#: Soft cap on configs x slots x world per replay group: one group's
#: start/end tensors stay under ~64 MiB each.  Chunking a group does
#: not change any config's results (chunks replay independently).
_MAX_GROUP_ELEMENTS = 8_388_608


def batched_enabled() -> bool:
    """Whether run_many may batch compatible specs (``DEAR_BATCHED``)."""
    from repro.core.env import env_flag

    return env_flag("DEAR_BATCHED", True) and fast_path_enabled()


class _Recorded:
    """One spec's recording, ready to group and replay."""

    __slots__ = ("index", "key", "ctx", "finalize", "seconds")

    def __init__(self, key: tuple, ctx, finalize: Callable[[], object]):
        self.index = -1
        self.key = key
        self.ctx = ctx
        self.finalize = finalize
        self.seconds = 0.0


def _spec_table(spec: RunSpec):
    """The selection table a spec's cost model must consult.

    Reconstructed from the spec's embedded payload — never the ambient
    process registry, whose contents are not part of the fingerprint.
    An ``"auto"`` spec without a snapshot pins the always-miss table
    (plain ring) for the same reason.
    """
    if spec.tuned_table is not None:
        from repro.network.autotuner import SelectionTable

        return SelectionTable.from_payload_tuple(spec.tuned_table)
    if spec.algorithm == "auto":
        from repro.network.autotuner import NO_TABLE

        return NO_TABLE
    return None


def _record_single(spec: RunSpec) -> _Recorded:
    options = dict(spec.options)
    if options.pop("fastpath", None) is False:
        raise FastPathUnsupported("spec disables the fast path", reason="disabled")
    scheduler = get_scheduler(spec.scheduler, **options)
    timing = TimingModel.for_model(
        spec.model,
        batch_size=spec.batch_size,
        iteration_compute=spec.iteration_compute,
    )
    cost = CollectiveTimeModel(
        spec.cluster, algorithm=spec.algorithm, table=_spec_table(spec)
    )
    ctx = scheduler.record_fast(
        timing, cost, iterations=spec.iterations, faults=spec.faults,
        workload=spec.workload,
    )
    return _Recorded(
        ("fast", fast_signature(ctx._timeline)),
        ctx,
        lambda: scheduler.measure(ctx, spec.iterations),
    )


def _record_multirank(spec: RunSpec) -> _Recorded:
    options = dict(spec.options)
    if not set(options) <= _MULTIRANK_OPTION_KEYS:
        raise FastPathUnsupported(
            "unrecognised multirank options take the classic path", reason="options"
        )
    if options.get("fastpath") is False:
        raise FastPathUnsupported("spec disables the fast path", reason="disabled")
    fusion_buffer_bytes = options.get("fusion_buffer_bytes", 25e6)
    collapse = options.get("collapse", True)
    trace = options.get("trace", False)

    if collapse and collapses_to_single_rank(spec.compute_scales, spec.faults):
        # Same delegation simulate_heterogeneous performs: record the
        # representative single rank (these recordings batch together
        # with plain single-rank specs) and lift the result afterwards.
        compute_scales = _validate_heterogeneous(
            spec.scheduler, spec.cluster, spec.compute_scales, spec.iterations
        )
        scheduler = _policy_scheduler(spec.scheduler, fusion_buffer_bytes)
        timing = TimingModel.for_model(
            spec.model,
            batch_size=spec.batch_size,
            iteration_compute=spec.iteration_compute,
            compute_scale=compute_scales[0],
        )
        cost = CollectiveTimeModel(
            spec.cluster, algorithm=spec.algorithm, table=_spec_table(spec)
        )
        ctx = scheduler.record_fast(
            timing, cost, iterations=spec.iterations, workload=spec.workload
        )
        return _Recorded(
            ("fast", fast_signature(ctx._timeline)),
            ctx,
            lambda: wrap_collapsed(
                scheduler.measure(ctx, spec.iterations),
                spec.scheduler, spec.model, spec.cluster,
                compute_scales, trace,
            ),
        )

    ctx = record_heterogeneous_fast(
        spec.scheduler,
        spec.model,
        spec.cluster,
        spec.compute_scales,
        fusion_buffer_bytes=fusion_buffer_bytes,
        batch_size=spec.batch_size,
        iteration_compute=spec.iteration_compute,
        algorithm=spec.algorithm,
        iterations=spec.iterations,
        faults=spec.faults,
        trace=trace,
        tuned_table=_spec_table(spec),
        workload=spec.workload,
    )
    compute_scales = tuple(float(scale) for scale in spec.compute_scales)
    return _Recorded(
        ("multi", multirank_signature(ctx._timeline)),
        ctx,
        lambda: finalize_heterogeneous(
            ctx, spec.scheduler, spec.model, spec.cluster,
            compute_scales, spec.iterations,
        ),
    )


def _record(spec: RunSpec) -> _Recorded:
    if spec.compute_scales is not None:
        return _record_multirank(spec)
    return _record_single(spec)


def _group_elements(key: tuple, group: list) -> int:
    ctx = group[0].ctx
    slots = len(ctx._timeline._handles)
    world = ctx._timeline.world if key[0] == "multi" else 1
    return len(group) * max(1, slots) * world


def _chunks(key: tuple, group: list):
    per_config = max(1, _group_elements(key, group[:1]))
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
    if not batched_enabled():
        return out

    recorded: list[_Recorded] = []
    for index, spec in enumerate(specs):
        started = time.perf_counter()
        try:
            item = _record(spec)
        except FastPathUnsupported as exc:
            record_fallback("batched", "classic", exc)
            continue
        item.index = index
        item.seconds = time.perf_counter() - started
        recorded.append(item)

    groups: dict[tuple, list[_Recorded]] = {}
    for item in recorded:
        groups.setdefault(item.key, []).append(item)

    registry = default_registry()
    group_size = registry.histogram(
        "runner.batched.group_size", "specs replayed per batched group"
    )
    for key, group in groups.items():
        for chunk in _chunks(key, group):
            replay_started = time.perf_counter()
            timelines = [item.ctx._timeline for item in chunk]
            tracers = [item.ctx.tracer for item in chunk]
            if key[0] == "multi":
                replay_multirank_batch(timelines, tracers)
            else:
                replay_fast_batch(timelines, tracers)
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

    batched_count = len(recorded)
    outcomes = registry.counter(
        "runner.batched.specs", "specs offered to the batched runner, by outcome"
    )
    outcomes.inc(batched_count, outcome="batched")
    outcomes.inc(len(specs) - batched_count, outcome="fallback")
    if groups:
        registry.counter(
            "runner.batched.groups", "config groups replayed by the batched runner"
        ).inc(len(groups))
    return out

"""Process-pool fan-out over independent run specs.

``run_many`` is the one entry point: it answers what it can from the
result cache, dedupes identical specs, fans the remainder out over a
``ProcessPoolExecutor`` (worker count from the ``jobs`` argument, the
``DEAR_JOBS`` environment variable, or a conservative default), and
returns results in *input order* regardless of completion order — so a
sweep is bit-identical whether it ran serially or on eight workers.

The pool is an optimisation, never a requirement: with one job, one
pending spec, or any pickling/pool failure, execution silently falls
back to in-process serial simulation.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.core.env import env_int
from repro.runner.cache import ResultCache, default_cache
from repro.runner.spec import RunSpec
from repro.schedulers.base import ScheduleResult
from repro.telemetry.registry import default_registry

__all__ = ["resolve_jobs", "run_many"]

#: Upper bound on the implicit default; explicit jobs / DEAR_JOBS win.
_DEFAULT_JOBS_CAP = 4


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > DEAR_JOBS env > capped default.

    ``DEAR_JOBS`` is parsed by :func:`repro.core.env.env_int`: a
    non-integer value (``DEAR_JOBS=lots``) warns and falls back to the
    capped default instead of being silently ignored.
    """
    if jobs is None:
        jobs = env_int("DEAR_JOBS", minimum=1)
    if jobs is None:
        jobs = min(_DEFAULT_JOBS_CAP, os.cpu_count() or 1)
    return max(1, jobs)


def _execute(spec: RunSpec) -> tuple[ScheduleResult, float]:
    """Worker entry point: simulate and strip the (unpicklable) tracer.

    Returns the per-spec wall time alongside the result so the parent
    process can publish worker-utilisation telemetry (workers have
    their own registries; timings must travel back with the payload).
    """
    started = time.perf_counter()
    result = dataclasses.replace(spec.run(), tracer=None)
    return result, time.perf_counter() - started


def run_many(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> list[ScheduleResult]:
    """Execute many independent specs, returning results in input order."""
    specs = list(specs)
    cache = cache if cache is not None else default_cache()
    results: list[Optional[ScheduleResult]] = [None] * len(specs)
    batch_started = time.perf_counter()

    # Answer from the cache, deduping repeated specs as we go.
    first_seen: dict[str, int] = {}
    pending: list[int] = []
    for index, spec in enumerate(specs):
        fingerprint = spec.fingerprint
        if fingerprint in first_seen:
            continue
        first_seen[fingerprint] = index
        cached = cache.get(spec)
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)
    cached_count = len(first_seen) - len(pending)

    spec_seconds = 0.0
    workers = resolve_jobs(jobs)
    if pending:
        computed = _compute(specs, pending, workers)
        for index, (result, seconds) in zip(pending, computed):
            cache.put(specs[index], result)
            results[index] = result
            spec_seconds += seconds
            default_registry().histogram(
                "runner.spec_seconds", "wall time of each simulated spec"
            ).observe(seconds, scheduler=specs[index].scheduler)

    # Fill duplicate slots from the canonical copy.
    for index, spec in enumerate(specs):
        if results[index] is None:
            results[index] = results[first_seen[spec.fingerprint]]

    _publish_batch_metrics(
        cached=cached_count,
        computed=len(pending),
        deduped=len(specs) - len(first_seen),
        workers=workers,
        spec_seconds=spec_seconds,
        batch_seconds=time.perf_counter() - batch_started,
    )
    return results  # type: ignore[return-value]


def _publish_batch_metrics(
    cached: int,
    computed: int,
    deduped: int,
    workers: int,
    spec_seconds: float,
    batch_seconds: float,
) -> None:
    """One batch's runner telemetry: outcomes, wall time, utilisation."""
    registry = default_registry()
    registry.counter("runner.batches", "run_many invocations").inc()
    outcomes = registry.counter(
        "runner.specs", "specs handled by the runner, by outcome"
    )
    outcomes.inc(cached, outcome="cached")
    outcomes.inc(computed, outcome="computed")
    outcomes.inc(deduped, outcome="deduped")
    registry.gauge("runner.workers", "worker count of the last batch").set(workers)
    registry.gauge(
        "runner.batch_seconds", "wall time of the last run_many batch"
    ).set(batch_seconds)
    if computed and batch_seconds > 0.0:
        # Aggregate spec time over the pool's wall-clock capacity; 1.0
        # means every worker stayed busy for the whole batch.
        utilization = spec_seconds / (workers * batch_seconds)
        registry.gauge(
            "runner.worker_utilization",
            "busy fraction of the pool during the last batch",
        ).set(utilization)


def _compute(
    specs: list[RunSpec], pending: list[int], jobs: int
) -> list[tuple[ScheduleResult, float]]:
    """Simulate the pending indices, batched and in parallel when it can help.

    Compatible specs ride the config-axis batched replay
    (:mod:`repro.runner.batched`) — one numpy pass per structural group,
    bit-identical per spec to a classic run — and only the remainder
    (BO fusion tuning, ``fastpath=False``) goes to the pool/serial path.
    """
    from repro.runner.batched import run_batched

    results: dict[int, tuple[ScheduleResult, float]] = {}
    batched = run_batched([specs[index] for index in pending])
    remaining = []
    for index, outcome in zip(pending, batched):
        if outcome is None:
            remaining.append(index)
        else:
            results[index] = outcome
    if remaining:
        for index, outcome in zip(remaining, _compute_pool(specs, remaining, jobs)):
            results[index] = outcome
    return [results[index] for index in pending]


def _compute_pool(
    specs: list[RunSpec], pending: list[int], jobs: int
) -> list[tuple[ScheduleResult, float]]:
    """Classic per-spec execution: process pool, serial fallback."""
    if jobs <= 1 or len(pending) <= 1:
        return [_execute(specs[index]) for index in pending]
    workers = min(jobs, len(pending))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_execute, (specs[index] for index in pending)))
    except (pickle.PicklingError, BrokenProcessPool, OSError):
        # Pool unavailable (sandbox, unpicklable payload, fork limits):
        # serial execution produces the exact same results.
        return [_execute(specs[index]) for index in pending]


"""Simulation-core microbenchmarks (the ``simcore`` bench suite).

Unlike the scheduler/fusion/sweep suites, which measure *simulated*
time (deterministic, host-independent), simcore measures how fast the
simulator itself runs on this host: event-kernel throughput, the
vectorized replay's advantage over the event kernel on an identical
schedule, and end-to-end uncached sweep wall time with the fast path
off vs. on.

All metrics here are host-dependent wall-clock numbers, so they are
deliberately published under keys other than ``median_iter_s`` — the
regression gate (:func:`repro.runner.report.compare_to_baseline`) only
reads ``median_iter_s`` and therefore ignores this suite.  The numbers
are for humans and for the committed ``BENCH_*.json`` evidence trail;
see ``docs/PERF.md`` for how to read them.
"""

from __future__ import annotations

import gc
import time

from repro.models import get_model
from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import get_scheduler
from repro.schedulers.engine import FastIterationContext, IterationContext
from repro.sim.engine import Simulator

__all__ = ["run_simcore"]

#: Schedulers exercised by the uncached mini-sweep; one cheap, one
#: gate-heavy, one with DeAR's two-collective pipeline.
_SWEEP_SCHEDULERS = (
    ("wfbp", {}),
    ("mg_wfbp", {}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
)


def _bench_timer_chain(events: int) -> float:
    """Heap-path throughput: one process yielding ``events`` delays."""

    def chain():
        for _ in range(events):
            yield 1e-6

    sim = Simulator()
    sim.process(chain())
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def _bench_zero_delay_cascade(events: int) -> float:
    """Tail-path throughput: a chain of immediately-succeeding events."""

    def cascade():
        for _ in range(events):
            evt = sim.event()
            evt.succeed()
            yield evt

    sim = Simulator()
    sim.process(cascade())
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def _replay_workload():
    """(timing, cost, scheduler, iterations) for the replay comparison."""
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(cluster_10gbe())
    return timing, cost, get_scheduler("wfbp"), 5


def _bench_replay(repeats: int) -> dict[str, float]:
    """Same recorded schedule through both execution paths.

    Job submission is excluded from the timed region on both sides —
    event-kernel contexts are pre-built (their run is single-shot), the
    fast-path timeline is recorded once and replayed per repeat (the
    replay is a pure function of the recording).  Both sides record with
    a tracer, so both timed regions emit the same spans, flow ids
    included; the traces are checked byte for byte outside them.  This
    compares executing the schedule, not building it.
    """
    from repro.sim.trace import Tracer

    timing, cost, scheduler, iterations = _replay_workload()

    contexts = []
    for _ in range(repeats):
        ctx = IterationContext(timing, cost, tracer=Tracer())
        scheduler.schedule(ctx, iterations)
        contexts.append(ctx)
    jobs = contexts[0].compute.jobs_submitted + contexts[0].comm.jobs_submitted
    # A full collection inside one side's timed region decides the ratio.
    gc.collect()
    started = time.perf_counter()
    for ctx in contexts:
        ctx.run()
    event_elapsed = (time.perf_counter() - started) / repeats

    fast = FastIterationContext(timing, cost, tracer=Tracer())
    scheduler.schedule(fast, iterations)
    tracers = [Tracer() for _ in range(repeats)]
    gc.collect()
    started = time.perf_counter()
    for tracer in tracers:
        fast._timeline.replay(tracer)
    fast_elapsed = (time.perf_counter() - started) / repeats

    reference = contexts[0].sim.now
    if abs(fast._timeline.final_time - reference) > 1e-9 * max(reference, 1.0):
        raise RuntimeError(
            "fastpath replay diverged from event kernel: "
            f"{fast._timeline.final_time} vs {reference}"
        )
    if tracers[-1].to_chrome_trace() != contexts[0].tracer.to_chrome_trace():
        raise RuntimeError("fastpath replay traced other spans than the event kernel")
    return {
        "jobs": float(jobs),
        "jobs_per_sec_event_kernel": jobs / event_elapsed,
        "jobs_per_sec_fastpath": jobs / fast_elapsed,
        "fastpath_speedup": event_elapsed / fast_elapsed,
    }


def _bench_multirank(world: int, event_repeats: int,
                     replay_repeats: int) -> dict[str, float]:
    """Rank-axis replay vs per-rank event kernel on one straggler run.

    Same methodology as :func:`_bench_replay`: event contexts are
    pre-built (a run is single-shot), the multi-rank timeline is
    recorded once and replayed per repeat; both timed regions execute
    the schedule only.  ``jobs`` counts per-rank jobs (world x slots) —
    the work the event kernel actually performs.
    """
    from repro.schedulers.multirank import (
        FastMultiRankContext,
        MultiRankIterationContext,
        _Run,
    )

    model = get_model("resnet50")
    nodes = max(1, world // 8)
    cluster = cluster_10gbe(nodes=nodes, gpus_per_node=world // nodes)
    # A compute ramp keeps the run genuinely heterogeneous.
    scales = [1.0 + 0.25 * rank / (world - 1) for rank in range(world)]
    setup = _Run("dear", model, cluster, scales, collapse=False)
    durations, cost = setup.args
    scheduler = setup.scheduler
    iterations = 5

    contexts = []
    for _ in range(event_repeats):
        ctx = MultiRankIterationContext(durations, cost)
        scheduler.schedule(ctx, iterations)
        contexts.append(ctx)
    started = time.perf_counter()
    for ctx in contexts:
        ctx.run()
    event_elapsed = (time.perf_counter() - started) / event_repeats

    fast = FastMultiRankContext(durations, cost)
    scheduler.schedule(fast, iterations)
    started = time.perf_counter()
    for _ in range(replay_repeats):
        fast._timeline.replay()
    fast_elapsed = (time.perf_counter() - started) / replay_repeats

    jobs = fast._timeline.jobs_recorded
    reference = contexts[0].ff_start_times()[-1]
    candidate = fast.ff_start_times()[-1]
    if abs(candidate - reference) > 1e-9 * max(reference, 1.0):
        raise RuntimeError(
            "multirank replay diverged from event kernel: "
            f"{candidate} vs {reference}"
        )
    return {
        "world": float(world),
        "jobs": float(jobs),
        "jobs_per_sec_event_kernel": jobs / event_elapsed,
        "jobs_per_sec_fastpath": jobs / fast_elapsed,
        "fastpath_speedup": event_elapsed / fast_elapsed,
    }


def _bench_autotuner(repeats: int) -> dict[str, float]:
    """Selection-table build throughput on the IB testbed fabric.

    Times ``repeats`` full builds (every candidate priced over the
    default 1 KiB–1 GiB sweep with one vectorized pass per candidate)
    plus the per-call lookup rate against the built table.  Wall-clock,
    host-dependent, gate-ignored like everything else in this suite.
    """
    from repro.network.autotuner import (
        build_selection_table,
        candidate_selections,
        default_sweep_sizes,
    )
    from repro.network.presets import cluster_100gbib

    cluster = cluster_100gbib()
    sizes = default_sweep_sizes()
    candidates = len(candidate_selections(cluster))
    evals_per_build = 3 * candidates * sizes.size  # three ops per table

    build_selection_table(cluster)  # warm-up
    started = time.perf_counter()
    for _ in range(repeats):
        table = build_selection_table(cluster)
    build_elapsed = (time.perf_counter() - started) / repeats

    lookups = 20_000
    started = time.perf_counter()
    for index in range(lookups):
        table.lookup("all_reduce", float(1 << (10 + index % 20)))
    lookup_elapsed = time.perf_counter() - started
    return {
        "candidates": float(candidates),
        "evals_per_build": float(evals_per_build),
        "builds_per_sec": 1.0 / build_elapsed,
        "evals_per_sec": evals_per_build / build_elapsed,
        "lookups_per_sec": lookups / lookup_elapsed,
    }


def _bench_synthesis(repeats: int) -> dict[str, float]:
    """Schedule-synthesis and step-pricing throughput at 64 ranks.

    Two timed regions: cold ``synthesize`` calls (cache cleared between
    repeats — the cost a new topology pays) and ``schedule_times``
    sweeps over a warm schedule (the cost every autotuner candidate
    evaluation pays).  Wall-clock, host-dependent, gate-ignored.
    """
    import numpy as np

    from repro.collectives.synthesis import (
        Topology,
        clear_schedule_cache,
        schedule_times,
        synthesize,
    )
    from repro.network.presets import cluster_10gbe

    cluster = cluster_10gbe()  # 16 nodes x 4 GPUs
    topology = Topology.from_cluster(cluster)
    specs = [(op, objective)
             for op in ("reduce_scatter", "all_gather", "all_reduce")
             for objective in ("latency", "bandwidth")]

    synthesize(topology, "all_reduce", "bandwidth")  # warm-up (JIT-free, but fair)
    started = time.perf_counter()
    for _ in range(repeats):
        clear_schedule_cache()
        for op, objective in specs:
            synthesize(topology, op, objective)
    synth_elapsed = (time.perf_counter() - started) / repeats

    schedule = synthesize(topology, "all_reduce", "bandwidth")
    sizes = np.logspace(10, 30, num=21, base=2.0)
    intra_ab = (cluster.intra_link.alpha, cluster.intra_link.beta)
    inter_ab = (cluster.inter_link.alpha, cluster.inter_link.beta)
    schedule_times(schedule, sizes, intra_ab, inter_ab)  # warm profile cache
    price_repeats = repeats * 20
    started = time.perf_counter()
    for _ in range(price_repeats):
        schedule_times(schedule, sizes, intra_ab, inter_ab)
    price_elapsed = (time.perf_counter() - started) / price_repeats
    return {
        "world": float(topology.world_size),
        "schedules_per_sec": len(specs) / synth_elapsed,
        "priced_sweeps_per_sec": 1.0 / price_elapsed,
        "priced_sizes_per_sec": sizes.size / price_elapsed,
    }


def _bench_sweep(models: tuple[str, ...], repeats: int) -> dict[str, float]:
    """Uncached end-to-end sweep wall time, fast path off vs. on."""
    from repro.schedulers.base import simulate

    cluster = cluster_10gbe()
    specs = [
        (get_model(model), scheduler, options)
        for model in models
        for scheduler, options in _SWEEP_SCHEDULERS
    ]

    def sweep(fastpath: bool) -> float:
        started = time.perf_counter()
        for _ in range(repeats):
            for model, scheduler, options in specs:
                simulate(scheduler, model, cluster, fastpath=fastpath, **options)
        return (time.perf_counter() - started) / repeats

    event_elapsed = sweep(fastpath=False)
    fast_elapsed = sweep(fastpath=True)
    return {
        "runs": float(len(specs)),
        "wall_s_event_kernel": event_elapsed,
        "wall_s_fastpath": fast_elapsed,
        "fastpath_speedup": event_elapsed / fast_elapsed,
    }


def run_simcore(quick: bool = False) -> dict[str, dict[str, float]]:
    """All simcore metrics, keyed like a bench suite's metric block."""
    kernel_events = 50_000 if quick else 200_000
    replay_repeats = 5 if quick else 20
    sweep_models = ("resnet50",) if quick else ("resnet50", "bert_large")
    sweep_repeats = 1 if quick else 3

    multirank_worlds = (64,) if quick else (64, 256, 1024)

    timer_elapsed = _bench_timer_chain(kernel_events)
    cascade_elapsed = _bench_zero_delay_cascade(kernel_events)
    metrics = {
        "kernel/timer_chain": {
            "events": float(kernel_events),
            "events_per_sec": kernel_events / timer_elapsed,
        },
        "kernel/zero_delay_cascade": {
            "events": float(kernel_events),
            "events_per_sec": kernel_events / cascade_elapsed,
        },
        "replay/wfbp_resnet50": _bench_replay(replay_repeats),
        "sweep/uncached_mini": _bench_sweep(sweep_models, sweep_repeats),
        "autotuner/table_build_100gbib": _bench_autotuner(
            2 if quick else 10
        ),
        "synth/schedule_64rank_10gbe": _bench_synthesis(2 if quick else 10),
    }
    for world in multirank_worlds:
        # One event run at the largest worlds: the event kernel is the
        # slow side being measured, not the thing to average.
        event_repeats = 1 if (quick or world > 64) else 2
        metrics[f"multirank/dear_resnet50_w{world}"] = _bench_multirank(
            world, event_repeats, replay_repeats
        )
    return metrics

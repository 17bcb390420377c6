"""Workload-DAG study: scheduler pipelining beyond the backward pass.

Not a paper figure — the paper evaluates layer-wise data parallelism
only — but the natural question its scheduler contract raises once the
schedulers consume arbitrary comm-compute DAGs
(:mod:`repro.workloads`): how much of DeAR's advantage survives on
workloads whose critical path is *not* an ordered list of gradient
all-reduces?

One row per (workload, world size, scheduler) on the 10GbE testbed
scaled to 64 / 256 / 1024 GPUs, WFBP as the 1.0 baseline (the paper's
Fig. 6 convention).  Every cell is a :class:`~repro.runner.spec.RunSpec`
through the cached batched runner, so the whole grid records once and
replays as a handful of vectorized groups.

Expected shape: on ``layerwise`` — the classic layer-wise shape, synced
per layer rather than per tensor, so its times differ from the classic
schedule's — DeAR's RS/AG pipelining wins as in Fig. 6; on
``moe`` / ``dlrm`` / ``llm3d`` the all-to-all dispatch, embedding
exchange, and pipeline send/recv chains sit *inside* the iteration's
critical path where no gradient-sync scheduler can hide them, so the
spread between schedulers compresses toward 1.0 as those ops dominate.
"""

from __future__ import annotations

from repro.experiments.common import format_table, resolve_cluster, resolve_model
from repro.runner import RunSpec, run_many

__all__ = ["run", "format_rows", "format_chart", "SCHEDULERS", "WORKLOADS",
           "WORLD_SIZES", "FUSION_BUFFER_BYTES"]

#: Baseline first: speedups are relative to WFBP (Fig. 6 convention).
SCHEDULERS = ("wfbp", "ddp", "horovod", "dear")

#: Every registered generator, layer-wise reference included.
WORKLOADS = ("layerwise", "moe", "dlrm", "llm3d")

#: 64 exercises the paper testbed, 1024 the scaled batched runner.
WORLD_SIZES = (64, 256, 1024)

#: All fusion buffers fixed at 25 MB (the Fig. 7 protocol).
FUSION_BUFFER_BYTES = 25e6

_OPTIONS = {
    "wfbp": {"buffer_bytes": FUSION_BUFFER_BYTES},
    "ddp": {"buffer_bytes": FUSION_BUFFER_BYTES},
    "horovod": {"buffer_bytes": FUSION_BUFFER_BYTES},
    "dear": {"fusion": "buffer", "buffer_bytes": FUSION_BUFFER_BYTES},
}


def run(model="resnet50", fabric: str = "10gbe", iterations: int = 5,
        jobs=None) -> list[dict]:
    """One row per (workload, world, scheduler); speedup vs. WFBP."""
    model = resolve_model(model)
    base = resolve_cluster(fabric)
    cells = []
    specs = []
    for workload in WORKLOADS:
        for world in WORLD_SIZES:
            cluster = base.with_nodes(world // base.gpus_per_node)
            for scheduler in SCHEDULERS:
                cells.append((workload, world, scheduler))
                specs.append(
                    RunSpec.create(
                        scheduler, model, cluster,
                        iterations=iterations,
                        workload=workload,
                        **_OPTIONS[scheduler],
                    )
                )
    results = dict(zip(cells, run_many(specs, jobs=jobs)))
    rows = []
    for workload in WORKLOADS:
        for world in WORLD_SIZES:
            wfbp = results[(workload, world, "wfbp")]
            for scheduler in SCHEDULERS:
                result = results[(workload, world, scheduler)]
                rows.append(
                    {
                        "workload": workload,
                        "world": world,
                        "scheduler": scheduler,
                        "iter_ms": result.iteration_time * 1e3,
                        "speedup": wfbp.iteration_time / result.iteration_time,
                    }
                )
    return rows


def format_rows(rows: list[dict]) -> str:
    return format_table(
        rows, columns=["workload", "world", "scheduler", "iter_ms", "speedup"]
    )


def format_chart(rows: list[dict]) -> str:
    """Speedup bars grouped by workload at the largest world size."""
    from repro.experiments.plotting import grouped_bar_chart

    world = max(WORLD_SIZES)
    pivot: dict[str, dict] = {}
    for row in rows:
        if row["world"] != world:
            continue
        cell = pivot.setdefault(row["workload"], {"workload": row["workload"]})
        cell[row["scheduler"]] = row["speedup"]
    return grouped_bar_chart(
        [pivot[workload] for workload in WORKLOADS],
        group_key="workload",
        series_keys=list(SCHEDULERS),
        title=f"workload DAGs at {world} GPUs (speedup vs WFBP)",
        baseline=1.0,
    )

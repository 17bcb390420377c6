"""Extension: straggler sensitivity on the full multi-rank simulator.

Sweeps a (policy x slowdown x world) grid — one slow rank from 1.0x to
1.5x compute time on 16-, 64-, and 256-GPU 10GbE clusters — through the
cached parallel runner: every cell is a :class:`RunSpec` with
``compute_scales`` set, so the grid fans out across cores on a cold
cache and replays for free on a warm one.  The rank-axis vectorized
replay is what makes the large worlds affordable.

Finding (and the assertion): with synchronous collectives the iteration
becomes straggler-bound — schedules degrade essentially linearly and
communication scheduling cannot absorb heterogeneity, though DeAR never
does worse than WFBP.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.experiments.common import format_table
from repro.models.zoo import get_model
from repro.network.presets import cluster_10gbe
from repro.runner import RunSpec, run_many
from repro.schedulers.base import simulate
from repro.schedulers.multirank import _Run

POLICIES = ("wfbp", "horovod", "dear")
STRAGGLER_FACTORS = (1.0, 1.1, 1.25, 1.5)
WORLDS = (16, 64, 256)


def _cluster(world: int):
    return cluster_10gbe(nodes=world // 4, gpus_per_node=4)


def run():
    model = get_model("resnet50")
    specs, keys = [], []
    for world in WORLDS:
        cluster = _cluster(world)
        for policy in POLICIES:
            for factor in STRAGGLER_FACTORS:
                scales = (1.0,) * (world - 1) + (factor,)
                specs.append(
                    RunSpec.create(
                        policy, model, cluster, compute_scales=scales,
                        fusion_buffer_bytes=25e6,
                    )
                )
                keys.append((world, policy, factor))
    results = dict(zip(keys, run_many(specs)))

    rows = []
    for world in WORLDS:
        for factor in STRAGGLER_FACTORS:
            wfbp = results[(world, "wfbp", factor)].iteration_time
            horovod = results[(world, "horovod", factor)].iteration_time
            dear = results[(world, "dear", factor)].iteration_time
            rows.append(
                {
                    "gpus": world,
                    "straggler_factor": factor,
                    "wfbp_iter_s": wfbp,
                    "horovod_iter_s": horovod,
                    "dear_iter_s": dear,
                    "dear_advantage": wfbp / dear,
                }
            )
    return rows


def test_straggler_sensitivity(benchmark):
    rows = run_and_report(benchmark, "straggler", run, format_table)
    # DeAR never loses to WFBP, at any scale or slowdown.
    assert all(row["dear_advantage"] >= 0.999 for row in rows)
    # Every policy degrades monotonically with the straggler, per world.
    for world in WORLDS:
        block = [row for row in rows if row["gpus"] == world]
        for key in ("wfbp_iter_s", "horovod_iter_s", "dear_iter_s"):
            series = [row[key] for row in block]
            assert series == sorted(series)
    # Straggler-bound regime: at 1.5x the iteration grew by at least
    # half the straggler's extra compute (no magic absorption).
    block = [row for row in rows if row["gpus"] == WORLDS[0]]
    base = block[0]["dear_iter_s"]
    worst = block[-1]["dear_iter_s"]
    extra_compute = 0.5 * 0.22  # 50% slowdown on a ~0.22 s compute
    assert worst - base >= 0.5 * extra_compute


def test_homogeneous_multirank_matches_representative_engine(benchmark):
    """With equal ranks, the full multi-rank simulation must agree with
    the single-representative-rank engine to float precision.
    Explicit ranks force the genuine rank-axis engine (the collapse
    shortcut would make this trivially true)."""
    model = get_model("resnet50")
    cluster = _cluster(WORLDS[0])
    multi = benchmark.pedantic(
        lambda: _Run(
            "dear", model, cluster, [1.0] * WORLDS[0],
            fusion_buffer_bytes=25e6, collapse=False,
        ).simulate(),
        rounds=1, iterations=1,
    )
    representative = simulate(
        "dear", model, cluster, fusion="buffer", buffer_bytes=25e6
    )
    assert multi.iteration_time == pytest.approx(
        representative.iteration_time, rel=1e-9
    )

"""Table II: real speedup S of DeAR vs. the theoretical maximum S^max.

S^max comes from Eq. 6 with the bandwidth-bound communication times
(:mod:`repro.analysis.speedup`); S is DeAR-BO's simulated aggregate
throughput over the single-GPU baseline.  The paper reports DeAR
reaching 72.3-99.2% of S^max across all ten (model, network) cells.
"""

from __future__ import annotations

from repro.analysis.speedup import max_speedup_for
from repro.experiments.common import format_table, resolve_cluster, resolve_model
from repro.experiments.paper_data import MODELS, NETWORKS, TABLE2
from repro.runner import RunSpec, run_cached
from repro.schedulers.base import single_gpu_result

__all__ = ["run", "format_rows"]


def run(models=MODELS, networks=NETWORKS, iterations: int = 5,
        dear_fusion: str = "bo", bo_trials: int = 12) -> list[dict]:
    """One row per (network, model): S^max, measured S, and the ratio."""
    rows = []
    for network in networks:
        cluster = resolve_cluster(network)
        for name in models:
            model = resolve_model(name)
            single = single_gpu_result(model)
            s_max = max_speedup_for(model, cluster)
            options = (
                {"fusion": "bo", "bo_trials": bo_trials}
                if dear_fusion == "bo"
                else {"fusion": "buffer", "buffer_bytes": 25e6}
            )
            dear = run_cached(RunSpec.create(
                "dear", model, cluster, iterations=iterations, **options
            ))
            s_real = dear.scaling_speedup(single.iteration_time)
            paper_smax, paper_s = TABLE2[network][name]
            rows.append(
                {
                    "network": cluster.name,
                    "model": model.display_name,
                    "s_max": s_max,
                    "s": s_real,
                    "ratio_pct": 100.0 * s_real / s_max,
                    "paper_s_max": paper_smax,
                    "paper_s": paper_s,
                    "paper_ratio_pct": 100.0 * paper_s / paper_smax,
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    return format_table(rows)

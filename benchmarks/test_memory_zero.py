"""Bench: memory accounting (the Figs. 6/7 OOM cells) and the ZeRO
comparison (§VII-B).

1. The paper annotates exactly two out-of-memory cells on the 11 GB
   2080Ti: ByteScheduler and MG-WFBP, both on BERT-Large.  The memory
   model must reproduce those two OOMs and *only* those two.
2. ZeRO trades 1.5x DeAR's communication volume for ~P x less model
   state ("ZeRO ... has increased the total communication overheads
   compared with DeAR"): volume, time, and memory, quantified.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.analysis.memory import GTX_2080TI_BYTES, estimate_memory
from repro.experiments.common import format_table
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import simulate

MEMORY_SCHEDULERS = ("wfbp", "ddp", "horovod", "mg_wfbp", "bytescheduler", "dear", "zero")


def run_memory():
    rows = []
    for scheduler in MEMORY_SCHEDULERS:
        for name in MODEL_NAMES:
            estimate = estimate_memory(scheduler, get_model(name))
            rows.append(
                {
                    "scheduler": scheduler,
                    "model": name,
                    "total_gb": estimate.total / 1e9,
                    "states_gb": estimate.model_states / 1e9,
                    "activations_gb": estimate.activations / 1e9,
                    "overhead_gb": estimate.scheduler_overhead / 1e9,
                    "fits_11gb": estimate.fits(GTX_2080TI_BYTES),
                }
            )
    return rows


def run_zero_comparison():
    rows = []
    cluster = cluster_10gbe()
    for name in ("resnet50", "bert_base", "bert_large"):
        model = get_model(name)
        dear = simulate("dear", model, cluster, fusion="buffer", buffer_bytes=25e6,
                        trace=True)
        zero = simulate("zero", model, cluster, buffer_bytes=25e6, trace=True)

        def volume(result):
            return sum(
                span.metadata["bytes"]
                for span in result.tracer.spans
                if span.category in ("comm.rs", "comm.ag")
                and span.metadata["iteration"] == 2
            )

        rows.append(
            {
                "model": name,
                "dear_iter_s": dear.iteration_time,
                "zero_iter_s": zero.iteration_time,
                "zero_vol_over_dear": volume(zero) / volume(dear),
                "dear_mem_gb": estimate_memory("dear", model).total / 1e9,
                "zero_mem_gb": estimate_memory("zero", model).total / 1e9,
            }
        )
    return rows


def test_memory_oom_cells(benchmark):
    rows = run_and_report(benchmark, "memory", run_memory, format_table)
    ooms = {
        (row["scheduler"], row["model"]) for row in rows if not row["fits_11gb"]
    }
    # Exactly the paper's two annotations, nothing else.
    assert ooms == {
        ("bytescheduler", "bert_large"),
        ("mg_wfbp", "bert_large"),
    }


def test_zero_vs_dear(benchmark):
    rows = run_and_report(benchmark, "zero_comparison", run_zero_comparison, format_table)
    for row in rows:
        # §VII-B: ZeRO moves 1.5x the bytes and is never faster ...
        assert row["zero_vol_over_dear"] == pytest.approx(1.5, rel=1e-6)
        assert row["zero_iter_s"] >= row["dear_iter_s"] - 1e-9
        # ... but needs less memory on large models (sharded states).
        if row["model"] == "bert_large":
            assert row["zero_mem_gb"] < row["dear_mem_gb"]

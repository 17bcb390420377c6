"""Figs. 1-2: the scheduling timelines, regenerated from real traces.

The paper's Figures 1(b-d) and 2(b-c) are hand-drawn schedules of one
iteration under WFBP, fused WFBP, ByteScheduler, DeAR without fusion,
and DeAR with fusion.  This harness runs each schedule in the simulator
on a small model and renders the *actual* traced timeline as a two-lane
Gantt chart — the structural claims become visible:

- WFBP's communication tail sticks out past the backward pass and the
  next forward cannot start under it (Fig. 1(b));
- fusion shortens the tail but the forward still waits (Fig. 1(c));
- ByteScheduler overlaps the next forward but pays per-op negotiation
  (Fig. 1(d));
- DeAR's reduce-scatters hide under backprop and its all-gathers run
  *under the next iteration's forward pass* (Fig. 2(b-c)).
"""

from __future__ import annotations

from repro.experiments.common import format_table, resolve_cluster
from repro.experiments.plotting import ascii_timeline
from repro.models.layers import ModelBuilder
from repro.schedulers.base import ScheduleResult, simulate
from repro.telemetry.breakdown import steady_state_window

__all__ = ["run", "format_rows", "format_chart", "PANELS"]

#: (panel label, scheduler, options) in the paper's figure order.
PANELS = (
    ("Fig 1(b)  WFBP", "wfbp", {}),
    ("Fig 1(c)  WFBP + fusion", "wfbp", {"buffer_bytes": 4e6}),
    ("Fig 1(d)  ByteScheduler", "bytescheduler", {"partition_bytes": 1e6}),
    ("Fig 2(b)  DeAR w/o fusion", "dear", {"fusion": "none"}),
    ("Fig 2(c)  DeAR + fusion", "dear", {"fusion": "buffer", "buffer_bytes": 4e6}),
)


def _figure_model():
    """A small L-layer model like the figures' schematic DNN.

    Sized so communication is comparable to compute on the 10GbE
    testbed — the regime where the figures' differences are visible.
    """
    builder = ModelBuilder(
        name="figure_dnn", display_name="Figure DNN", default_batch_size=8,
    )
    for index in range(6):
        builder.add_layer(
            f"layer{index}", "conv", [("weight", 500_000)], flops=1e9,
        )
    return builder.build()


def run(cluster="10gbe", iterations: int = 5) -> list[dict]:
    """One row per figure panel, carrying the traced schedule result."""
    cluster = resolve_cluster(cluster)
    model = _figure_model()
    rows = []
    for label, scheduler, options in PANELS:
        result: ScheduleResult = simulate(
            scheduler, model, cluster, iterations=iterations,
            iteration_compute=0.03, trace=True, **options,
        )
        rows.append(
            {
                "panel": label,
                "scheduler": scheduler,
                "iteration_ms": result.iteration_time * 1e3,
                "exposed_comm_ms": result.exposed_comm * 1e3,
                "_result": result,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    visible = [
        {key: value for key, value in row.items() if not key.startswith("_")}
        for row in rows
    ]
    return format_table(visible)


def format_chart(rows: list[dict]) -> str:
    """Render each panel's steady-state window as a Gantt chart."""
    blocks = []
    for row in rows:
        result: ScheduleResult = row["_result"]
        # The steady-state iteration window the run was measured over.
        start, end = steady_state_window(result.tracer)
        blocks.append(
            ascii_timeline(
                result.tracer.spans, start, end,
                title=f"{row['panel']}  (one iteration, "
                      f"{(end - start) * 1e3:.1f} ms)",
            )
        )
    return "\n\n".join(blocks)

"""Per-category time breakdown of one traced run (the Fig. 8 view).

Splits the steady-state iteration window of a :class:`Tracer` into
per-category **total**, **hidden** (overlapped by compute), and
**exposed** (non-overlapped) time.  Runs are measured from their job
timestamps, not from spans (``Scheduler.measure``); this module turns
the spans of a traced run — the same timestamps — into the same
columns and feeds them to the same function
(:func:`~repro.sim.trace.exposed_times`) with the same category sets
(:data:`~repro.sim.trace.COMM_CATEGORIES`,
:data:`~repro.sim.trace.COMPUTE_CATEGORIES`), so the ``comm (all)`` row
of a single-rank trace equals ``ScheduleResult.exposed_comm`` exactly
(the trace CLI checks equality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.trace import COMM_CATEGORIES, COMPUTE_CATEGORIES, Tracer, exposed_times

__all__ = [
    "CategoryBreakdown",
    "COMM_CATEGORIES",
    "COMPUTE_CATEGORIES",
    "steady_state_window",
    "trace_breakdown",
    "format_breakdown_table",
]


@dataclass(frozen=True)
class CategoryBreakdown:
    """One row of the breakdown table, in seconds within the window."""

    category: str
    total: float
    exposed: float

    @property
    def hidden(self) -> float:
        return self.total - self.exposed


def steady_state_window(tracer: Tracer) -> tuple[float, float]:
    """The last full iteration: between the two final first-FF starts.

    A tracer returned by a scheduler run carries the window its run was
    measured over (``tracer.window``), whatever the schedule's span
    names.  Otherwise the window is found from the layer-wise spans:
    each iteration ``i`` opens with a span named ``ff.<i>.0``, and the
    window lies between the last two of those starts.
    """
    if tracer.window is not None:
        return tracer.window
    starts: list[tuple[int, float]] = []
    for span in tracer.spans:
        if span.category != "ff" or not span.name.startswith("ff."):
            continue
        parts = span.name.split(".")
        if len(parts) == 3 and parts[2] == "0":
            try:
                starts.append((int(parts[1]), span.start))
            except ValueError:
                continue
    if len(starts) < 2:
        raise ValueError(
            "trace holds fewer than two iterations; cannot find a "
            "steady-state window"
        )
    starts.sort()
    return starts[-2][1], starts[-1][1]


def _times(tracer: Tracer, window: tuple[float, float],
           groups: Sequence[Sequence[str]], hidden: Sequence[str] = ()) -> list:
    """Per group of categories, its spans' time within ``window`` not
    covered by a span of a ``hidden`` category."""
    spans = tracer.spans
    code = {category: index for index, category
            in enumerate(sorted({span.category for span in spans}))}

    def codes(categories: Sequence[str]) -> tuple[int, ...]:
        return tuple(code[category] for category in categories if category in code)

    return exposed_times(
        np.array([span.start for span in spans], dtype=float),
        np.array([span.end for span in spans], dtype=float),
        np.array([code[span.category] for span in spans], dtype=np.intp),
        window, [codes(group) for group in groups], codes(hidden),
    )


def exposed_in_window(
    tracer: Tracer, categories: tuple[str, ...], window: tuple[float, float]
) -> float:
    """Time of ``categories`` within ``window`` not hidden by compute."""
    return _times(tracer, window, [categories], COMPUTE_CATEGORIES)[0]


def total_in_window(
    tracer: Tracer, categories: tuple[str, ...], window: tuple[float, float]
) -> float:
    """Busy time of ``categories`` within ``window`` (overlaps once)."""
    return _times(tracer, window, [categories])[0]


def trace_breakdown(
    tracer: Tracer, window: tuple[float, float] | None = None
) -> list[CategoryBreakdown]:
    """Breakdown rows for every category in the steady-state window.

    Compute categories are never "hidden" (they define the hiding), so
    their exposed time equals their total.  A synthetic ``comm (all)``
    row aggregates every collective category the way Fig. 8 does — its
    exposed value is the ``ScheduleResult.exposed_comm`` number.
    """
    if window is None:
        window = steady_state_window(tracer)
    categories = sorted({span.category for span in tracer.spans})
    groups = [(category,) for category in categories] + [COMM_CATEGORIES]
    totals = _times(tracer, window, groups)
    exposed = _times(tracer, window, groups, COMPUTE_CATEGORIES)
    rows = [
        CategoryBreakdown(category, total,
                          exposed_time if category.startswith("comm") else total)
        for category, total, exposed_time in zip(categories, totals, exposed)
        if total != 0.0
    ]
    if any(row.category in COMM_CATEGORIES for row in rows):
        rows.append(CategoryBreakdown("comm (all)", totals[-1], exposed[-1]))
    return rows


def format_breakdown_table(
    rows: list[CategoryBreakdown], window: tuple[float, float]
) -> str:
    """Fixed-width terminal table of one iteration's decomposition."""
    span = window[1] - window[0]
    header = (
        f"{'category':<12} {'total_ms':>10} {'hidden_ms':>10} "
        f"{'exposed_ms':>11} {'% of iter':>10}"
    )
    lines = [
        f"steady-state window: {window[0] * 1e3:.3f} ms -> "
        f"{window[1] * 1e3:.3f} ms  ({span * 1e3:.3f} ms)",
        header,
        "-" * len(header),
    ]
    for row in rows:
        share = 100.0 * row.exposed / span if span else 0.0
        lines.append(
            f"{row.category:<12} {row.total * 1e3:>10.3f} "
            f"{row.hidden * 1e3:>10.3f} {row.exposed * 1e3:>11.3f} "
            f"{share:>9.1f}%"
        )
    return "\n".join(lines)

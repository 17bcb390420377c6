"""The tuple interval arithmetic exposed time was first measured with.

``repro.sim.trace.exposed_times`` computes Fig. 8's exposed time from
start, end and category-code columns.  These helpers are the
one-tuple-at-a-time version it replaced, kept as the oracle of
``tests/sim/test_exposed_arrays.py``, ``tests/sim/test_trace.py`` and
``tests/schedulers/test_measure_differential.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sim.trace import COMPUTE_CATEGORIES


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of half-open intervals, returned sorted and disjoint."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def subtract_intervals(
    base: Sequence[tuple[float, float]],
    holes: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Portions of ``base`` not covered by ``holes`` (both get merged first)."""
    base = merge_intervals(base)
    holes = merge_intervals(holes)
    result: list[tuple[float, float]] = []
    hole_index = 0
    for start, end in base:
        cursor = start
        while hole_index < len(holes) and holes[hole_index][1] <= cursor:
            hole_index += 1
        index = hole_index
        while index < len(holes) and holes[index][0] < end:
            hole_start, hole_end = holes[index]
            if hole_start > cursor:
                result.append((cursor, min(hole_start, end)))
            cursor = max(cursor, hole_end)
            if cursor >= end:
                break
            index += 1
        if cursor < end:
            result.append((cursor, end))
    return result


def total_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Sum of interval lengths (after merging, so overlaps count once)."""
    return sum(end - start for start, end in merge_intervals(intervals))


def clip_to_window(
    jobs: Iterable[tuple[float, float, str]], window: tuple[float, float]
) -> dict[str, list[tuple[float, float]]]:
    """Each category's job intervals clipped to ``window``; jobs that do
    not overlap the open window are dropped."""
    lo, hi = window
    clipped: dict[str, list[tuple[float, float]]] = {}
    for start, end, category in jobs:
        if end > lo and start < hi:
            clipped.setdefault(category, []).append((max(start, lo), min(end, hi)))
    return clipped


def exposed_times(
    clipped: dict[str, list[tuple[float, float]]],
    groups: Sequence[Sequence[str]],
) -> list[float]:
    """Per group of categories, its time not covered by compute."""
    holes = merge_intervals(
        interval
        for category in COMPUTE_CATEGORIES
        for interval in clipped.get(category, ())
    )
    return [
        total_length(subtract_intervals(
            [interval for category in group for interval in clipped.get(category, ())],
            holes,
        ))
        for group in groups
    ]

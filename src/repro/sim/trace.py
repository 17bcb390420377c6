"""Span tracing and timeline analysis.

A traced run records the spans its engine executed into a
:class:`Tracer`, which exports them as Chrome / Perfetto trace-event
JSON (:meth:`Tracer.to_chrome_trace`): complete spans, per-actor thread
metadata (names *and* ``thread_sort_index`` so each rank's compute and
comm rows render adjacently), derived **counter tracks** (bytes in
flight on the comm streams, comm-queue depth), and **flow events**
linking one gradient's lifecycle (grad-ready -> reduce-scatter ->
all-gather -> parameter use) across streams.

The exposed-time arithmetic (:func:`clip_to_window`,
:func:`exposed_times`) computes *non-overlapped* time, which is how the
paper's Fig. 8 defines the exposed communication time ("the
communication time excludes the part hidden by computations").  It
reads plain ``(start, end, category)`` triples, so a run is measured
from its engine's job timestamps whether or not anyone asked for spans;
:class:`Tracer` is only built for a trace.

The export is deterministic: events are emitted in sorted order and
timestamps are rounded to picosecond resolution, so two tracers holding
the same spans — e.g. the event kernel's and the vectorized replay's,
whose float timestamps may differ by ~1e-15 relative — serialise to
byte-identical JSON (pinned by the differential suite in
``tests/sim/test_fastpath.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "COMM_CATEGORIES",
    "COMPUTE_CATEGORIES",
    "Span",
    "Tracer",
    "actor_sort_index",
    "clip_to_window",
    "exposed_times",
    "merge_intervals",
    "subtract_intervals",
    "total_length",
]

#: Job categories of communication, in the order the engines emit them.
COMM_CATEGORIES = ("comm.ar", "comm.rs", "comm.ag", "comm.a2a", "comm.p2p")

#: Job categories that *hide* communication (Fig. 8's definition).
COMPUTE_CATEGORIES = ("ff", "bp", "compute")


@dataclass(frozen=True)
class Span:
    """One traced task execution on one actor's timeline."""

    name: str
    category: str
    actor: str
    start: float
    end: float
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


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
    """Each category's job intervals clipped to ``window``.

    ``jobs`` yields ``(start, end, category)``; jobs that do not overlap
    the open window are dropped.
    """
    lo, hi = window
    clipped: dict[str, list[tuple[float, float]]] = {}
    for start, end, category in jobs:
        if end > lo and start < hi:
            intervals = clipped.get(category)
            if intervals is None:
                intervals = clipped[category] = []
            intervals.append((max(start, lo), min(end, hi)))
    return clipped


def exposed_times(
    clipped: dict[str, list[tuple[float, float]]],
    groups: Sequence[Sequence[str]],
) -> list[float]:
    """Per group of categories, its time not covered by compute.

    ``clipped`` comes from :func:`clip_to_window`; compute is every
    category in :data:`COMPUTE_CATEGORIES`.  This is Fig. 8's exposed
    communication time.  A group with nothing exposed sums to the
    integer ``0``, as :func:`total_length` does.
    """
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


#: Ordering of actor *kinds* within one rank's row group: compute above
#: its comm stream, anything else (coordinator lanes, network actors)
#: below.  Keyed by the suffix after the last ``.`` of the actor name.
_KIND_ORDER = {"compute": 0, "comm": 1}


def actor_sort_index(actor: str) -> tuple:
    """Sort key grouping per-rank compute/comm rows adjacently.

    Actor names follow ``<owner>.<kind>`` (``gpu.compute``,
    ``rank3.comm``); rows are ordered by owner first — with numeric
    rank suffixes compared *numerically*, so ``rank10`` follows
    ``rank9`` — then by kind (compute above comm).  Unstructured names
    sort after the structured ones, lexicographically.
    """
    owner, dot, kind = actor.rpartition(".")
    if not dot:
        return (1, actor, 0, "")
    prefix = owner.rstrip("0123456789")
    digits = owner[len(prefix):]
    rank = int(digits) if digits else -1
    return (0, prefix, rank, _KIND_ORDER.get(kind, 2), kind)


def _quantize(seconds: float) -> float:
    """Microsecond timestamp rounded to picoseconds.

    Absorbs the ~1e-15-relative float-association differences between
    the event kernel and the vectorized replay, making the serialised
    trace byte-for-byte reproducible across both.
    """
    return round(seconds * 1e6, 6)


class Tracer:
    """Collects :class:`Span` records from all streams of a simulation.

    Besides spans, a tracer can carry explicit **counter samples**
    (:meth:`record_counter`) — e.g. a transport publishing bytes on the
    wire — which export as Chrome counter tracks alongside the derived
    comm-occupancy counters.
    """

    def __init__(self):
        self.spans: list[Span] = []
        #: the steady-state window the run was measured over, when a
        #: scheduler measured it; never serialised.
        self.window: Optional[tuple[float, float]] = None
        #: explicit counter samples: (track name, time, value).
        self.counter_samples: list[tuple[str, float, float]] = []
        #: instant events: (name, category, time, args) — zero-duration
        #: markers (fault injections, degradation windows) rendered as
        #: Chrome "i" events with global scope.
        self.instants: list[tuple[str, str, float, dict]] = []

    def record_counter(self, name: str, time: float, value: float) -> None:
        """Append one sample to the named counter track."""
        self.counter_samples.append((name, time, value))

    def record_instant(
        self,
        name: str,
        time: float,
        category: str = "fault",
        args: Optional[dict] = None,
    ) -> None:
        """Append one zero-duration marker (e.g. a fault event)."""
        self.instants.append((name, category, time, args or {}))

    def record(
        self,
        name: str,
        category: str,
        actor: str,
        start: float,
        end: float,
        metadata: Optional[dict] = None,
    ) -> Span:
        """Append one span; returns it for convenience."""
        span = Span(
            name=name,
            category=category,
            actor=actor,
            start=start,
            end=end,
            metadata=metadata or {},
        )
        self.spans.append(span)
        return span

    def filter(
        self,
        category: Optional[str] = None,
        actor: Optional[str] = None,
        name_prefix: Optional[str] = None,
    ) -> list[Span]:
        """Spans matching all the given criteria."""
        out = []
        for span in self.spans:
            if category is not None and span.category != category:
                continue
            if actor is not None and span.actor != actor:
                continue
            if name_prefix is not None and not span.name.startswith(name_prefix):
                continue
            out.append(span)
        return out

    def to_chrome_trace(self, counters: bool = True, flows: bool = True) -> str:
        """Serialise as Chrome/Perfetto trace-event JSON.

        Load via https://ui.perfetto.dev or ``about://tracing``.  The
        export contains, in order: thread metadata (names plus
        ``thread_sort_index`` so each rank's compute row sits directly
        above its comm row), all positive-duration spans sorted by
        (time, thread, name), any instant markers
        (:meth:`record_instant`, rendered as globally-scoped "i"
        events), flow events linking spans that share a
        ``flow`` / ``flows`` metadata entry, and counter tracks — the
        derived comm occupancy (bytes in flight, queue depth) plus any
        explicit :meth:`record_counter` samples.
        """
        actors = sorted({span.actor for span in self.spans}, key=actor_sort_index)
        tids = {actor: index for index, actor in enumerate(actors)}
        events: list[dict] = []
        for tid, actor in enumerate(actors):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": actor},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        # Sort on *quantized* timestamps: the comparison sees exactly the
        # serialised values, so event-kernel and replay tracers order
        # identically even when raw floats differ at the 1e-15 level.
        span_order = sorted(
            self.spans,
            key=lambda s: (
                _quantize(s.start), _quantize(s.end), tids[s.actor], s.name,
            ),
        )
        for span in span_order:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[span.actor],
                    "ts": _quantize(span.start),
                    "dur": _quantize(span.end) - _quantize(span.start),
                    "args": _jsonable_metadata(span.metadata),
                }
            )
        # Canonical-JSON args as the final tiebreak: engines may append
        # coincident same-name instants (e.g. per-rank fault markers) in
        # different orders, and the serialised output must not care.
        for name, category, time, args in sorted(
            self.instants,
            key=lambda e: (
                _quantize(e[2]),
                e[0],
                json.dumps(_jsonable_metadata(e[3]), sort_keys=True),
            ),
        ):
            events.append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "i",
                    "s": "g",  # global scope: drawn across every track
                    "pid": 0,
                    "tid": 0,
                    "ts": _quantize(time),
                    "args": _jsonable_metadata(args),
                }
            )
        if flows:
            events.extend(self._flow_events(span_order, tids))
        if counters:
            events.extend(self._counter_events(span_order))
        return json.dumps({"traceEvents": events}, indent=2)

    def _flow_events(self, span_order: list[Span], tids: dict) -> list[dict]:
        """Chrome flow events (s/t/f) for spans sharing a flow id.

        A span opts into flows via metadata: ``flow`` (one id) or
        ``flows`` (several).  Spans with the same id, ordered by time,
        become one arrow chain — e.g. a gradient's BP span, its
        reduce-scatter, its all-gather, and the next iteration's
        feed-forward consumer.
        """
        chains: dict[str, list[Span]] = {}
        for span in span_order:
            meta = span.metadata
            ids = meta.get("flows", ())
            single = meta.get("flow")
            if single is not None:
                ids = list(ids) + [single]
            for flow_id in ids:
                chains.setdefault(str(flow_id), []).append(span)
        events = []
        for number, flow_id in enumerate(sorted(chains)):
            chain = chains[flow_id]
            if len(chain) < 2:
                continue
            for position, span in enumerate(chain):
                if position == 0:
                    phase, ts = "s", span.end  # arrow leaves at completion
                elif position == len(chain) - 1:
                    phase, ts = "f", span.start
                else:
                    phase, ts = "t", span.start
                event = {
                    "name": flow_id,
                    "cat": "flow",
                    "ph": phase,
                    "id": number,
                    "pid": 0,
                    "tid": tids[span.actor],
                    "ts": _quantize(ts),
                }
                if phase == "f":
                    event["bp"] = "e"  # bind to enclosing slice
                events.append(event)
        return events

    def _counter_events(self, span_order: list[Span]) -> list[dict]:
        """Counter tracks: derived comm occupancy + explicit samples.

        ``comm.bytes_in_flight`` sums the ``bytes`` metadata of every
        open ``comm.*`` span; ``comm.queue_depth`` counts them — on a
        multi-rank trace that is the number of collectives on the wire.
        """
        transitions: list[tuple[float, float, int]] = []
        for span in span_order:
            if not span.category.startswith("comm"):
                continue
            nbytes = float(span.metadata.get("bytes", 0.0))
            transitions.append((_quantize(span.start), nbytes, 1))
            transitions.append((_quantize(span.end), -nbytes, -1))
        events = []
        if transitions:
            transitions.sort()
            in_flight = 0.0
            depth = 0
            previous_ts: Optional[float] = None
            samples: list[tuple[float, float, int]] = []
            for ts, nbytes, step in transitions:
                if previous_ts is not None and ts > previous_ts:
                    samples.append((previous_ts, max(in_flight, 0.0), depth))
                in_flight += nbytes
                depth += step
                previous_ts = ts
            samples.append((previous_ts, max(in_flight, 0.0), max(depth, 0)))
            for ts, in_flight, depth in samples:
                events.append(
                    {
                        "name": "comm.bytes_in_flight",
                        "ph": "C",
                        "pid": 0,
                        "ts": ts,
                        "args": {"bytes": in_flight},
                    }
                )
                events.append(
                    {
                        "name": "comm.queue_depth",
                        "ph": "C",
                        "pid": 0,
                        "ts": ts,
                        "args": {"depth": depth},
                    }
                )
        for name, time, value in sorted(self.counter_samples):
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": 0,
                    "ts": _quantize(time),
                    "args": {"value": value},
                }
            )
        return events


def _jsonable_metadata(metadata: dict) -> dict:
    """Span metadata with tuples normalised to lists for stable JSON."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in metadata.items()
    }

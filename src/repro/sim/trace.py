"""Span tracing and timeline analysis.

A traced run records the spans its engine executed into a
:class:`Tracer`, which exports them as Chrome / Perfetto trace-event
JSON (:meth:`Tracer.to_chrome_trace`): complete spans, per-actor thread
metadata (names *and* ``thread_sort_index`` so each rank's compute and
comm rows render adjacently), derived **counter tracks** (bytes in
flight on the comm streams, comm-queue depth), and **flow events**
linking one gradient's lifecycle (grad-ready -> reduce-scatter ->
all-gather -> parameter use) across streams.

The exposed-time arithmetic (:func:`exposed_times`) computes
*non-overlapped* time, which is how the paper's Fig. 8 defines the
exposed communication time ("the communication time excludes the part
hidden by computations").  It reads start, end and category-code
columns, so a run is measured from its engine's job timestamps whether
or not anyone asked for spans; :class:`Tracer` is only built for a
trace.

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
from itertools import chain
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "CATEGORY_CODES",
    "COMM_CATEGORIES",
    "COMPUTE_CATEGORIES",
    "COMPUTE_CODES",
    "Span",
    "Tracer",
    "actor_sort_index",
    "category_code",
    "exposed_times",
]

#: Job categories of communication, in the order the engines emit them.
COMM_CATEGORIES = ("comm.ar", "comm.rs", "comm.ag", "comm.a2a", "comm.p2p")

#: Job categories that *hide* communication (Fig. 8's definition).
COMPUTE_CATEGORIES = ("ff", "bp", "compute")

#: The code an engine records beside a job (:func:`category_code`):
#: compute, then communication; any other category shares one more.
CATEGORY_CODES = {c: code for code, c in enumerate(COMPUTE_CATEGORIES + COMM_CATEGORIES)}
COMPUTE_CODES = tuple(range(len(COMPUTE_CATEGORIES)))
_OTHER_CODE = len(CATEGORY_CODES)


def category_code(category: str) -> int:
    """The code an engine records beside a job of ``category``."""
    return CATEGORY_CODES.get(category, _OTHER_CODE)


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


def exposed_times(
    starts: np.ndarray,
    ends: np.ndarray,
    codes: np.ndarray,
    window: tuple[float, float],
    groups: Sequence[Sequence[int]],
    hidden: Sequence[int] = COMPUTE_CODES,
) -> list:
    """Per group of category codes, its jobs' time within ``window``
    that no job of a ``hidden`` code covers: Fig. 8's exposed time, or
    with ``hidden=()`` the busy time.

    Jobs (one column entry each) are clipped to the window and merged
    into disjoint intervals; a group's intervals are cut at the gaps
    between the hidden ones.  Only ``max``, ``min``, one subtraction
    per piece and ``sum`` touch the floats, as in a merge-and-subtract
    over tuples; a group with nothing left sums to the integer ``0``.
    """
    # Clipped, a job outside the window has no length left.
    starts = np.maximum(starts, window[0])
    ends = np.minimum(ends, window[1])
    keep = ends > starts
    starts, ends, codes = starts[keep], ends[keep], codes[keep]
    member = np.zeros(max([codes.max(initial=0), *hidden, *chain(*groups)]) + 1, bool)

    def union(wanted: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        member[:] = False
        member[list(wanted)] = True
        mask = member[codes]
        order = np.lexsort((ends[mask], starts[mask]))
        lo, hi = starts[mask][order], ends[mask][order]
        # A job opens an interval when it starts after every earlier end.
        after = np.concatenate(([-np.inf], np.maximum.accumulate(hi)[:-1]))
        firsts = np.flatnonzero(lo > after)
        return lo[firsts], np.maximum.reduceat(hi, firsts)

    hole_starts, hole_ends = union(hidden)
    gap_starts = np.concatenate(([-np.inf], hole_ends))
    gap_ends = np.concatenate((hole_starts, [np.inf]))
    totals = []
    for group in groups:
        lo, hi = union(group)
        # Gaps first..last overlap an interval: each ends after it
        # starts and starts before it ends.
        first = np.searchsorted(hole_starts, lo, side="right")
        counts = np.maximum(np.searchsorted(hole_ends, hi) - first + 1, 0)
        pieces = np.repeat(np.arange(lo.size), counts)
        gaps = np.arange(pieces.size) + np.repeat(first - np.cumsum(counts) + counts, counts)
        lengths = (np.minimum(hi[pieces], gap_ends[gaps])
                   - np.maximum(lo[pieces], gap_starts[gaps]))
        totals.append(sum(lengths.tolist()))
    return totals


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

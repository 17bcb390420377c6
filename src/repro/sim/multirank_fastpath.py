"""Rank-axis vectorized replay for multi-rank two-stream schedules.

:mod:`repro.sim.fastpath` replays a *single* representative rank's
static schedule in closed form.  This module extends the idea along a
second axis: a :class:`MultiRankTimeline` records the per-rank two-
stream schedule of ``world`` workers plus their rendezvous collectives
into ``(n_slots, world)`` duration/gate matrices, and replays them with
the same closed-form recurrences the event kernel would compute — per
stream a prefix sum along the job axis, per collective a ``max``
reduction across the rank axis.

One *slot* is the unit of recording: a single scheduler submission
fanned out to all ranks.  Two slot kinds exist:

- **per-rank jobs** carry a ``(world,)`` duration vector (each rank's
  own compute time); rank ``r`` obeys the usual stream recurrence
  ``start[r] = max(prev_end[r], gate[r])``, ``end[r] = start[r] + d[r]``.
- **collectives** carry one scalar duration and rendezvous: every rank
  arrives at ``max(prev_end[r], gate[r])``, the collective starts at the
  *last* arrival (a ``max`` over the rank axis, no arithmetic — exactly
  when the event kernel's rendezvous fires), and every rank ends at
  ``start + duration`` (one float add, broadcast back).

Within one stream group, maximal runs of gateless per-rank slots
telescope to a prefix sum evaluated as ``np.cumsum(axis=1)`` seeded
with the per-rank base times — a strict left fold per row, matching the
float association of the kernel's sequential ``end += d`` (the same
discipline :class:`~repro.sim.fastpath.FastTimeline` uses).  Gates
always reference earlier-submitted slots, so processing slots in
submission order resolves every dependency; a gate on an earlier slot
of the *same* stream group is subsumed by stream order, elementwise in
rank space, and is skipped.  Because the replay performs the same float
operations in the same order as the event kernel, per-rank timestamps
agree bit-for-bit and exported Chrome traces are byte-identical —
pinned by the differential suite in
``tests/sim/test_multirank_fastpath.py``.

Timing faults ride along without abandoning the vectorized path: a
per-rank slot may carry a :class:`DeferredRankDurations` (durations
resolved from the per-rank start times once known) and a collective a
:class:`~repro.sim.fastpath.DeferredDuration` (resolved at the global
rendezvous start).  Deferred slots break the cumsum batching at that
slot but everything around them stays vectorized.

Anything else — generator bodies, dynamic events — raises
:class:`~repro.sim.fastpath.FastPathUnsupported` so the caller
(:func:`repro.schedulers.multirank.simulate_heterogeneous`) can fall
back to the event-kernel engine.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

import numpy as np

from repro.sim.fastpath import DeferredDuration, FastPathUnsupported
from repro.sim.trace import Span

__all__ = [
    "DeferredRankDurations",
    "MultiRankGate",
    "MultiRankJobSet",
    "MultiRankStream",
    "MultiRankSimShim",
    "MultiRankTimeline",
]


class DeferredRankDurations:
    """Per-rank durations resolved at replay from the per-rank starts.

    The multi-rank counterpart of
    :class:`~repro.sim.fastpath.DeferredDuration`: implementations
    (e.g. the timing-fault injector's straggler pricer) receive the
    slot's ``(world,)`` start-time vector and return the ``(world,)``
    duration vector, performing the same float operations the event
    kernel's start-time callables would.
    """

    __slots__ = ()

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MultiRankGate:
    """A static gate: slot indices whose per-rank ends must all have passed."""

    __slots__ = ("slot_ids",)

    def __init__(self, slot_ids: tuple[int, ...]):
        self.slot_ids = slot_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MultiRankGate slots={self.slot_ids}>"


class MultiRankJobSet:
    """One recorded slot: the same submission on every rank's stream.

    ``starts`` / ``ends`` read the replay's ``(world,)`` result rows and
    are ``None`` before :meth:`MultiRankTimeline.replay`.  ``metadata``
    is one dict *shared by all ranks* — scheduler-side mutations (flow
    ids, fusion attribution) apply to every rank's span at once.
    """

    __slots__ = ("_timeline", "index", "name", "category", "metadata", "done")

    def __init__(self, timeline: "MultiRankTimeline", index: int, name: str,
                 category: str, metadata: dict):
        self._timeline = timeline
        self.index = index
        self.name = name
        self.category = category
        self.metadata = metadata
        self.done = MultiRankGate((index,))

    @property
    def starts(self) -> Optional[np.ndarray]:
        starts = self._timeline._starts
        return None if starts is None else starts[self.index]

    @property
    def ends(self) -> Optional[np.ndarray]:
        ends = self._timeline._ends
        return None if ends is None else ends[self.index]

    def rank_start(self, rank: int) -> float:
        starts = self.starts
        if starts is None:
            raise RuntimeError(f"slot {self.name!r} has not been replayed yet")
        return float(starts[rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MultiRankJobSet {self.name!r} cat={self.category!r}>"


class MultiRankStream:
    """One stream *group*: the rank-r instances of one in-order stream."""

    __slots__ = ("_timeline", "stream_id", "name", "actors", "jobs_submitted")

    def __init__(self, timeline: "MultiRankTimeline", stream_id: int,
                 name: str):
        self._timeline = timeline
        self.stream_id = stream_id
        self.name = name
        self.actors = [
            f"rank{rank}.{name}" for rank in range(timeline.world)
        ]
        #: slots recorded on this group (each fans out to ``world`` jobs).
        self.jobs_submitted = 0

    def _check_gate(self, gate) -> Optional[MultiRankGate]:
        if gate is not None and not isinstance(gate, MultiRankGate):
            raise FastPathUnsupported(
                f"multi-rank fast path requires static slot gates, "
                f"got {type(gate).__name__}",
                reason="dynamic_gate",
            )
        return gate

    def submit(
        self,
        body: Any,
        name: str = "task",
        category: str = "compute",
        gate: Optional[MultiRankGate] = None,
        metadata: Optional[dict] = None,
    ) -> MultiRankJobSet:
        """Record one per-rank slot from a ``(world,)`` duration vector
        (or a :class:`DeferredRankDurations` priced at replay)."""
        if isinstance(body, DeferredRankDurations):
            durations: Any = body
        else:
            if not isinstance(body, np.ndarray):
                raise FastPathUnsupported(
                    f"multi-rank fast path requires per-rank duration "
                    f"vectors, got {type(body).__name__}",
                    reason="dynamic_duration",
                )
            if body.shape != (self._timeline.world,):
                raise ValueError(
                    f"slot {name!r}: expected {self._timeline.world} "
                    f"durations, got shape {body.shape}"
                )
            if np.any(body < 0):
                raise ValueError(f"slot {name!r} has negative durations")
            durations = body.astype(float, copy=False)
        self.jobs_submitted += 1
        return self._timeline._record(
            self, durations, False, name, category, self._check_gate(gate),
            metadata or {},
        )

    def submit_collective(
        self,
        body: Any,
        name: str = "collective",
        category: str = "comm.ar",
        gate: Optional[MultiRankGate] = None,
        metadata: Optional[dict] = None,
    ) -> MultiRankJobSet:
        """Record one rendezvous collective slot (scalar duration shared
        by all ranks, or a :class:`DeferredDuration` priced at the
        rendezvous start)."""
        if isinstance(body, DeferredDuration):
            duration: Any = body
        else:
            if isinstance(body, bool) or not isinstance(body, (int, float)):
                raise FastPathUnsupported(
                    f"multi-rank fast path requires fixed collective "
                    f"durations, got {type(body).__name__}",
                    reason="dynamic_duration",
                )
            if body < 0:
                raise ValueError(f"collective {name!r} has negative duration {body}")
            duration = float(body)
        self.jobs_submitted += 1
        return self._timeline._record(
            self, duration, True, name, category, self._check_gate(gate),
            metadata or {},
        )


class MultiRankSimShim:
    """The slice of the simulator API a static multi-rank schedule may use."""

    __slots__ = ("_timeline",)

    def __init__(self, timeline: "MultiRankTimeline"):
        self._timeline = timeline

    def all_of(self, events: Iterable[Any], name: str = "all_of") -> MultiRankGate:
        """Combine gates: all referenced slots must have ended, per rank."""
        slot_ids: list[int] = []
        for event in events:
            if not isinstance(event, MultiRankGate):
                raise FastPathUnsupported(
                    f"multi-rank fast path cannot wait on {type(event).__name__}",
                    reason="dynamic_gate",
                )
            slot_ids.extend(event.slot_ids)
        return MultiRankGate(tuple(slot_ids))

    def _unsupported(self, feature: str):
        raise FastPathUnsupported(
            f"multi-rank fast path does not support {feature}",
            reason="dynamic_event",
        )

    def event(self, name: str = ""):
        self._unsupported("dynamic events (sim.event)")

    def timeout(self, delay: float, value: Any = None, name: str = "timeout"):
        self._unsupported("timeouts (sim.timeout)")

    def process(self, generator, name: str = ""):
        self._unsupported("processes (sim.process)")

    def any_of(self, events, name: str = "any_of"):
        self._unsupported("any_of combinators")

    def schedule(self, delay: float, callback):
        self._unsupported("raw callbacks (sim.schedule)")

    @property
    def now(self) -> float:
        return self._timeline.final_time


class MultiRankTimeline:
    """Slot recorder plus the rank-axis vectorized replay."""

    __slots__ = ("world", "sim", "_streams", "_slot_streams", "_durations",
                 "_collective", "_gates", "_handles", "_starts", "_ends",
                 "final_time")

    def __init__(self, world: int):
        if world < 1:
            raise ValueError(f"world size must be >= 1, got {world}")
        self.world = world
        self.sim = MultiRankSimShim(self)
        self._streams: list[MultiRankStream] = []
        self._slot_streams: list[int] = []
        #: per slot: (world,) ndarray | DeferredRankDurations for per-rank
        #: slots, float | DeferredDuration for collectives.
        self._durations: list[Any] = []
        self._collective: list[bool] = []
        self._gates: list[Optional[tuple[int, ...]]] = []
        self._handles: list[MultiRankJobSet] = []
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self.final_time = 0.0

    def stream(self, name: str) -> MultiRankStream:
        """Create a new stream group (``rank<r>.<name>`` for every rank)."""
        stream = MultiRankStream(self, len(self._streams), name)
        self._streams.append(stream)
        return stream

    @property
    def slots_recorded(self) -> int:
        return len(self._handles)

    @property
    def jobs_recorded(self) -> int:
        """Total per-rank jobs the event kernel would have executed."""
        return len(self._handles) * self.world

    def _record(self, stream: MultiRankStream, durations: Any,
                collective: bool, name: str, category: str,
                gate: Optional[MultiRankGate],
                metadata: dict) -> MultiRankJobSet:
        index = len(self._handles)
        handle = MultiRankJobSet(self, index, name, category, metadata)
        self._slot_streams.append(stream.stream_id)
        self._durations.append(durations)
        self._collective.append(collective)
        self._gates.append(gate.slot_ids if gate is not None else None)
        self._handles.append(handle)
        return handle

    def replay(self, tracer=None) -> float:
        """Compute every slot's per-rank starts/ends; returns final time.

        Optionally records every positive-duration per-rank span into
        ``tracer`` — the same spans the event kernel's per-rank streams
        would have recorded (a collective's rank-r span runs from that
        rank's *arrival* to the shared end).
        """
        n = len(self._handles)
        world = self.world
        starts = np.zeros((n, world))
        ends = np.zeros((n, world))
        if n:
            slot_streams = self._slot_streams
            durations = self._durations
            collective = self._collective
            gates = self._gates
            prev = [np.zeros(world) for _ in self._streams]
            i = 0
            while i < n:
                sid = slot_streams[i]
                j = i + 1
                while j < n and slot_streams[j] == sid:
                    j += 1
                base = prev[sid]
                k = i
                while k < j:
                    g = k
                    while (g < j and gates[g] is None and not collective[g]
                           and type(durations[g]) is np.ndarray):
                        g += 1
                    if g > k:
                        # Gateless per-rank run: seeded row-wise cumsum,
                        # a strict left fold per rank — the same float
                        # association as the kernel's sequential adds.
                        chain = np.empty((world, g - k + 1))
                        chain[:, 0] = base
                        chain[:, 1:] = np.stack(durations[k:g], axis=1)
                        seg = np.cumsum(chain, axis=1)
                        starts[k:g] = seg[:, :-1].T
                        ends[k:g] = seg[:, 1:].T
                        base = ends[g - 1]
                        k = g
                    if k < j:
                        gate_ids = gates[k]
                        arrive = base
                        if gate_ids is not None:
                            # A gate on an earlier slot of this segment
                            # (>= i) is same-stream: subsumed by order,
                            # elementwise in rank space.
                            for gid in gate_ids:
                                if gid < i:
                                    arrive = np.maximum(arrive, ends[gid])
                        dur = durations[k]
                        if collective[k]:
                            # Rendezvous: start at the last arrival (a
                            # max across ranks, no arithmetic), end
                            # broadcast back after one float add.
                            start_time = float(arrive.max())
                            if not isinstance(dur, float):
                                dur = dur.resolve(start_time)
                                self._durations[k] = dur
                            starts[k] = arrive
                            ends[k] = start_time + dur
                        else:
                            if arrive is base:
                                arrive = base.copy()
                            if type(dur) is not np.ndarray:
                                dur = dur.resolve(arrive)
                                self._durations[k] = dur
                            starts[k] = arrive
                            ends[k] = arrive + dur
                        base = ends[k]
                        k += 1
                prev[sid] = base
                i = j
        self._starts = starts
        self._ends = ends
        self.final_time = float(ends.max()) if n else 0.0
        if tracer is not None:
            self.emit_spans(tracer)
        return self.final_time

    def emit_spans(self, tracer) -> None:
        """Record every positive-duration per-rank span into ``tracer``.

        Requires a prior :meth:`replay` (or a batched replay that wrote
        the result matrices back — see :mod:`repro.sim.batched`).
        """
        if self._starts is None or self._ends is None:
            raise RuntimeError("emit_spans requires a completed replay")
        starts = self._starts
        ends = self._ends
        world = self.world
        spans = tracer.spans
        streams = self._streams
        slot_streams = self._slot_streams
        for index, handle in enumerate(self._handles):
            actors = streams[slot_streams[index]].actors
            row_starts = starts[index].tolist()
            row_ends = ends[index].tolist()
            name = handle.name
            category = handle.category
            metadata = handle.metadata
            for rank in range(world):
                start = row_starts[rank]
                end = row_ends[rank]
                if end > start:
                    spans.append(Span(
                        name, category, actors[rank], start, end, metadata,
                    ))

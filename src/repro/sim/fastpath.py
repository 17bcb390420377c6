"""Vectorized replay of recorded static two-stream schedules.

The event-driven kernel (:mod:`repro.sim.engine`) is fully general:
processes, dynamic events, priority engines.  But every scheduler
policy submits its *entire* schedule up front as jobs on strictly
in-order streams, where each job's only dependencies are (a) its stream
predecessor and (b) an optional static gate over earlier jobs.
ByteScheduler's priority engine is the one dynamic part, and it records
as a static dispatch order that the replay then confirms
(:mod:`repro.schedulers.bytescheduler`).  For that shape the timeline is
a closed-form recurrence, not a simulation:

    start[i] = max(end[prev on stream], gate[i])
    end[i]   = start[i] + duration[i]

This module records such schedules symbolically (no events, no
generators, no heap) into a :class:`Timeline` and replays them with
:func:`replay`.  One recording unit is a *slot*: a single scheduler
submission fanned out to the timeline's ``world`` ranks.  A per-rank
slot carries one duration per rank and rank ``r`` follows the
recurrence above on its own; a *collective* slot carries one duration
and rendezvouses: every rank arrives at ``max(prev_end[r], gate[r])``,
the collective starts at the *last* arrival (a ``max`` across ranks, no
arithmetic — exactly when the event kernel's rendezvous fires) and
every rank ends at ``start + duration``.  A single-rank run is
``world=1``: it records plain floats and a collective is an ordinary
job.

Ranks are replayed as *lanes*.  A timeline built with ``rank_lanes``
maps each rank to a lane, and ranks that share a lane are promised to
have equal durations in every per-rank slot (a rank class: equal
compute profiles).  By induction over slots such ranks have equal
gates and arrivals, hence equal starts and ends, and a rendezvous — a
``max`` over ranks — is the same ``max`` over lanes.  So a per-rank slot
records one duration per *lane*, the replay runs at lane width, and the
``(slots, lanes)`` results are expanded to ranks through the index only
where a per-rank value is read (:class:`JobSet` timestamps, spans).
Rank 0 is always lane 0, so rank-0 reads (measurement, first-FF starts)
take column 0 as they are.  Without ``rank_lanes`` every rank is its own
lane: the per-rank replay is the case where every rank is its own class.

:func:`replay` takes a group of structurally identical recordings —
same stream layout, same gate graph, different durations (a policy
sweep over models, clusters, fusion plans or fault scenarios) — and
replays them together along a third axis, *configs*.  Within one
*segment* (a maximal run of consecutively submitted same-stream
slots), gateless per-rank runs telescope to a prefix sum evaluated with
``np.cumsum`` seeded with the run's base time: a strict left fold per
(config, rank) lane, so the float association matches the kernel's
sequential ``end += d``.  Gated and collective slots take
``max(prev_end, gate_end) + duration`` one slot at a time, and so do
deferred one-rank and collective slots.  Deferred per-lane slots are
resolved as *chains*: from a slot, gated or not, through the gate-free
deferred per-lane slots that follow it in the segment, one
:meth:`DeferredRankDurations.resolve_chain` call per config, then one
seeded cumsum (a slot alone is a chain of one row).  Gates
always point at earlier-submitted slots, so processing slots in
submission order resolves every dependency; a gate on an earlier slot
of the *same* segment is subsumed by stream order and is skipped.  Any
recordable schedule is therefore deadlock-free by construction (the
dependency graph only has back-edges), matching the event kernel,
which completes the same schedules.

Two loops implement the recurrence, chosen by the size of the replay
(``configs x world``), never by an option: one config of one rank runs
one pass over Python floats, slot by slot, anything larger one numpy
loop over ``(slots, configs, lanes)`` tensors.  Python's ``end += d``
is the same left fold as a seeded cumsum, so both perform the same IEEE
operations in the same order and agree bit for bit (pinned in
``tests/sim/test_fastpath.py``); the float loop exists because at one
lane it is several times faster than numpy's per-call overhead allows.

Because every replay performs *the same float operations in the same
order* as the event kernel, timestamps are bit-identical and exported
Chrome traces byte-for-byte equal — pinned by the differential suites
(``tests/sim/test_fastpath.py``, ``tests/sim/test_multirank_fastpath.py``,
``tests/sim/test_batched.py``) and by ``tests/sim/replay_golden.json``.

A timeline owns its streams, slot handles and simulator shim, and they
refer back to it only weakly, so a recording has no reference cycle:
dropping the context that holds it frees it at once, without waiting
for the cycle collector.  A handle read after its timeline is gone
raises ``RuntimeError``.

A scheduler's FF and BP passes are recorded whole:
:meth:`Stream.submit_chain` appends a pass's slots with one list
``extend`` per column and returns a :class:`Chain`, whose
:class:`JobSet` handles are built only when a policy indexes the pass
or spans are emitted.  A gate is stored per slot as *backward
distances* (``slot - gate slot``), and :meth:`SimShim.all_of` keeps
only the latest slot of each stream, which is exact: along an in-order
stream every lane's ends never decrease (``start >= prev_end`` and
``end = start + d`` with ``d >= 0``, and IEEE addition of a
non-negative number never decreases its operand), and ``max`` adds no
rounding, so the dropped slots cannot raise any gate.  A replay
therefore rejects a duration that is not ``>= 0`` (a negative one, or
NaN): a fixed one at submit, as the event kernel's streams do, and a
deferred one when it resolves.

A policy's collectives of one kind are recorded the same way, as a
:class:`Run` (:meth:`Stream.submit_collectives`; a single collective is
a run of one), and a :class:`GateColumn` gates on positions of an
earlier chain or run that the fusion plan fixes.

A periodic recording need not be made slot by slot: :meth:`Timeline.tile`
appends copies of its last block — one iteration — and since gates are
distances, a copy's gates are the block's, repeated by one list
multiplication; a scheduler records two iterations and the timeline
extends itself to the rest
(:meth:`repro.schedulers.engine.FastIterationContext.record`), traced
and faulted runs too: copies renew their deferred bodies and are
labelled at emission (:func:`_advance`).  The replay runs every slot.

Durations need not be known at record time: a slot may carry a
:class:`~repro.sim.resources.DeferredDuration` (one duration, priced
from a start time — the same object the event kernel's streams resolve
at job start) or, per lane, a :class:`DeferredRankDurations` (priced
from the lanes' start vector).  They are resolved during replay once
the start is known; that is how timing faults
(:mod:`repro.faults.timing`) ride the fast path.  A one-rank or
collective deferred slot breaks the cumsum batching at that slot; a
chain of per-lane ones is priced in one pass, whose pricer may solve
for every start of the chain at once, and is then replayed like a
gateless run.  The ``sim.replay.deferred_slots`` counter shows how many
deferred slots each way resolved.  Anything genuinely dynamic —
process bodies, ``sim.event()``, raw callbacks — raises
:class:`FastPathUnsupported`; such a schedule runs only on the event
kernel, which a run takes with ``fastpath=False``
(:meth:`repro.schedulers.base.Scheduler.run`,
:func:`repro.schedulers.multirank.simulate_heterogeneous`).
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.sim.resources import DeferredDuration
from repro.sim.trace import Span, category_code
from repro.telemetry.registry import default_registry

__all__ = [
    "BatchMismatch",
    "Chain",
    "DeferredDuration",
    "DeferredRankDurations",
    "FastPathUnsupported",
    "Gate",
    "GateColumn",
    "JobSet",
    "Run",
    "SimShim",
    "Stream",
    "Timeline",
    "replay",
]

#: Body types fixed at record time; any other is deferred.
_PLAIN = {float, np.ndarray}


class FastPathUnsupported(RuntimeError):
    """The schedule uses a feature only the event-driven kernel has.

    Such a schedule runs only with ``fastpath=False``; nothing falls
    back to the event kernel on its own.
    """


class BatchMismatch(ValueError):
    """The timelines in one replay are not structurally identical."""


class DeferredRankDurations:
    """Per-lane durations resolved at replay from the per-lane starts.

    Implementations (e.g. the timing-fault injector's straggler pricer)
    receive the slot's ``(lanes,)`` start-time vector and return the
    ``(lanes,)`` duration vector, performing the same float operations
    as one :class:`~repro.sim.resources.DeferredDuration` per rank on
    the event kernel.  Every rank of a lane starts at its lane's start,
    so pricing a lane prices each of its ranks.

    The replay resolves them through :meth:`resolve_chain`, a run of
    consecutive gate-free slots at a time.
    """

    __slots__ = ()

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def renew(self) -> "DeferredRankDurations":
        """As :meth:`~repro.sim.resources.DeferredDuration.renew`."""
        return self

    @classmethod
    def resolve_chain(cls, bodies: list, start: np.ndarray) -> list:
        """Resolve a chain: slot ``r + 1`` of ``bodies`` starts when slot
        ``r`` ends, and the first starts at ``start``.  Returns one
        ``(lanes,)`` duration vector per body.  The replay calls it on
        the first body's class; this default resolves row by row, with
        the replay's own addition for each next start."""
        rows = []
        for body in bodies:
            row = body.resolve(start)
            rows.append(row)
            start = start + row
        return rows


class Gate:
    """A static gate: the slots whose per-rank ends must all have passed.

    Plays the role of an :class:`~repro.sim.engine.Event` (a job's
    ``done``, or an ``all_of`` combination) in recorded schedules.
    ``slot_ids`` holds at most one slot per stream, the latest
    (:meth:`SimShim.all_of`).
    """

    __slots__ = ("slot_ids",)

    def __init__(self, slot_ids: tuple[int, ...]):
        self.slot_ids = slot_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gate slots={self.slot_ids}>"


class GateColumn:
    """One optional gate per slot, on positions of an earlier chain or
    run: entry ``i`` waits for slot ``base + positions[i]`` (``None``:
    no gate).  The recorder stores it as distances in one pass; it
    indexes and slices like the list of :class:`Gate` it stands for."""

    __slots__ = ("base", "positions")

    def __init__(self, base: int, positions: Sequence[Optional[int]]):
        self.base = base
        self.positions = positions

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GateColumn(self.base, self.positions[index])
        position = self.positions[index]
        return None if position is None else Gate((self.base + position,))


class JobSet:
    """One recorded slot: the same submission on every rank's stream.

    Timestamps read the replay's ``(slots, lanes)`` result arrays —
    ``starts``/``ends`` expanded to ``(world,)`` through the timeline's
    rank-to-lane index — and
    are ``None`` before the slot's timeline has been replayed, mirroring
    the unset timestamps of a job the event kernel has not executed.
    The handle refers to its timeline weakly; reading a timestamp after
    the timeline has been freed raises ``RuntimeError``.
    ``metadata`` is one dict *shared by all ranks* — scheduler-side
    mutations (flow ids, fusion attribution) apply to every rank's span
    at once.
    """

    __slots__ = ("_timeline", "index", "name", "category", "metadata", "done")

    def __init__(self, timeline: "weakref.ref[Timeline]", index: int,
                 name: str, category: str, metadata: dict):
        self._timeline = timeline
        self.index = index
        self.name = name
        self.category = category
        self.metadata = metadata
        self.done = Gate((index,))

    @property
    def start(self) -> Optional[float]:
        """Rank 0's start (the job's start on a one-rank timeline)."""
        starts = _alive(self._timeline, "slot", self.name)._starts
        return None if starts is None else float(starts[self.index, 0])

    @property
    def end(self) -> Optional[float]:
        """Rank 0's end (the job's end on a one-rank timeline)."""
        ends = _alive(self._timeline, "slot", self.name)._ends
        return None if ends is None else float(ends[self.index, 0])

    @property
    def starts(self) -> Optional[np.ndarray]:
        """Every rank's start, ``(world,)``."""
        timeline = _alive(self._timeline, "slot", self.name)
        return timeline._per_rank(timeline._starts, self.index)

    @property
    def ends(self) -> Optional[np.ndarray]:
        """Every rank's end, ``(world,)``."""
        timeline = _alive(self._timeline, "slot", self.name)
        return timeline._per_rank(timeline._ends, self.index)

    def rank_start(self, rank: int) -> float:
        starts = self.starts
        if starts is None:
            raise RuntimeError(f"slot {self.name!r} has not been replayed yet")
        return float(starts[rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobSet {self.name!r} cat={self.category!r}>"


class Stream:
    """One in-order stream *group*: its instance on every rank.

    Refers to its timeline weakly, like :class:`JobSet`.
    """

    __slots__ = ("_timeline", "stream_id", "name", "_actor", "_actors",
                 "jobs_submitted")

    def __init__(self, timeline: "weakref.ref[Timeline]", stream_id: int,
                 name: str, actor: str):
        self._timeline = timeline
        self.stream_id = stream_id
        self.name = name
        self._actor = actor
        self._actors: Optional[list[str]] = None
        #: slots recorded on this stream (each fans out to ``world`` jobs).
        self.jobs_submitted = 0

    @property
    def actors(self) -> list[str]:
        """Trace track of each rank's instance of this stream.

        Built on first read: only span emission reads it, so an
        untraced recording formats no per-rank track names.
        """
        if self._actors is None:
            world = _alive(self._timeline, "stream", self.name).world
            self._actors = (
                [self._actor] if self._actor
                else [f"rank{rank}.{self.name}" for rank in range(world)]
            )
        return self._actors

    def submit(
        self,
        body: Any,
        name: str = "task",
        category: str = "compute",
        gate: Optional[Gate] = None,
        metadata: Optional[dict] = None,
    ) -> JobSet:
        """Record one per-rank slot; mirrors ``Stream.submit``.

        On a one-rank timeline ``body`` is a fixed duration or a
        :class:`DeferredDuration`; otherwise a ``(lanes,)`` duration
        vector (one duration per rank without ``rank_lanes``) or a
        :class:`DeferredRankDurations`.
        """
        timeline = _alive(self._timeline, "stream", self.name)
        if timeline.world == 1:
            # A plain non-negative float (nearly every slot) needs no
            # further checks.
            durations = (
                body if type(body) is float and body >= 0
                else _scalar_duration(body, name)
            )
        elif isinstance(body, DeferredRankDurations):
            durations = body
        else:
            durations = _lane_durations(body, timeline.lanes, name)
        return timeline._record(self, durations, name, category, gate, metadata)

    def submit_collective(
        self,
        body: Any,
        name: str = "collective",
        category: str = "comm.ar",
        gate: Optional[Gate] = None,
        metadata: Optional[dict] = None,
    ) -> JobSet:
        """Record one rendezvous collective slot: a fixed duration shared
        by all ranks, or a :class:`DeferredDuration` priced at the
        rendezvous start.  On one rank a collective is an ordinary job.
        A run of one (:meth:`submit_collectives`)."""
        return self.submit_collectives(
            (body,), None if gate is None else (gate,), category,
            lambda position: (name, metadata or {}),
        )[0]

    def submit_chain(
        self,
        durations: Sequence[Any],
        gates: Optional[Sequence[Optional[Gate]]],
        category: str,
        label: tuple[str, int, range],
        flows: bool = False,
    ) -> "Chain":
        """Record one pass as a chain of per-rank slots; returns its
        :class:`Chain`.

        ``durations`` holds one body per slot, in submission order, of
        the kinds :meth:`submit` takes; ``gates`` is ``None`` or one
        optional gate per slot.  ``label`` is ``(kind, iteration,
        layers)``: slot ``p`` is layer ``layers[p]``'s job, named
        ``"{kind}.{iteration}.{layer}"`` with the category and the
        ``{"iteration", "layer"}`` metadata a single :meth:`submit` of it
        would carry.  ``flows`` says whether :meth:`Chain.add_flows`
        keeps the flow ids it is given (only spans read them).
        """
        return _alive(self._timeline, "stream", self.name)._record_chain(
            self, durations, gates, category, label, flows
        )

    def submit_collectives(self, durations: Sequence[Any], gates,
                           category: str, describe) -> "Run":
        """Record a run of collective slots, ``durations`` and ``gates``
        as for :meth:`submit_chain`; returns its :class:`Run`.
        ``describe(position)`` gives a slot's ``(name, metadata)``."""
        return _alive(self._timeline, "stream", self.name)._record_run(
            self, durations, gates, category, describe
        )


def _alive(ref: "weakref.ref[Timeline]", kind: str, name: str) -> "Timeline":
    """The timeline behind ``ref``; raises naming the reader if it is gone."""
    timeline = ref()
    if timeline is None:
        raise RuntimeError(f"{kind} {name!r}: its timeline has been freed")
    return timeline


class Chain:
    """One FF or BP pass recorded by :meth:`Stream.submit_chain`.

    A sequence of layer jobs indexed by layer: ``chain[layer]`` is that
    layer's :class:`JobSet`, built on first use (as are all of them
    when spans are emitted).  Policies gate on a pass with
    :meth:`done_of` and attach flow ids with :meth:`add_flows`, neither
    of which builds a handle on an untraced run.  Refers to its
    timeline weakly, like :class:`JobSet`.
    """

    __slots__ = ("_timeline", "start", "category", "label", "_flows")

    def __init__(self, timeline: "weakref.ref[Timeline]", start: int,
                 category: str, label: tuple[str, int, range], flows: bool):
        self._timeline = timeline
        #: the chain's first slot.
        self.start = start
        self.category = category
        #: ``(kind, iteration, layers)``, ``layers`` in slot order.
        self.label = label
        self._flows = flows

    def __len__(self) -> int:
        return len(self.label[2])

    def __iter__(self):
        """The jobs in layer order, like a list indexed by layer."""
        return (self[layer] for layer in range(len(self)))

    def __getitem__(self, layer: int) -> JobSet:
        return self._handle(self.label[2].index(layer))

    def _handle(self, position: int) -> JobSet:
        slot = self.start + position
        handles = _alive(self._timeline, "chain", self.category)._handles
        handle = handles[slot]
        if handle is None:
            name, metadata = self._describe(position)
            handle = handles[slot] = JobSet(
                self._timeline, slot, name, self.category, metadata
            )
        return handle

    def _describe(self, position: int) -> tuple[str, dict]:
        kind, iteration, layers = self.label
        layer = layers[position]
        return f"{kind}.{iteration}.{layer}", {"iteration": iteration, "layer": layer}

    def done_of(self, layers: Iterable[int]) -> Gate:
        """The gate on these layers' jobs: the latest of their slots."""
        return Gate((self.start + max(map(self.label[2].index, layers)),))

    @property
    def done(self) -> Gate:
        """The gate on every job: the last slot."""
        return Gate((self.start + len(self) - 1,))

    def add_flows(self, layers: Iterable[int], flow: str) -> None:
        """Append ``flow`` to these layers' ``flows`` span metadata
        (a no-op unless the chain was recorded with ``flows``)."""
        if self._flows:
            for layer in layers:
                self[layer].metadata.setdefault("flows", []).append(flow)

    def _build_handles(self) -> None:
        handles = _alive(self._timeline, "chain", self.category)._handles
        for position in range(len(self)):
            if handles[self.start + position] is None:
                self._handle(position)


class Run(Chain):
    """A run of collectives recorded by :meth:`Stream.submit_collectives`:
    a chain indexed by position, whose slot ``p`` is named and labelled
    by ``describe(p)``."""

    __slots__ = ("describe",)

    def __init__(self, timeline: "weakref.ref[Timeline]", start: int,
                 count: int, category: str, describe):
        super().__init__(timeline, start, category, ("", 0, range(count)), False)
        self.describe = describe

    def _describe(self, position: int) -> tuple[str, dict]:
        return self.describe(position)


def _distances(slot: int, gate: Optional[Gate]) -> Optional[tuple[int, ...]]:
    """Slot ``slot``'s gate as stored: backward distances to its slots."""
    if gate is None:
        return None
    if not isinstance(gate, Gate):
        raise FastPathUnsupported(
            f"fast path requires static job gates, got {type(gate).__name__}"
        )
    return tuple([slot - gid for gid in gate.slot_ids])


def _gate_distances(index: int, gates, count: int) -> list:
    """The stored gates of ``count`` slots from ``index`` on."""
    if gates is None:
        return [None] * count
    if len(gates) != count:
        raise ValueError(f"{count} slots need as many gates, got {len(gates)}")
    if type(gates) is GateColumn:
        base = gates.base
        return [None if position is None else (slot - base - position,)
                for slot, position in enumerate(gates.positions, index)]
    return [_distances(slot, gate) for slot, gate in enumerate(gates, index)]


def _scalar_bodies(durations: Sequence[Any], chain: Chain) -> list:
    """One-rank or collective bodies, checked as :meth:`Stream.submit`
    checks one: floats that are ``>= 0`` pass in one test for the whole
    chain (``sum`` catches a NaN that ``min`` skips), anything else slot
    by slot."""
    if (set(map(type, durations)) == {float}
            and min(durations) >= 0 and sum(durations) >= 0):
        return list(durations)
    return [_scalar_duration(body, chain._describe(position)[0])
            for position, body in enumerate(durations)]


def _lane_durations(body: Any, lanes: int, name: str) -> np.ndarray:
    """One multi-rank slot's plain ``(lanes,)`` duration vector, checked."""
    if not isinstance(body, np.ndarray):
        raise FastPathUnsupported(
            f"multi-rank fast path requires per-rank duration "
            f"vectors, got {type(body).__name__}"
        )
    if body.shape != (lanes,):
        raise ValueError(
            f"slot {name!r}: expected {lanes} durations, got shape "
            f"{body.shape}"
        )
    if not (body >= 0).all():
        raise ValueError(f"slot {name!r} has negative or NaN durations: {body}")
    return body.astype(float, copy=False)


def _scalar_duration(body: Any, name: str):
    if isinstance(body, DeferredDuration):
        return body
    if isinstance(body, bool) or not isinstance(body, (int, float)):
        raise FastPathUnsupported(
            f"fast path requires fixed job durations, got {type(body).__name__}"
        )
    if not body >= 0:
        raise ValueError(f"job {name!r} has a negative or NaN duration: {body}")
    return float(body)


class SimShim:
    """The slice of the :class:`Simulator` API a static schedule may use.

    ``all_of`` composes gates; everything dynamic raises
    :class:`FastPathUnsupported`.  Refers to its timeline weakly, like
    :class:`JobSet`.
    """

    __slots__ = ("_timeline",)

    def __init__(self, timeline: "weakref.ref[Timeline]"):
        self._timeline = timeline

    def all_of(self, events: Iterable[Any], name: str = "all_of") -> Gate:
        """Combine gates: all referenced slots must have ended, per rank.

        Keeps only the latest slot of each stream.  That is exact: a
        stream's ends never decrease along it on any lane (see the
        module docstring), so the latest slot's end is the ``max`` of
        all of them.
        """
        streams = _alive(self._timeline, "simulator", name)._slot_streams
        latest: dict[int, int] = {}
        for event in events:
            if not isinstance(event, Gate):
                raise FastPathUnsupported(
                    f"fast path cannot wait on {type(event).__name__}"
                )
            for slot in event.slot_ids:
                sid = streams[slot]
                if latest.get(sid, -1) < slot:
                    latest[sid] = slot
        return Gate(tuple(latest.values()))

    def _unsupported(self, feature: str):
        raise FastPathUnsupported(f"fast path does not support {feature}")

    def event(self, name: str = ""):
        self._unsupported("dynamic events (sim.event)")

    def process(self, generator, name: str = ""):
        self._unsupported("processes (sim.process)")

    def schedule(self, delay: float, callback):
        self._unsupported("raw callbacks (sim.schedule)")

    @property
    def now(self) -> float:
        return _alive(self._timeline, "simulator", "now").final_time


class Timeline:
    """Slot recorder for ``world`` ranks; :func:`replay` executes it.

    ``rank_lanes`` is the lane of each rank (see the module docstring):
    ``(world,)`` integers that use every lane ``0..lanes-1`` and put
    rank 0 on lane 0.  ``None`` gives every rank its own lane.  Its
    streams, handles and shim share one weak reference back to it
    (``_ref``), so the recording holds no reference cycle.
    """

    __slots__ = ("world", "lanes", "sim", "_inverse", "_ref", "_streams",
                 "_slot_streams", "_durations", "_collective", "_gates",
                 "_categories", "_codes", "_handles", "_chains", "_deferred", "_block",
                 "_starts", "_ends", "final_time", "__weakref__")

    def __init__(self, world: int = 1, rank_lanes: Optional[np.ndarray] = None):
        if world < 1:
            raise ValueError(f"world size must be >= 1, got {world}")
        self.world = world
        #: rank -> lane index; ``None`` when every rank is its own lane.
        self._inverse: Optional[np.ndarray] = None
        self.lanes = world
        if rank_lanes is not None:
            inverse = np.asarray(rank_lanes, dtype=np.intp)
            if (inverse.shape != (world,) or inverse[0] != 0
                    or inverse.min() < 0):
                raise ValueError(
                    f"rank_lanes must map {world} ranks to lanes, rank 0 "
                    f"to lane 0"
                )
            counts = np.bincount(inverse)
            if not counts.all():
                raise ValueError("rank_lanes must use every lane 0..lanes-1")
            self.lanes = len(counts)
            if not np.array_equal(inverse, np.arange(world)):
                self._inverse = inverse
        self._ref = weakref.ref(self)
        self.sim = SimShim(self._ref)
        self._streams: list[Stream] = []
        self._slot_streams: list[int] = []
        #: per slot: float | DeferredDuration for one-rank and collective
        #: slots, (lanes,) ndarray | DeferredRankDurations otherwise;
        #: deferred entries are replaced by their resolved values during
        #: replay.
        self._durations: list[Any] = []
        #: rendezvous flag per slot (always False on one rank, where a
        #: collective is an ordinary job).
        self._collective: list[bool] = []
        #: per slot: ``None`` or the gate as backward distances, each
        #: ``slot - gate slot`` (so tiled copies share the block's).
        self._gates: list[Optional[tuple[int, ...]]] = []
        self._categories: list[str] = []
        #: each slot's category code, the column measurement reads.
        self._codes: list[int] = []
        #: one entry per slot submitted through a :class:`Stream`, the
        #: slot's handle or, in a chain not yet indexed, ``None``; the
        #: copies :meth:`tile` appends have none.
        self._handles: list[Optional[JobSet]] = []
        #: every chain and run, to build its handles when spans are emitted.
        self._chains: list[Chain] = []
        self._deferred = False
        #: ``(block_start, period)`` once :meth:`tile` has run.
        self._block: Optional[tuple[int, int]] = None
        #: (slots, lanes) results, set by :func:`replay`.
        self._starts: Optional[np.ndarray] = None
        self._ends: Optional[np.ndarray] = None
        self.final_time = 0.0

    def stream(self, name: str, actor: str = "") -> Stream:
        """Create a new in-order stream on every rank.

        Rank ``r`` records on the trace track ``rank<r>.<name>``; a
        one-rank timeline may name its track ``actor`` instead.
        """
        if actor and self.world > 1:
            raise ValueError("only one-rank streams take an explicit actor")
        stream = Stream(self._ref, len(self._streams), name, actor)
        self._streams.append(stream)
        return stream

    @property
    def slots_recorded(self) -> int:
        """Slots in the timeline, tiled copies included."""
        return len(self._slot_streams)

    @property
    def jobs_recorded(self) -> int:
        """Total per-rank jobs the event kernel would have executed."""
        return len(self._slot_streams) * self.world

    def signature(self) -> tuple:
        """Structural identity of the recording.

        Timelines with equal signatures recorded the same rank and lane
        counts, stream sequence, rendezvous flags and static gate graph
        (as backward distances, which are equal exactly when the gate
        ids are), so they replay under the same control flow and may
        share one :func:`replay`.  Durations (including whether a slot is
        deferred) and which ranks share a lane deliberately do not
        participate.
        """
        return (
            self.world,
            self.lanes,
            tuple(self._slot_streams),
            tuple(self._collective),
            tuple(self._gates),
        )

    def stream_busy_times(self) -> list[float]:
        """Total recorded duration per stream id of a one-rank timeline.

        In-order streams never overlap their own jobs, so busy time is
        the plain sum of the recorded (or, after replay, resolved)
        durations — no replay required unless deferred durations were
        recorded.
        """
        busy = np.zeros(len(self._streams))
        if self._durations:
            np.add.at(
                busy,
                np.asarray(self._slot_streams),
                np.asarray(self._durations),
            )
        return busy.tolist()

    def _record(self, stream: Stream, durations: Any, name: str,
                category: str, gate: Optional[Gate],
                metadata: Optional[dict]) -> JobSet:
        index = len(self._slot_streams)
        distances = _distances(index, gate)
        stream.jobs_submitted += 1
        handle = JobSet(self._ref, index, name, category, metadata or {})
        self._slot_streams.append(stream.stream_id)
        self._durations.append(durations)
        self._collective.append(False)
        self._gates.append(distances)
        self._categories.append(category)
        self._codes.append(category_code(category))
        self._handles.append(handle)
        if type(durations) is not float and type(durations) is not np.ndarray:
            self._deferred = True
        return handle

    def _record_chain(self, stream: Stream, durations: Sequence[Any],
                      gates: Optional[Sequence[Optional[Gate]]],
                      category: str, label: tuple[str, int, range],
                      flows: bool) -> Chain:
        kind, iteration, layers = label
        if len(durations) != len(layers):
            raise ValueError(
                f"chain {kind}.{iteration}: {len(layers)} layers need as "
                f"many durations"
            )
        chain = Chain(self._ref, len(self._slot_streams), category, label, flows)
        bodies = (_scalar_bodies(durations, chain) if self.world == 1
                  else self._lane_bodies(durations, chain))
        return self._extend(stream, chain, bodies, gates, False)

    def _record_run(self, stream: Stream, durations: Sequence[Any],
                    gates: Optional[Sequence[Optional[Gate]]],
                    category: str, describe) -> Run:
        run = Run(self._ref, len(self._slot_streams), len(durations),
                  category, describe)
        return self._extend(stream, run, _scalar_bodies(durations, run), gates,
                            self.world > 1)

    def _extend(self, stream: Stream, chain: Chain, bodies: list, gates,
                collective: bool) -> Chain:
        """Append ``chain``'s checked ``bodies`` to ``stream``: one list
        ``extend`` per column."""
        count = len(bodies)
        self._gates.extend(_gate_distances(chain.start, gates, count))
        stream.jobs_submitted += count
        self._slot_streams.extend([stream.stream_id] * count)
        self._durations.extend(bodies)
        self._collective.extend([collective] * count)
        self._categories.extend([chain.category] * count)
        self._codes.extend([category_code(chain.category)] * count)
        self._handles.extend([None] * count)
        if not set(map(type, bodies)) <= _PLAIN:
            self._deferred = True
        self._chains.append(chain)
        return chain

    def _lane_bodies(self, durations: Sequence[Any], chain: Chain) -> list:
        """A multi-rank chain's bodies, checked as :meth:`Stream.submit`
        checks one: ``(lanes,)`` vectors that are ``>= 0`` pass in one
        test for the whole chain, anything else slot by slot."""
        if set(map(type, durations)) == {np.ndarray}:
            stacked = np.asarray(durations)
            if (stacked.shape == (len(durations), self.lanes)
                    and stacked.dtype == float and (stacked >= 0).all()):
                return list(durations)
        return [
            body if isinstance(body, DeferredRankDurations)
            else _lane_durations(body, self.lanes, chain._describe(position)[0])
            for position, body in enumerate(durations)
        ]

    def tile(self, block_start: int, copies: int) -> int:
        """Append ``copies`` copies of the slots from ``block_start`` on.

        The block — one iteration of a periodic schedule — repeats with
        its streams, rendezvous flags, categories, durations (plain
        floats and vectors are shared, deferred bodies renewed copy by
        copy in block order: a full recording's creation order) and
        gates: a gate is stored as backward distances, so a gate into
        the previous block points into the previous copy with no
        shifting.  Copies get no :class:`JobSet`: measurement reads the
        per-slot lists and the replay arrays, and :meth:`emit_spans`
        labels them from the block.  Returns the block length.
        """
        period = len(self._slot_streams) - block_start
        self._block = (block_start, period)
        streams = self._slot_streams[block_start:]
        self._gates.extend(self._gates[block_start:] * copies)
        self._slot_streams.extend(streams * copies)
        self._collective.extend(self._collective[block_start:] * copies)
        self._categories.extend(self._categories[block_start:] * copies)
        self._codes.extend(self._codes[block_start:] * copies)
        block = self._durations[block_start:]
        for _ in range(copies):
            self._durations.extend(block if not self._deferred else [
                body if type(body) in _PLAIN else body.renew() for body in block
            ])
        for stream in self._streams:
            stream.jobs_submitted += streams.count(stream.stream_id) * copies
        return period

    def replay(self, tracer=None) -> float:
        """Replay this timeline alone; returns the final virtual time."""
        return replay([self], [tracer])[0]

    def _per_rank(self, results: Optional[np.ndarray],
                  slot: Optional[int] = None) -> Optional[np.ndarray]:
        """``_starts`` or ``_ends`` expanded from lanes to ranks: one
        slot's ``(world,)`` row, or every slot's ``(slots, world)``."""
        if results is None:
            return None
        if slot is not None:
            results = results[slot]
        return results if self._inverse is None else results[..., self._inverse]

    def job_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank 0's start and end of every slot, and the slot's category
        code, after a replay.

        Read straight from the replay arrays: this is what a run is
        measured from, and no :class:`~repro.sim.trace.Span` is built.
        """
        if self._starts is None or self._ends is None:
            raise RuntimeError("job_columns requires a completed replay")
        return self._starts[:, 0], self._ends[:, 0], np.array(self._codes)

    def emit_spans(self, tracer) -> None:
        """Record every positive-duration per-rank job into ``tracer``.

        The same spans the event kernel's streams would have recorded,
        slot by slot; a collective's rank-r span runs from that rank's
        *arrival* to the shared end; tiled copies get handles here
        (:func:`_advance`).  Only runs that asked for a trace pay for
        this: measurement reads :meth:`job_columns` instead.
        """
        if self._starts is None or self._ends is None:
            raise RuntimeError("emit_spans requires a completed replay")
        for chain in self._chains:
            chain._build_handles()
        handles = self._handles
        if self._block is not None:
            block_start, period = self._block
            handles = handles + [
                _advance(handle, period * copy, copy)
                for copy in range(1, (len(self._slot_streams) - block_start) // period)
                for handle in self._handles[block_start:]
            ]
        append = tracer.spans.append
        actors = [stream.actors for stream in self._streams]
        # Flat slot-major lists: one Python float per (slot, rank) and no
        # per-slot row lists to allocate.
        starts = self._per_rank(self._starts).ravel().tolist()
        ends = self._per_rank(self._ends).ravel().tolist()
        if self.world == 1:
            # One rank: skip the per-slot rank loop, a tenth of the
            # emission time on a solo replay.
            for handle, sid, start, end in zip(
                handles, self._slot_streams, starts, ends
            ):
                if end > start:
                    append(Span(
                        handle.name, handle.category, actors[sid][0], start,
                        end, handle.metadata,
                    ))
            return
        lane = 0
        for handle, sid in zip(handles, self._slot_streams):
            for actor in actors[sid]:
                start = starts[lane]
                end = ends[lane]
                lane += 1
                if end > start:
                    append(Span(
                        handle.name, handle.category, actor, start, end,
                        handle.metadata,
                    ))


def _advance(handle: JobSet, slots: int, by: int) -> JobSet:
    """``handle``'s copy ``slots`` slots on, its name, ``iteration``
    and flow ids ``by`` iterations later (the span-label rule of
    docs/EXTENDING.md; a name that breaks it raises ``ValueError``)."""
    iteration = handle.metadata.get("iteration")
    head, _, rest = handle.name.partition(".")
    number, dot, tail = rest.partition(".")
    if number != str(iteration):
        raise ValueError(f"slot {handle.name!r} does not name its iteration {iteration!r}")

    def later(flow: str) -> str:
        number, dot, label = flow.partition(".")
        return f"{int(number) + by}{dot}{label}"

    metadata = dict(handle.metadata, iteration=iteration + by)
    if "flow" in metadata:
        metadata["flow"] = later(metadata["flow"])
    if "flows" in metadata:
        metadata["flows"] = list(map(later, metadata["flows"]))
    return JobSet(handle._timeline, handle.index + slots,
                  f"{head}.{iteration + by}{dot}{tail}", handle.category, metadata)


def replay(
    timelines: Sequence[Timeline],
    tracers: Optional[Sequence] = None,
) -> list[float]:
    """Replay structurally identical recordings; returns final times.

    Sets each timeline's per-lane start/end arrays and ``final_time``
    (so :class:`JobSet` handles and :meth:`Timeline.job_columns` read
    them), and emits spans into the matching ``tracers`` entry only when
    it is not ``None``.  Raises :class:`BatchMismatch` when the
    :meth:`Timeline.signature` values differ.
    """
    timelines = list(timelines)
    if not timelines:
        return []
    first = timelines[0]
    if len(timelines) > 1:
        signature = first.signature()
        for timeline in timelines[1:]:
            if timeline.signature() != signature:
                raise BatchMismatch(
                    "one replay requires structurally identical recordings; "
                    "group by Timeline.signature() first"
                )
    n = len(first._slot_streams)
    if len(timelines) * first.world == 1:
        starts, ends = _replay_floats(first)
        results = [(starts.reshape(n, 1), ends.reshape(n, 1))]
    else:
        starts, ends = _replay_lanes(timelines)
        results = [
            (np.ascontiguousarray(starts[:, c]), np.ascontiguousarray(ends[:, c]))
            for c in range(len(timelines))
        ]
    finals: list[float] = []
    for c, (timeline, (starts, ends)) in enumerate(zip(timelines, results)):
        timeline._starts = starts
        timeline._ends = ends
        timeline.final_time = float(ends.max()) if n else 0.0
        finals.append(timeline.final_time)
        if tracers is not None and tracers[c] is not None:
            timeline.emit_spans(tracers[c])
    return finals


def _replay_floats(timeline: Timeline) -> tuple[np.ndarray, np.ndarray]:
    """One lane (one config, one rank): one pass over Python floats.

    A slot starts at ``base``, its stream's running end, raised by a
    gate that ends later (strict ``>``: ties keep it, as ``max`` does; a
    gate on the same stream never raises it); a deferred body is priced
    there and written back.  Returns ``(slots,)`` start and end arrays.
    """
    stream_ids = timeline._slot_streams
    durations = timeline._durations
    starts: list[float] = []
    ends: list[float] = []
    prev_end = [0.0] * len(timeline._streams)
    sid = stream_ids[0] if stream_ids else 0
    base = 0.0
    alone = 0
    for stream, backs, duration in zip(stream_ids, timeline._gates, durations):
        if stream != sid:
            prev_end[sid] = base
            sid = stream
            base = prev_end[sid]
        if backs is not None:
            slot = len(ends)
            for back in backs:
                end = ends[slot - back]
                if end > base:
                    base = end
        if type(duration) is not float:
            slot = len(ends)
            duration = float(duration.resolve(base))
            if not duration >= 0:
                raise ValueError(
                    f"slot {slot} resolved a duration that is not >= 0: {duration}"
                )
            durations[slot] = duration
            alone += 1
        starts.append(base)
        base += duration
        ends.append(base)
    if alone:
        _count_deferred(0, alone)
    return np.array(starts), np.array(ends)


def _replay_lanes(timelines: list[Timeline]) -> tuple[np.ndarray, np.ndarray]:
    """Several lanes: one numpy loop over ``(slots, configs, lanes)``.

    Every operation is the float loop's, applied lane-wise: a gateless
    run's seeded cumsum along the slot axis is the same left fold per
    lane, ``np.maximum`` over gate rows is the same pairwise max, a
    rendezvous is a ``max`` over the lane axis, and breaking a run at
    *any* config's deferred slot re-seeds the next chain with exact
    partial sums, which a left fold is insensitive to.  Deferred
    per-lane slots resolve as chains (:func:`_resolve_chain`): from a
    slot, gated or not, through the gate-free deferred slots after it.
    Slot-major layout keeps every per-slot row contiguous.
    """
    first = timelines[0]
    n = len(first._slot_streams)
    world = first.world
    lanes = first.lanes
    configs = len(timelines)
    starts = np.zeros((n, configs, lanes))
    ends = np.zeros((n, configs, lanes))
    if not n:
        return starts, ends
    slot_streams = first._slot_streams
    collective = first._collective
    gates = first._gates
    duration_lists = [timeline._durations for timeline in timelines]
    # A slot is plain when every config recorded its duration(s) at
    # record time: a float where one duration serves all ranks, a
    # (lanes,) vector otherwise.  It chains when every config deferred
    # its per-lane durations.
    deferred = any(timeline._deferred for timeline in timelines)
    col_plain = [True] * n
    col_chain = [False] * n
    if deferred:
        plain_types = [
            float if world == 1 or flag else np.ndarray for flag in collective
        ]
        fixed = [
            [type(body) is kind for body, kind in zip(durations, plain_types)]
            for durations in duration_lists
        ]
        col_plain = [all(flags) for flags in zip(*fixed)]
        if world > 1:
            col_chain = [
                not (flag or any(flags))
                for flag, flags in zip(collective, zip(*fixed))
            ]
    # The common healthy one-rank sweep: one (slots, configs, 1) tensor
    # serves every run slice.
    matrix = (
        np.asarray(duration_lists).T.reshape(n, configs, 1)
        if world == 1 and not deferred else None
    )
    chained = alone = 0
    prev = [np.zeros((configs, lanes)) for _ in first._streams]
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
                   and col_plain[g]):
                g += 1
            if g > k:
                chain = np.empty((g - k + 1, configs, lanes))
                chain[0] = base
                if matrix is not None:
                    chain[1:] = matrix[k:g]
                else:
                    chain[1:] = np.asarray(
                        [d[k:g] for d in duration_lists]
                    ).reshape(configs, g - k, lanes).swapaxes(0, 1)
                seg = np.cumsum(chain, axis=0)
                starts[k:g] = seg[:-1]
                ends[k:g] = seg[1:]
                base = seg[-1]
                k = g
            if k < j:
                arrive = base
                backs = gates[k]
                if backs is not None:
                    for back in backs:
                        gid = k - back
                        if gid < i:
                            arrive = np.maximum(arrive, ends[gid])
                if world > 1 and not collective[k] and not col_plain[k]:
                    # Deferred per-lane durations: one chain from here
                    # through the gate-free deferred slots that follow.
                    g = k + 1
                    if col_chain[k]:
                        while g < j and gates[g] is None and col_chain[g]:
                            g += 1
                    if g - k > 1:
                        chained += g - k
                    else:
                        alone += 1
                    seg = _resolve_chain(duration_lists, k, g, arrive)
                    starts[k:g] = seg[:-1]
                    ends[k:g] = seg[1:]
                    base = seg[-1]
                    k = g
                    continue
                starts[k] = arrive
                if not col_plain[k]:
                    alone += 1
                # Plain durations broadcast as recorded: the one-rank
                # sweep's matrix row, or a solo replay's float or
                # (lanes,) vector.
                dur = (
                    matrix[k] if matrix is not None
                    else duration_lists[0][k] if configs == 1 and col_plain[k]
                    else None
                )
                if collective[k]:
                    # Rendezvous per config: start at that config's
                    # last arrival, end broadcast back after one float
                    # add per config.
                    begin = arrive.max(axis=1, keepdims=True)
                    if dur is None:
                        dur = _column(
                            duration_lists, k, col_plain[k], begin[:, 0]
                        )[:, None]
                    np.add(begin, dur, out=ends[k])
                else:
                    if dur is None:
                        # One rank prices a deferred duration from its
                        # arrival time.
                        dur = _column(
                            duration_lists, k, col_plain[k], arrive[:, 0]
                        ).reshape(configs, lanes)
                    np.add(arrive, dur, out=ends[k])
                base = ends[k]
                k += 1
        prev[sid] = base
        i = j
    if chained or alone:
        _count_deferred(chained, alone)
    return starts, ends


def _resolve_chain(duration_lists, k: int, g: int,
                   arrive: np.ndarray) -> np.ndarray:
    """Resolve deferred per-lane slots ``k..g-1`` as one chain per config.

    Slot ``k`` starts at ``arrive[c]`` in config ``c`` and each later
    slot when the one before it ends.  Each config's bodies resolve
    through the first body's
    :meth:`DeferredRankDurations.resolve_chain`, with its own pricer; a
    slot alone may be plain in some configs, which keep their vectors.
    Resolved values replace the deferred bodies in the recordings.
    Returns the chain's ends seeded with ``arrive``: ``(g - k + 1,
    configs, lanes)``, row ``r`` the start of slot ``k + r``.
    """
    resolved = []
    for c, durations in enumerate(duration_lists):
        bodies = durations[k:g]
        head = bodies[0]
        if type(head) is not np.ndarray:
            bodies = (
                [head.resolve(arrive[c])] if g - k == 1
                else type(head).resolve_chain(bodies, arrive[c])
            )
            durations[k:g] = bodies
        resolved.append(bodies)
    seg = np.empty((g - k + 1,) + arrive.shape)
    seg[0] = arrive
    for c, bodies in enumerate(resolved):
        seg[1:, c] = bodies
    valid = seg[1:] >= 0
    if not valid.all():
        bad = np.flatnonzero(~valid.reshape(g - k, -1).all(axis=1))[0]
        raise ValueError(
            f"slot {k + bad} resolved a duration that is not >= 0"
        )
    return np.cumsum(seg, axis=0, out=seg)


def _count_deferred(chained: int, alone: int) -> None:
    """Count one replay's deferred slots by how they were resolved."""
    counter = default_registry().counter(
        "sim.replay.deferred_slots",
        "deferred slots the replay resolved, in chains or one at a time",
    )
    if chained:
        counter.inc(chained, how="chain")
    if alone:
        counter.inc(alone, how="slot")


def _column(duration_lists, k: int, plain: bool, begins):
    """Slot ``k``'s durations across configs, resolving deferred ones.

    A deferred body here is one :class:`DeferredDuration` (per-lane
    ones resolve as chains), priced from ``begins[c]``: config ``c``'s
    rendezvous start, or its one-rank arrival time.  Resolved values
    replace the deferred bodies in the recordings.
    """
    if plain:
        return np.asarray([d[k] for d in duration_lists])
    # Price from Python floats, exactly as the float loop does.
    begins = begins.tolist()
    column = []
    for c, durations in enumerate(duration_lists):
        body = durations[k]
        if isinstance(body, DeferredDuration):
            body = body.resolve(begins[c])
            if isinstance(body, (int, float)):
                body = float(body)
            if not (body >= 0 if type(body) is float else (body >= 0).all()):
                raise ValueError(
                    f"slot {k} resolved a duration that is not >= 0"
                )
            durations[k] = body
        column.append(body)
    return np.asarray(column)

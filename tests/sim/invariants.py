"""Replay invariants every :class:`~repro.sim.fastpath.Timeline` keeps.

:func:`verify_timeline` checks a replayed timeline against five rules:

1. each slot starts at or after the ends of its gate's slots and of its
   stream predecessor, rank by rank;
2. no two slots on one stream overlap, on any rank;
3. every rank of a collective shares one rendezvous start — the last
   arrival — and one end, ``duration`` later;
4. time is monotone along each stream: no slot ends before it starts,
   and starts and ends never go backwards in submission order;
5. ranks of one class share every start and end.

A collective's per-rank start is that rank's *arrival*, which is what
rules 1, 2 and 4 read; rule 3 checks the shared instants.  The checks
read only the per-slot lists and the replay arrays, expanded from lanes
to ranks, so they hold for tiled slots, which have no
:class:`~repro.sim.fastpath.JobSet`, and for timelines that replay one
lane per rank class.

:func:`verify_replays` runs the checks on every multi-rank replay of a
test, with rule 5 over the ranks' compute profiles.
"""

from __future__ import annotations

import numpy as np


def verify_timeline(timeline, classes=None) -> None:
    """Assert the five replay invariants of a replayed ``timeline``.

    ``classes`` gives each rank's class for rule 5; by default it is the
    timeline's own rank-to-lane index, and without one rule 5 is void.
    """
    starts = timeline._per_rank(timeline._starts)
    ends = timeline._per_rank(timeline._ends)
    assert starts is not None and ends is not None, "timeline not replayed"
    slots = len(timeline._slot_streams)
    assert starts.shape == ends.shape == (slots, timeline.world)
    assert timeline._starts.shape == (slots, timeline.lanes)
    if not slots:
        return
    stream_ids = np.asarray(timeline._slot_streams)

    # 1. Gates: every (slot, gate slot) pair, rank by rank; a gate is
    # stored as backward distances, ``slot - gate slot``.
    gated = [(slot, back) for slot, gate in enumerate(timeline._gates)
             if gate is not None for back in gate]
    if gated:
        slot_ids, backs = np.asarray(gated).T
        assert np.all(backs > 0), "a gate points forward"
        gate_ids = slot_ids - backs
        assert np.all(gate_ids >= 0), "a gate points before the first slot"
        late = starts[slot_ids] < ends[gate_ids]
        assert not late.any(), (
            f"slot {slot_ids[late.any(axis=1)][0]} starts before its gate ends"
        )

    for sid in np.unique(stream_ids):
        on_stream = np.flatnonzero(stream_ids == sid)
        first, second = on_stream[:-1], on_stream[1:]
        # 1. Stream order: start at or after the predecessor's end.
        assert np.all(starts[second] >= ends[first]), (
            f"stream {sid}: a slot starts before its predecessor ends"
        )
        # 2. No overlap, checked in start order rather than submission
        # order, over the slots that take time.
        for rank in range(timeline.world):
            lo = starts[on_stream, rank]
            hi = ends[on_stream, rank]
            busy = hi > lo
            order = np.argsort(lo[busy], kind="stable")
            lo, hi = lo[busy][order], hi[busy][order]
            assert np.all(lo[1:] >= hi[:-1]), (
                f"stream {sid}, rank {rank}: two slots overlap"
            )
        # 4. Monotone time along the stream.
        assert np.all(starts[second] >= starts[first])
        assert np.all(ends[second] >= ends[first])
    # 4. No slot ends before it starts.
    assert np.all(ends >= starts), "a slot ends before it starts"

    # 3. Collectives: one rendezvous start, one end on every rank.
    collective = np.flatnonzero(np.asarray(timeline._collective, dtype=bool))
    for slot in collective.tolist():
        begin = starts[slot].max()
        assert np.all(ends[slot] == ends[slot, 0]), (
            f"collective slot {slot}: ranks end at different times"
        )
        assert ends[slot, 0] == begin + timeline._durations[slot], (
            f"collective slot {slot} does not end one duration after "
            f"its last arrival"
        )

    # 5. Classes: every rank matches the first rank of its class.
    if classes is None:
        classes = timeline._inverse
    if classes is not None:
        _, first_rank, of_rank = np.unique(
            np.asarray(classes), return_index=True, return_inverse=True
        )
        representative = first_rank[of_rank]
        for name, times in (("starts", starts), ("ends", ends)):
            differ = np.flatnonzero(
                (times != times[:, representative]).any(axis=0)
            )
            assert not len(differ), (
                f"rank {differ[0]} {name} apart from rank "
                f"{representative[differ[0]]} of its class"
            )


def profile_classes(ctx) -> np.ndarray:
    """Each rank's class by its compute profile's *values*.

    A multi-rank context groups ranks by compute scale; classes whose
    FF and BP rows hold equal values (an oracle that gives every rank a
    class of its own, or two scales with one profile) are one true
    class.
    """
    durations = ctx.durations
    keys: dict = {}
    per_class = [
        keys.setdefault((tuple(ff), tuple(bp)), len(keys))
        for ff, bp in zip(durations.ff_times.tolist(),
                          durations.bp_times.tolist())
    ]
    return np.asarray(per_class)[durations.inverse]


def verify_replays(monkeypatch) -> list:
    """Check every multi-rank replay of a test with :func:`verify_timeline`.

    Patches ``FastMultiRankContext.run`` to verify its timeline, rule 5
    over :func:`profile_classes`, after each replay.  Returns the list
    the verified timelines are appended to.
    """
    from repro.schedulers.multirank import FastMultiRankContext

    verified = []
    run = FastMultiRankContext.run

    def verified_run(self):
        final = run(self)
        verify_timeline(self._timeline, profile_classes(self))
        verified.append(self._timeline)
        return final

    monkeypatch.setattr(FastMultiRankContext, "run", verified_run)
    return verified

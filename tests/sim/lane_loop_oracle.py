"""The multi-rank replay loop as it was before runs went through gates
that do not bind: the oracle.

:func:`replay_lanes` takes gated slots one at a time and resolves
deferred per-lane slots as chains that stop at every gate, each body one
slot (:func:`resolve_chain`).  ``repro.sim.fastpath._replay_lanes``
replaced it with runs that go through gates that do not bind and bodies
that span a whole pass; ``tests/sim/test_lane_loop.py`` checks the two
against each other bit for bit.  Record a timeline for this loop with
one body per slot.
"""

from __future__ import annotations

import numpy as np

from repro.sim.fastpath import DeferredDuration, Timeline, _count_deferred


def replay_lanes(timelines: list[Timeline]) -> tuple[np.ndarray, np.ndarray]:
    """Several lanes: one numpy loop over ``(slots, configs, lanes)``.

    Every operation is the float loop's, applied lane-wise: a gateless
    run's seeded cumsum along the slot axis is the same left fold per
    lane, ``np.maximum`` over gate rows is the same pairwise max, a
    rendezvous is a ``max`` over the lane axis, and breaking a run at
    *any* config's deferred slot re-seeds the next chain with exact
    partial sums, which a left fold is insensitive to.  Deferred
    per-lane slots resolve as chains (:func:`resolve_chain`): from a
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
    deferred = any(t._kinds.count(-1) != len(t._kinds) for t in timelines)
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
                    seg = resolve_chain(duration_lists, k, g, arrive)
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
                        dur = column(
                            duration_lists, k, col_plain[k], begin[:, 0]
                        )[:, None]
                    np.add(begin, dur, out=ends[k])
                else:
                    if dur is None:
                        # One rank prices a deferred duration from its
                        # arrival time.
                        dur = column(
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


def resolve_chain(duration_lists, k: int, g: int,
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


def column(duration_lists, k: int, plain: bool, begins):
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

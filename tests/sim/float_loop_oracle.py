"""The one-lane replay loop as it was before the one-pass loop: the oracle.

:func:`replay_floats` telescopes each gateless run of a stream segment
with a seeded ``np.cumsum`` and takes gated and deferred slots one at a
time.  ``repro.sim.fastpath._replay_floats`` replaced it with one pass
over Python floats; ``tests/sim/test_collective_runs.py`` checks the two
against each other bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sim.fastpath import _count_deferred

_NEG_INF = float("-inf")


def replay_floats(timeline) -> tuple[np.ndarray, np.ndarray]:
    """One lane (one config, one rank): the Python-float loop.

    Returns ``(slots,)`` start and end arrays.
    """
    n = len(timeline._slot_streams)
    starts = np.zeros(n)
    ends = np.zeros(n)
    # Python-float mirror of `ends`, grown as the replay advances: gate
    # lookups read it instead of extracting numpy scalars one by one.
    ends_list: list[float] = []
    if not n:
        return starts, ends
    stream_ids = timeline._slot_streams
    gates = timeline._gates
    durations_py = timeline._durations
    deferred = timeline._kinds.count(-1) != len(timeline._kinds)
    # With deferred durations in the list, vector slices come straight
    # from the (mixed) Python list run by run instead of one prebuilt
    # array.
    durations = None if deferred else np.asarray(durations_py)
    prev_end = [0.0] * len(timeline._streams)
    alone = 0
    i = 0
    while i < n:
        sid = stream_ids[i]
        j = i + 1
        while j < n and stream_ids[j] == sid:
            j += 1
        base = prev_end[sid]
        k = i
        while k < j:
            g = k
            while (g < j and gates[g] is None
                   and (not deferred or type(durations_py[g]) is float)):
                g += 1
            if g > k:
                # Gateless run: end[k] = end[k-1] + d[k]; seeding
                # ``np.cumsum`` — a strict left fold — with the base
                # reproduces that association exactly.
                chain = np.empty(g - k + 1)
                chain[0] = base
                chain[1:] = durations_py[k:g] if deferred else durations[k:g]
                seg_ends = np.cumsum(chain)
                starts[k:g] = seg_ends[:-1]
                ends[k:g] = seg_ends[1:]
                ends_list.extend(seg_ends[1:].tolist())
                base = ends_list[-1]
                k = g
            if k < j:
                # Gated or deferred: max(prev, gate) + d.  A gate id
                # inside the segment (>= i) is an earlier same-stream
                # job: subsumed by order.
                gate_time = _NEG_INF
                backs = gates[k]
                if backs is not None:
                    for back in backs:
                        gid = k - back
                        if gid < i:
                            e = ends_list[gid]
                            if e > gate_time:
                                gate_time = e
                start = base if base >= gate_time else gate_time
                duration = durations_py[k]
                if type(duration) is not float:
                    # Deferred: price at the now-known start and keep
                    # the resolved value (busy-time sums and re-replays
                    # read it).
                    duration = float(duration.resolve(start))
                    if not duration >= 0:
                        raise ValueError(
                            f"slot {k} resolved a duration that is not "
                            f">= 0: {duration}"
                        )
                    durations_py[k] = duration
                    alone += 1
                end = start + duration
                starts[k] = start
                ends[k] = end
                ends_list.append(end)
                base = end
                k += 1
        prev_end[sid] = base
        i = j
    if alone:
        _count_deferred(0, alone)
    return starts, ends


"""Exposed time from columns == the tuple interval arithmetic.

``repro.sim.trace.exposed_times`` clips start/end columns to the
window, merges each category group with a sort and a running maximum,
and cuts it at the gaps between compute intervals.  The tuple helpers
it replaced (``tests/sim/interval_oracle.py``) are the oracle: for
drawn jobs with touching, nested, zero-length and equal intervals, and
windows that cut them, ``repr`` of every group's exposed and busy time
must agree, so the type of an empty sum (the integer ``0``) is pinned
too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.trace import (
    CATEGORY_CODES,
    COMM_CATEGORIES,
    COMPUTE_CATEGORIES,
    category_code,
    exposed_times,
)
from tests.sim.interval_oracle import (
    clip_to_window,
    exposed_times as tuple_exposed_times,
    merge_intervals,
    total_length,
)

CATEGORIES = COMPUTE_CATEGORIES + COMM_CATEGORIES + ("sync",)
GROUPS = (COMM_CATEGORIES, ("comm.rs",), ("comm.ag",), ("ff", "comm.ar"), ("sync",))

# Grid points make touching, nested and equal intervals common.
times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(-1.0, 4.0, allow_nan=False),
)
jobs = st.lists(
    st.tuples(times, times, st.sampled_from(CATEGORIES)).map(
        lambda job: (min(job[:2]), max(job[:2]), job[2])
    ),
    max_size=25,
)
windows = st.one_of(
    st.tuples(times, times).map(lambda w: (min(w), max(w))),
    st.just((float("-inf"), float("inf"))),
)


def _columns(job_list):
    return (
        np.array([job[0] for job in job_list], dtype=float),
        np.array([job[1] for job in job_list], dtype=float),
        np.array([category_code(job[2]) for job in job_list], dtype=np.intp),
    )


def _codes(group):
    return tuple(category_code(category) for category in group)


@settings(max_examples=200, deadline=None)
@given(job_list=jobs, window=windows)
def test_exposed_time_matches_the_tuple_oracle(job_list, window):
    got = exposed_times(*_columns(job_list), window, [_codes(g) for g in GROUPS])
    want = tuple_exposed_times(clip_to_window(job_list, window), GROUPS)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(job_list=jobs, window=windows)
def test_busy_time_matches_the_tuple_oracle(job_list, window):
    got = exposed_times(
        *_columns(job_list), window, [_codes(g) for g in GROUPS], hidden=()
    )
    clipped = clip_to_window(job_list, window)
    want = [
        total_length(
            interval for category in group for interval in clipped.get(category, ())
        )
        for group in GROUPS
    ]
    assert repr(got) == repr(want)


def test_empty_group_sums_to_integer_zero():
    columns = _columns([(0.0, 1.0, "ff"), (0.5, 0.8, "comm.ar"), (2.0, 2.0, "comm.rs")])
    got = exposed_times(*columns, (0.0, 3.0), [_codes(g) for g in GROUPS])
    assert got == [0, 0, 0, 0, 0]
    assert all(type(value) is int for value in got)
    assert exposed_times(*_columns([]), (0.0, 1.0), [_codes(COMM_CATEGORIES)]) == [0]


def test_holes_cut_an_interval_into_pieces():
    job_list = [(0.0, 10.0, "comm.ar"), (1.0, 2.0, "bp"), (2.0, 3.0, "ff"),
                (5.0, 6.0, "compute"), (9.0, 12.0, "bp")]
    got = exposed_times(*_columns(job_list), (0.0, 11.0), [_codes(["comm.ar"])])
    # Pieces [0, 1), [3, 5) and [6, 9).
    assert got == [1.0 + 2.0 + 3.0]
    assert merge_intervals([(1.0, 2.0), (2.0, 3.0)]) == [(1.0, 3.0)]


def test_other_categories_share_one_code():
    assert category_code("sync") == category_code("custom") == len(CATEGORY_CODES)
    assert sorted(CATEGORY_CODES.values()) == list(range(len(CATEGORY_CODES)))

"""``StragglerRows.fold`` adds every rank of a row, slowed or not.

An unslowed lane's extra in a slowed row is ``+0.0`` (also where its
base is ``inf``, which ``base * 1.0 - base`` would make NaN), and adding
``+0.0`` leaves any total but ``-0.0`` as it was, so the fold needs no
mask.  A hypothesis property checks it bit for bit against the masked
rank-order fold it replaced and against the scalar loop that defines the
ledger: rows where only some lanes are slowed, zero and ``inf`` bases,
factors below 1, one lane per rank or gathered lanes, and blocks that
cross the fold's chunk boundaries.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.faults import timing
from repro.faults.timing import StragglerRows

#: ``inf``: a profile that overflowed (a compute scale near 1e308).
_BASES = st.one_of(
    st.sampled_from((0.0, 0.125, 0.5, 1.0, math.inf)),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
#: 1.0 leaves a lane unslowed; the plan accepts any positive factor.
_FACTORS = st.sampled_from((1.0, 1.0, 0.5, 0.75, 1.5, 2.0, 3.1))
#: Any ledger total the fold can start from: never -0.0.
_TOTALS = st.floats(-100.0, 100.0, allow_nan=False).filter(
    lambda total: math.copysign(1.0, total) > 0 or total != 0
)


@st.composite
def _blocks(draw):
    lanes = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 10))
    bases = np.array(draw(st.lists(st.lists(_BASES, min_size=lanes,
                                            max_size=lanes),
                                   min_size=rows, max_size=rows)))
    factors = np.array(draw(st.lists(st.lists(_FACTORS, min_size=lanes,
                                              max_size=lanes),
                                     min_size=rows, max_size=rows)))
    # A block holds only rows that slowed some lane.
    factors[np.arange(rows), draw(st.integers(0, lanes - 1))] = 2.0
    inverse = None
    if draw(st.booleans()):
        world = draw(st.integers(lanes, 3 * lanes))
        inverse = np.array(draw(st.permutations(
            list(range(lanes)) + draw(st.lists(
                st.integers(0, lanes - 1), min_size=world - lanes,
                max_size=world - lanes,
            ))
        )))
    block = StragglerRows.of(np.zeros_like(bases), bases, factors, inverse)
    return block, draw(_TOTALS), draw(st.sampled_from((1, 2, 3, 7, 1 << 16)))


def _masked(block: StragglerRows, total: float) -> float:
    """The fold as it was: seeded cumsums over the slowed ranks only."""
    ranks = block.slowed.shape[1] if block.inverse is None else len(block.inverse)
    step = max(1, timing._FOLD_ENTRIES // ranks)
    for first in range(0, len(block.slowed), step):
        rows = slice(first, first + step)
        hit = block.slowed[rows]
        column = block.extras[rows]
        if block.inverse is not None:
            hit, column = hit[:, block.inverse], column[:, block.inverse]
        chain = np.concatenate([[total], column[hit]])
        total = float(np.cumsum(chain)[-1])
    return total


def _scalar(block: StragglerRows, total: float) -> float:
    """The ledger's definition: one ``+=`` per slowed job, in marker order."""
    for extra in block.ranked(block.extras).tolist():
        total += extra
    return total


@settings(deadline=None, max_examples=200)
@given(case=_blocks())
@example(case=(
    StragglerRows(np.zeros((2, 2)), np.array([[2.0, 1.0], [0.5, 0.75]]),
                  np.array([[1.0, 0.0], [-0.25, -0.0625]]),
                  np.array([[True, False], [True, True]]),
                  np.array([1, 0, 0, 1, 0])),
    0.0, 3,
))
@example(case=(
    StragglerRows.of(np.zeros((1, 2)), np.array([[math.inf, 1.0]]),
                     np.array([[1.0, 2.0]]), None),
    0.0, 1 << 16,
))
def test_maskless_fold_equals_the_masked_fold(case):
    block, total, entries = case
    with mock.patch.object(timing, "_FOLD_ENTRIES", entries):
        folded = block.fold(total)
        assert folded.hex() == _masked(block, total).hex()
    assert folded.hex() == _scalar(block, total).hex()

"""Host-speed probe: puts wall-clock times on a reference-speed scale.

The benchmark runs on shared machines whose neighbours come and go:
the same pure-Python loop takes 170 ms for tens of seconds and then
250-300 ms for tens of seconds more, with no steal time accounted, and
on a ~50 ms time scale it swings by up to 2x.  Every op time measured
through such a phase is inflated, so runs of identical code minutes
apart disagreed by 15-25%.

Each timed stretch of work is therefore bracketed by :func:`probe`s:
fixed loops that touch nothing of the program under test — one in pure
Python, one of small numpy operations, the two kinds of work the
simulator's host time is made of — each timed against its reference
time on a quiet host.  The work's wall and CPU times are divided by the
mean slowdown of the probes before and after it (:func:`scale`).  A
time the benchmark reports is the time the work would have taken on the
reference host at full speed; raw times are printed beside them.  A
slower program still reads slower: the probes cannot see its code.

On a noisy host this took the spread of five identical runs from
11-25% down to 1-7% (pure-Python probe alone: 4-9%).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["probe", "scale"]

#: Loop times on the 2-vCPU host the benchmark was sized on, quiet phase.
_PY_REFERENCE_S = 8.0e-3
_NP_REFERENCE_S = 7.5e-3

_PY_LOOP = 150_000
_NP_LOOP = 2_000
_ROUNDS = 2


def _python_loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(_PY_LOOP):
        total += i * i
    return time.perf_counter() - started


def _numpy_loop() -> float:
    values = np.arange(1024.0)
    started = time.perf_counter()
    for _ in range(_NP_LOOP):
        values = np.maximum(values, values[::-1]) + 1.0
    return time.perf_counter() - started


def probe() -> float:
    """How much slower than the reference host this host is right now."""
    slowdowns = []
    for _ in range(_ROUNDS):
        slowdowns.append(_python_loop() / _PY_REFERENCE_S)
        slowdowns.append(_numpy_loop() / _NP_REFERENCE_S)
    return sum(slowdowns) / len(slowdowns)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two probes to reference speed."""
    return 2.0 / (before + after)

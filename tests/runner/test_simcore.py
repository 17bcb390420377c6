"""The ``simcore`` replay microbenchmark times equal work on both engines."""

from __future__ import annotations

import pytest

from repro.runner import simcore
from repro.schedulers.engine import FastIterationContext


def test_bench_replay_emits_the_event_kernels_trace():
    """Both sides record with a tracer, so both emit the same spans, flow
    ids included; ``_bench_replay`` checks the traces byte for byte."""
    metrics = simcore._bench_replay(2)
    assert metrics["jobs"] > 0
    assert metrics["fastpath_speedup"] > 0


def test_bench_replay_rejects_a_trace_without_flow_ids(monkeypatch):
    """A fast side recorded without a tracer carries no flow ids: less
    work than the event kernel's, which the check refuses to time."""
    untraced = FastIterationContext.__init__

    def without_tracer(self, timing, cost, tracer=None, faults=None):
        untraced(self, timing, cost, None, faults)

    monkeypatch.setattr(FastIterationContext, "__init__", without_tracer)
    with pytest.raises(RuntimeError, match="traced other spans"):
        simcore._bench_replay(1)

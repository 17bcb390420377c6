"""Measurement differential: exposed time from job timestamps == from spans.

``Scheduler.measure`` reads exposed communication straight from each
engine's ``(start, end, category)`` job timestamps and builds no span
unless a trace was requested.  This suite keeps the span-based
measurement it replaced as an oracle (:func:`_span_exposed`) and pins,
for every fast-path scheduler x zoo model x {10GbE, 100GbIB} x
{classic, every registered workload DAG} x {healthy, straggler + link
fault}, that ``repr`` of ``exposed_comm``/``exposed_rs``/``exposed_ag``
is unchanged — ``repr`` keeps the type too, so an integer ``0`` from an
empty interval sum stays ``0`` — on all three ways a run is measured:
a solo replay, a ``run_many`` batched replay, and the event kernel.

It also pins the tracer contract: no tracer without ``trace=True``, and
a requested trace byte-identical to the traced replay the golden file
``tests/sim/replay_golden.json`` recorded before measurement stopped
reading spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import paper_testbed
from repro.runner import run_many
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler, simulate
from repro.workloads import WORKLOAD_NAMES
from tests.sim.interval_oracle import subtract_intervals, total_length

#: (label, registry name, options): every fast-path scheduler.  Labels
#: follow ``tests/sim/replay_golden.json``.
SCHEDULERS = (
    ("serial", "serial", {}),
    ("wfbp", "wfbp", {}),
    ("ddp", "ddp", {}),
    ("horovod", "horovod", {}),
    ("mg_wfbp", "mg_wfbp", {}),
    ("dear-buffer", "dear", {"fusion": "buffer"}),
    ("zero", "zero", {}),
)
FABRICS = ("10gbe", "100gbib")
WORKLOADS = (None,) + WORKLOAD_NAMES
#: The golden file's fault plan: a straggler window and a link fault.
FAULTED = FaultPlan(
    stragglers=(StragglerFault(0.02, 0.4, compute_factor=1.7),),
    link_faults=(LinkFault(0.04, 0.5, alpha_factor=2.0, beta_factor=3.0,
                           link="both"),),
)
PLANS = {"healthy": None, "faulted": FAULTED}
#: The fewest iterations with a steady-state window.
ITERATIONS = 3

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "sim" / "replay_golden.json").read_text()
)

_EXPOSED_FIELDS = ("exposed_comm", "exposed_rs", "exposed_ag")


# -- the oracle: the span-based measurement ---------------------------------


def _clip(intervals, window):
    lo, hi = window
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def _exposed(tracer, categories, window):
    """Non-overlapped communication time within the steady-state window."""
    comm = []
    for category in categories:
        comm.extend(
            (span.start, span.end) for span in tracer.filter(category=category)
        )
    compute = [
        (span.start, span.end)
        for span in tracer.spans
        if span.category in ("ff", "bp", "compute")
    ]
    return total_length(subtract_intervals(_clip(comm, window), _clip(compute, window)))


def _span_exposed(tracer, window) -> tuple[str, str, str]:
    """``repr`` of (exposed_comm, exposed_rs, exposed_ag) from spans."""
    return (
        repr(_exposed(
            tracer, ("comm.ar", "comm.rs", "comm.ag", "comm.a2a", "comm.p2p"),
            window,
        )),
        repr(_exposed(tracer, ("comm.rs",), window)),
        repr(_exposed(tracer, ("comm.ag",), window)),
    )


def _measured(result) -> tuple[str, str, str]:
    return tuple(repr(getattr(result, name)) for name in _EXPOSED_FIELDS)


# -- runs -------------------------------------------------------------------


def _cases():
    return [
        pytest.param(
            label, model, fabric, workload, plan,
            id=f"{label}/{model}/{fabric}/{workload or 'classic'}/{plan}",
        )
        for label, _, _ in SCHEDULERS
        for model in MODEL_NAMES
        for fabric in FABRICS
        for workload in WORKLOADS
        for plan in PLANS
    ]


_OPTIONS = {label: (name, options) for label, name, options in SCHEDULERS}


def _run(label, model, fabric, workload, plan, **kwargs):
    name, options = _OPTIONS[label]
    timing = TimingModel.for_model(get_model(model))
    cost = CollectiveTimeModel(paper_testbed(fabric))
    return get_scheduler(name, **options).run(
        timing, cost, iterations=ITERATIONS, faults=PLANS[plan],
        workload=workload, **kwargs,
    )


@functools.lru_cache(maxsize=None)
def _oracle(label, model, fabric, workload, plan) -> tuple[str, str, str]:
    """The span-based measurement of the traced fast-path run."""
    traced = _run(label, model, fabric, workload, plan, trace=True)
    return _span_exposed(traced.tracer, traced.tracer.window)


@pytest.mark.parametrize("label,model,fabric,workload,plan", _cases())
def test_solo_and_event_kernel_match_the_span_oracle(
    label, model, fabric, workload, plan
):
    expected = _oracle(label, model, fabric, workload, plan)
    solo = _run(label, model, fabric, workload, plan, fastpath=True)
    assert solo.tracer is None
    assert _measured(solo) == expected
    event = _run(label, model, fabric, workload, plan, fastpath=False)
    assert event.tracer is None
    assert _measured(event) == expected


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_batched_replay_matches_the_span_oracle(model, tmp_path):
    keys = [
        (label, model, fabric, workload, plan)
        for label, _, _ in SCHEDULERS
        for fabric in FABRICS
        for workload in WORKLOADS
        for plan in PLANS
    ]
    specs = [
        RunSpec.create(
            _OPTIONS[label][0], model, fabric, iterations=ITERATIONS,
            faults=PLANS[plan], workload=workload, **_OPTIONS[label][1],
        )
        for label, model, fabric, workload, plan in keys
    ]
    results = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
    for key, result in zip(keys, results):
        assert result.tracer is None
        assert _measured(result) == _oracle(*key), key


def test_event_kernel_measures_every_stream():
    """ByteScheduler's extra credit channels feed the measurement too."""
    for credit in (1, 3):
        untraced = simulate(
            "bytescheduler", get_model("resnet50"), paper_testbed("10gbe"),
            iterations=ITERATIONS, credit=credit,
        )
        traced = simulate(
            "bytescheduler", get_model("resnet50"), paper_testbed("10gbe"),
            iterations=ITERATIONS, credit=credit, trace=True,
        )
        assert untraced.tracer is None
        assert _measured(untraced) == _measured(traced)
        assert _measured(traced) == _span_exposed(traced.tracer, traced.tracer.window)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("label", [label for label, _, _ in SCHEDULERS])
def test_requested_trace_matches_the_golden_replay(label, fabric, plan):
    """``trace=True`` exports the same bytes the traced replay pinned."""
    for model in MODEL_NAMES:
        result = _run(label, model, fabric, None, plan, trace=True)
        digest = hashlib.sha256(result.tracer.to_chrome_trace().encode()).hexdigest()
        assert digest == GOLDEN[f"single/{label}/{model}/{fabric}/{plan}"]["trace"]


def test_untraced_sweeps_and_tuning_never_emit_spans(monkeypatch, tmp_path):
    """A batched sweep and a BO tuning run build no span at all."""
    from repro.sim.fastpath import Timeline

    def refuse(self, tracer):
        raise AssertionError("emit_spans ran without a requested trace")

    monkeypatch.setattr(Timeline, "emit_spans", refuse)
    specs = [
        RunSpec.create(name, "resnet50", fabric, iterations=ITERATIONS, **options)
        for _, name, options in SCHEDULERS
        for fabric in FABRICS
    ]
    specs.append(RunSpec.create("dear", "resnet50", "10gbe", fusion="bo",
                                bo_trials=3, iterations=ITERATIONS))
    results = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
    assert all(result.tracer is None for result in results)


def test_default_run_carries_no_tracer():
    result = simulate("dear", get_model("resnet50"), paper_testbed("10gbe"),
                      iterations=ITERATIONS, fusion="buffer")
    assert result.tracer is None

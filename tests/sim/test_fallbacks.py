"""No engine falls back to another.

The vectorized replay is the one production engine.  A schedule it
cannot record — here WFBP plus one ``sim.event()`` — raises
:class:`FastPathUnsupported` on the fast path, single-rank and
multi-rank, and runs only with ``fastpath=False``, where it must match
what the static schedule gives on the replay.  The config-axis batched
runner sends BO tuning and ``fastpath=False`` specs the classic way by a
plain check and says why in ``runner.batched.specs{outcome}``; a dynamic
schedule raises there too.  The last test pins the other side: no
registered policy runs the event kernel unless asked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault
from repro.models.profiles import TimingModel
from repro.models.zoo import get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import paper_testbed
from repro.runner.batched import run_batched
from repro.runner.spec import RunSpec
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.multirank import simulate_heterogeneous
from repro.schedulers.wfbp import WFBPScheduler
from repro.sim.fastpath import FastPathUnsupported
from repro.telemetry.registry import MetricsRegistry, default_registry, set_default_registry

SEED = 1234

#: The chaos sweep's slow-link plan: every collective 2.5x slower.
SLOW_LINK = FaultPlan(link_faults=(
    LinkFault(0.0, 1e9, alpha_factor=2.5, beta_factor=2.5, link="both"),
))


@pytest.fixture()
def registry():
    previous = default_registry()
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    set_default_registry(previous)


def _counts(registry: MetricsRegistry, name: str, label: str) -> dict[str, float]:
    family = registry.snapshot().get(name)
    if not family:
        return {}
    return {entry["labels"][label]: entry["value"] for entry in family["values"]}


def _seeded_scales(world: int) -> tuple[float, ...]:
    rng = np.random.default_rng(SEED)
    return tuple(float(scale) for scale in rng.uniform(1.0, 1.5, size=world))


def test_single_rank_fastpath_to_event(registry, dynamic_policy, tiny_model,
                                       ethernet_cluster):
    timing = TimingModel.for_model(tiny_model, iteration_compute=0.03)
    cost = CollectiveTimeModel(ethernet_cluster)
    dynamic = get_scheduler(dynamic_policy)
    with pytest.raises(FastPathUnsupported, match="sim.event"):
        dynamic.run(timing, cost, iterations=4)
    slow = dynamic.run(timing, cost, iterations=4, fastpath=False, trace=True)
    fast = WFBPScheduler().run(timing, cost, iterations=4, trace=True)
    assert slow.iteration_times == fast.iteration_times
    assert slow.tracer.to_chrome_trace() == fast.tracer.to_chrome_trace()
    assert _counts(registry, "sim.runs", "engine") == {"event": 1.0, "fastpath": 1.0}


def test_multirank_fastpath_to_event(registry, dynamic_policy, monkeypatch,
                                     tiny_model, ethernet_cluster):
    scales = _seeded_scales(ethernet_cluster.world_size)
    with pytest.raises(FastPathUnsupported, match="sim.event"):
        simulate_heterogeneous(dynamic_policy, tiny_model, ethernet_cluster,
                               scales, iteration_compute=0.03)
    slow = simulate_heterogeneous(dynamic_policy, tiny_model, ethernet_cluster,
                                  scales, iteration_compute=0.03,
                                  fastpath=False, trace=True)
    assert slow.extras["engine"] == "multirank-event"
    monkeypatch.undo()
    fast = simulate_heterogeneous("wfbp", tiny_model, ethernet_cluster, scales,
                                  iteration_compute=0.03, trace=True)
    assert fast.extras["engine"] == "multirank-fastpath"
    assert slow.iteration_times == fast.iteration_times
    assert slow.tracer.to_chrome_trace() == fast.tracer.to_chrome_trace()


def test_batched_to_classic(registry, tiny_model, ethernet_cluster):
    scales = _seeded_scales(ethernet_cluster.world_size)
    specs = [
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="bo", bo_trials=2),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       fastpath=False),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=scales, fastpath=False),
    ]
    outcomes = run_batched(specs)
    assert outcomes[0] is not None
    assert outcomes[1:] == [None] * 3
    assert _counts(registry, "runner.batched.specs", "outcome") == {
        "batched": 1.0, "bo_tuning": 1.0, "fastpath_off": 2.0,
    }
    # An option the run would not take never reaches the runner.
    with pytest.raises(ValueError, match="bad options"):
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=scales, bogus=1)


def test_batched_dynamic_schedule_raises(registry, dynamic_policy, tiny_model,
                                         ethernet_cluster):
    """The batched runner records a dynamic schedule like a run does, so
    it raises rather than quietly computing the spec another way."""
    scales = _seeded_scales(ethernet_cluster.world_size)
    for options in ({}, {"compute_scales": scales}):
        spec = RunSpec.create(dynamic_policy, tiny_model, ethernet_cluster,
                              iterations=4, **options)
        with pytest.raises(FastPathUnsupported):
            run_batched([spec])


@pytest.mark.parametrize("faults", [None, SLOW_LINK], ids=["healthy", "slow_link"])
def test_no_registered_policy_falls_back(registry, faults):
    """Every registered policy, default options, runs on the replay.

    Through ``Scheduler.run`` the event kernel never runs.  Through the
    batched runner the only spec left to the classic path is
    ``bo_tuning``: a policy whose default ``run()`` is a BO tuning loop
    (DeAR) runs its trials classically, each one a replayed
    ``Scheduler.run``.
    """
    model = get_model("resnet50")
    cluster = paper_testbed("10gbe")
    timing = TimingModel.for_model(model)
    cost = CollectiveTimeModel(cluster)
    for name in SCHEDULER_NAMES:
        get_scheduler(name).run(timing, cost, faults=faults)
    assert set(_counts(registry, "sim.runs", "engine")) == {"fastpath"}
    specs = [RunSpec.create(name, model, cluster, faults=faults)
             for name in SCHEDULER_NAMES]
    outcomes = run_batched(specs)
    tuning = [name for name in SCHEDULER_NAMES
              if not get_scheduler(name).supports_batched_run()]
    assert tuning == ["dear"]
    assert [name for name, outcome in zip(SCHEDULER_NAMES, outcomes)
            if outcome is None] == tuning
    assert _counts(registry, "runner.batched.specs", "outcome") == {
        "batched": float(len(SCHEDULER_NAMES) - len(tuning)),
        "bo_tuning": float(len(tuning)),
    }
    assert set(_counts(registry, "sim.runs", "engine")) == {"fastpath"}

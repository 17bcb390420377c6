"""Every fast-path fallback is counted as ``sim.fallbacks{from,to,reason}``.

Three places drop from a fast engine to a slower one: the single-rank
fast path to the event kernel, the multi-rank fast path to the multi-rank
event kernel, and the config-axis batched runner to the classic
per-spec path.  Each test forces one site on a seeded input and checks
that the fallback shows up with its fixed reason code and that the
answer still matches the fast engine's.  The last test pins the other
side: no registered policy falls back on its own.
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
from repro.schedulers import multirank
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.multirank import simulate_heterogeneous
from repro.schedulers.wfbp import WFBPScheduler
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


def _fallbacks(registry: MetricsRegistry) -> dict[tuple[str, str, str], float]:
    family = registry.snapshot().get("sim.fallbacks")
    if not family:
        return {}
    return {
        (entry["labels"]["from"], entry["labels"]["to"], entry["labels"]["reason"]):
            entry["value"]
        for entry in family["values"]
    }


class _EventWFBP(WFBPScheduler):
    """WFBP plus one dynamic ``sim.event()`` the fast paths cannot record.

    The event engines create it and never wait on it (the multi-rank
    event facade has no ``event`` at all), so results match plain WFBP.
    """

    def schedule(self, ctx, iterations):
        if hasattr(ctx.sim, "event"):
            ctx.sim.event()
        super().schedule(ctx, iterations)


def _seeded_scales(world: int) -> tuple[float, ...]:
    rng = np.random.default_rng(SEED)
    return tuple(float(scale) for scale in rng.uniform(1.0, 1.5, size=world))


def test_single_rank_fastpath_to_event(registry, tiny_model, ethernet_cluster):
    timing = TimingModel.for_model(tiny_model, iteration_compute=0.03)
    cost = CollectiveTimeModel(ethernet_cluster)
    slow = _EventWFBP().run(timing, cost, iterations=4)
    assert _fallbacks(registry) == {("fastpath", "event", "dynamic_event"): 1.0}
    fast = WFBPScheduler().run(timing, cost, iterations=4)
    assert slow.iteration_time == pytest.approx(fast.iteration_time, rel=1e-9)
    assert len(_fallbacks(registry)) == 1


def test_multirank_fastpath_to_event(registry, tiny_model, ethernet_cluster,
                                     monkeypatch):
    scales = _seeded_scales(ethernet_cluster.world_size)
    fast = simulate_heterogeneous(
        "wfbp", tiny_model, ethernet_cluster, scales, iteration_compute=0.03
    )
    assert fast.extras["engine"] == "multirank-fastpath"
    assert _fallbacks(registry) == {}
    monkeypatch.setattr(
        multirank, "_policy_scheduler",
        lambda policy, buffer_bytes: _EventWFBP(buffer_bytes=buffer_bytes),
    )
    slow = simulate_heterogeneous(
        "wfbp", tiny_model, ethernet_cluster, scales, iteration_compute=0.03
    )
    assert slow.extras["engine"] == "multirank-event"
    assert _fallbacks(registry) == {
        ("multirank-fastpath", "multirank-event", "dynamic_event"): 1.0
    }
    assert slow.iteration_time == pytest.approx(fast.iteration_time, rel=1e-9)


def test_batched_to_classic(registry, opt_out_policy, tiny_model,
                            ethernet_cluster):
    scales = _seeded_scales(ethernet_cluster.world_size)
    specs = [
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create(opt_out_policy, tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="bo", bo_trials=2),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       fastpath=False),
    ]
    outcomes = run_batched(specs)
    assert outcomes[0] is not None
    assert outcomes[1:] == [None] * 3
    assert _fallbacks(registry) == {
        ("batched", "classic", "opt_out"): 1.0,
        ("batched", "classic", "custom_run"): 1.0,
        ("batched", "classic", "disabled"): 1.0,
    }
    # An option the run would not take never reaches the runner.
    with pytest.raises(ValueError, match="bad options"):
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=scales, bogus=1)



@pytest.mark.parametrize("faults", [None, SLOW_LINK], ids=["healthy", "slow_link"])
def test_no_registered_policy_falls_back(registry, faults):
    """Every registered policy, default options, stays on the fast path.

    Through ``Scheduler.run`` nothing falls back.  Through the batched
    runner the only entries are ``custom_run``: a policy whose default
    ``run()`` is a BO tuning loop (DeAR) runs its trials classically,
    each one a fast-path ``Scheduler.run``.
    """
    model = get_model("resnet50")
    cluster = paper_testbed("10gbe")
    timing = TimingModel.for_model(model)
    cost = CollectiveTimeModel(cluster)
    for name in SCHEDULER_NAMES:
        get_scheduler(name).run(timing, cost, faults=faults)
    assert _fallbacks(registry) == {}
    specs = [RunSpec.create(name, model, cluster, faults=faults)
             for name in SCHEDULER_NAMES]
    outcomes = run_batched(specs)
    tuning = [name for name in SCHEDULER_NAMES
              if not get_scheduler(name).supports_batched_run()]
    assert tuning == ["dear"]
    assert [name for name, outcome in zip(SCHEDULER_NAMES, outcomes)
            if outcome is None] == tuning
    assert _fallbacks(registry) == {
        ("batched", "classic", "custom_run"): float(len(tuning))
    }

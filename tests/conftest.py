"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.models.layers import ModelBuilder, ModelSpec
from repro.models.profiles import CALIBRATED_ITERATION_COMPUTE, TimingModel
from repro.models.zoo import get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_100gbib, cluster_10gbe
from repro.runner.cache import reset_default_cache
from repro.schedulers import base, multirank
from repro.schedulers.wfbp import WFBPScheduler

# The unit-test model gets a calibration entry so `simulate()` works on
# it without an explicit iteration_compute override in every test.
# (The dict is only read at simulate() time, never at import time.)
CALIBRATED_ITERATION_COMPUTE.setdefault("tiny", 0.03)


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the runner's result cache at a per-session scratch dir.

    Keeps test runs from seeding (or being seeded by) the developer's
    ``.dear-cache/`` in the working tree.
    """
    import os

    previous = os.environ.get("DEAR_CACHE_DIR")
    os.environ["DEAR_CACHE_DIR"] = str(tmp_path_factory.mktemp("dear-cache"))
    reset_default_cache()
    yield
    if previous is None:
        os.environ.pop("DEAR_CACHE_DIR", None)
    else:
        os.environ["DEAR_CACHE_DIR"] = previous
    reset_default_cache()


def build_tiny_model(num_blocks: int = 4, width: int = 1000) -> ModelSpec:
    """A small synthetic CNN-ish model for fast scheduler tests.

    Each block is a conv-like layer (one ``width * 100`` element tensor)
    followed by a bn-like layer (two ``width``-element tensors).
    """
    builder = ModelBuilder(
        name="tiny", display_name="Tiny", default_batch_size=8,
        sample_description="unit-test sample",
    )
    for index in range(num_blocks):
        builder.add_layer(
            f"block{index}.conv", "conv", [("weight", width * 100)],
            flops=1e6 * (index + 1),
        )
        builder.add_layer(
            f"block{index}.bn", "bn", [("weight", width), ("bias", width)],
            flops=1e3,
        )
    builder.fc("head", width, 10)
    return builder.build()


class DynamicWFBP(WFBPScheduler):
    """WFBP plus one dynamic ``sim.event()``, which the replay cannot record.

    Every registered policy records a static schedule, so the tests of
    the dynamic-schedule contract bring their own.  The event engines
    create the event and never wait on it (the multi-rank event facade
    has no ``event`` at all), so results match plain WFBP.
    """

    def schedule(self, ctx, iterations):
        if hasattr(ctx.sim, "event"):
            ctx.sim.event()
        super().schedule(ctx, iterations)


@pytest.fixture
def dynamic_policy(monkeypatch) -> str:
    """A policy name that builds :class:`DynamicWFBP` within the test,
    on one rank and on explicit ranks."""
    monkeypatch.setitem(base._REGISTRY, "wfbp", DynamicWFBP)
    policy_scheduler = multirank._policy_scheduler
    monkeypatch.setattr(
        multirank, "_policy_scheduler",
        lambda policy, *args: (
            DynamicWFBP(*args) if policy == "wfbp"
            else policy_scheduler(policy, *args)
        ),
    )
    return "wfbp"


@pytest.fixture(scope="session")
def tiny_model() -> ModelSpec:
    return build_tiny_model()


@pytest.fixture(scope="session")
def tiny_timing(tiny_model) -> TimingModel:
    return TimingModel.for_model(tiny_model, iteration_compute=0.03)


@pytest.fixture(scope="session")
def ethernet_cluster():
    return cluster_10gbe()


@pytest.fixture(scope="session")
def infiniband_cluster():
    return cluster_100gbib()


@pytest.fixture(scope="session")
def ethernet_cost(ethernet_cluster) -> CollectiveTimeModel:
    return CollectiveTimeModel(ethernet_cluster)


@pytest.fixture(scope="session")
def resnet50():
    return get_model("resnet50")


@pytest.fixture(scope="session")
def bert_base():
    return get_model("bert_base")

"""Tuning golden: every BO tuning loop is bit-stable across refactors.

``tuning_golden.json`` pins the ``float.hex`` of every float the tuning
loops produce:

- DeAR-BO and Horovod-BO x every zoo model x {10GbE, 100GbIB}:
  ``bo_history``, the chosen ``buffer_bytes`` and the iteration times;
- :func:`~repro.core.auto_tune.tune_decoupling`'s
  :class:`~repro.core.auto_tune.DecouplingChoice` on ResNet-50 x both
  testbeds;
- the rows of ``fig3.run()`` and of ``fig10.run()`` (two seeds).

A second group of tests counts simulations: an untraced BO run
simulates each distinct fusion partition among its trials once and
keeps the best trial's result; a traced one reruns the best trial to
record its spans.

Regenerate (only on a deliberate change to simulated timelines or to
the tuners) with::

    PYTHONPATH=src python -m tests.bayesopt.test_tuning_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.auto_tune import tune_decoupling
from repro.experiments.fig3 import run as fig3_run
from repro.experiments.fig10 import run as fig10_run
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import paper_testbed
from repro.schedulers.base import Scheduler, get_scheduler
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)

GOLDEN_PATH = Path(__file__).with_name("tuning_golden.json")

TUNERS = ("dear", "horovod")
FABRICS = ("10gbe", "100gbib")
FIG10_SEEDS = (0, 1)


def _hex(value):
    """JSON-ready copy with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return value


def _bo(scheduler: str, model: str, fabric: str) -> dict:
    timing = TimingModel.for_model(get_model(model))
    cost = CollectiveTimeModel(paper_testbed(fabric))
    result = get_scheduler(scheduler, fusion="bo").run(timing, cost)
    return _hex({
        "bo_history": result.extras["bo_history"],
        "buffer_bytes": result.extras["buffer_bytes"],
        "iteration_times": result.iteration_times,
    })


def _decoupling(fabric: str) -> dict:
    choice = tune_decoupling(get_model("resnet50"), paper_testbed(fabric))
    return _hex({
        "algorithm": choice.algorithm,
        "buffer_bytes": choice.buffer_bytes,
        "throughput": choice.throughput,
        "iteration_time": choice.iteration_time,
        "per_algorithm": choice.per_algorithm,
        "history": choice.history,
    })


def bo_cases() -> list[tuple[str, tuple]]:
    return [
        (f"bo/{scheduler}/{model}/{fabric}", (scheduler, model, fabric))
        for scheduler in TUNERS
        for model in MODEL_NAMES
        for fabric in FABRICS
    ]


def compute_golden() -> dict:
    golden = {key: _bo(*args) for key, args in bo_cases()}
    for fabric in FABRICS:
        golden[f"decoupling/resnet50/{fabric}"] = _decoupling(fabric)
    golden["fig3"] = _hex(fig3_run())
    golden["fig10"] = _hex(fig10_run(seeds=FIG10_SEEDS))
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("key,args", bo_cases(), ids=[key for key, _ in bo_cases()])
def test_bo_run(golden, key, args):
    assert _bo(*args) == golden[key]


@pytest.mark.parametrize("fabric", FABRICS)
def test_tune_decoupling(golden, fabric):
    assert _decoupling(fabric) == golden[f"decoupling/resnet50/{fabric}"]


def test_fig3(golden):
    assert _hex(fig3_run()) == golden["fig3"]


def test_fig10(golden):
    assert _hex(fig10_run(seeds=FIG10_SEEDS)) == golden["fig10"]


def test_golden_covers_every_case(golden):
    expected = {key for key, _ in bo_cases()}
    expected |= {f"decoupling/resnet50/{fabric}" for fabric in FABRICS}
    expected |= {"fig3", "fig10"}
    assert set(golden) == expected


class TestSimulationCount:
    """A BO run simulates each distinct fusion partition once; only a
    trace reruns the best size."""

    @pytest.fixture
    def runs(self, monkeypatch) -> list[bool]:
        traced: list[bool] = []
        base_run = Scheduler.run

        def counting_run(self, *args, **kwargs):
            traced.append(kwargs.get("trace", False))
            return base_run(self, *args, **kwargs)

        monkeypatch.setattr(Scheduler, "run", counting_run)
        return traced

    @staticmethod
    def _trial(scheduler: str, buffer_bytes: float) -> Scheduler:
        return get_scheduler(scheduler, fusion="buffer", buffer_bytes=buffer_bytes)

    def _partitions(self, scheduler: str, timing, result) -> set:
        return {
            self._trial(scheduler, size).fusion_partition(timing.model)
            for size, _ in result.extras["bo_history"]
        }

    @pytest.mark.parametrize("scheduler", TUNERS)
    def test_one_simulation_per_partition(self, runs, scheduler, tiny_timing,
                                          ethernet_cluster):
        cost = CollectiveTimeModel(ethernet_cluster)
        result = get_scheduler(scheduler, fusion="bo", bo_trials=4).run(
            tiny_timing, cost
        )
        assert len(result.extras["bo_history"]) == 4
        assert runs == [False] * len(self._partitions(scheduler, tiny_timing, result))
        assert result.tracer is None

    @pytest.mark.parametrize("scheduler", TUNERS)
    def test_traced_run_reruns_the_best_trial(self, runs, scheduler,
                                              tiny_timing, ethernet_cluster):
        cost = CollectiveTimeModel(ethernet_cluster)
        result = get_scheduler(scheduler, fusion="bo", bo_trials=4).run(
            tiny_timing, cost, trace=True
        )
        distinct = len(self._partitions(scheduler, tiny_timing, result))
        assert runs == [False] * distinct + [True]
        assert result.tracer is not None

    @pytest.mark.parametrize("scheduler", TUNERS)
    def test_enough_trials_force_reuse(self, runs, monkeypatch, scheduler,
                                       tiny_timing, ethernet_cluster):
        """Fifteen trials on the tiny model repeat partitions; each
        reused trial reports what simulating it would have."""
        monkeypatch.delenv("DEAR_TELEMETRY", raising=False)
        registry = MetricsRegistry()
        set_default_registry(registry)
        try:
            cost = CollectiveTimeModel(ethernet_cluster)
            result = get_scheduler(scheduler, fusion="bo", bo_trials=15).run(
                tiny_timing, cost
            )
        finally:
            reset_default_registry()
        history = result.extras["bo_history"]
        distinct = len(self._partitions(scheduler, tiny_timing, result))
        assert len(history) == 15 and distinct < 15
        assert runs == [False] * distinct
        trials = registry.snapshot()["bayesopt.trials"]["values"]
        assert {entry["labels"]["outcome"]: entry["value"] for entry in trials} == {
            "simulated": distinct, "reused": 15 - distinct,
        }
        for size, throughput in history:
            fresh = self._trial(scheduler, size).run(tiny_timing, cost)
            assert fresh.throughput == throughput
        best = self._trial(scheduler, result.extras["buffer_bytes"]).run(
            tiny_timing, cost
        )
        assert best.iteration_times == result.iteration_times
        assert best.exposed_comm == result.exposed_comm


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")

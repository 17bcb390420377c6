"""Batched runner parity: run_many's config-axis replay vs per-spec runs.

The batched path is an engine swap under ``run_many``, so the whole
observable result — every ScheduleResult field, extras dict, and
iteration-time list — must equal what each spec's own ``spec.run()``
returns (minus the tracer, which the batched runner drops).  These
tests pin that, plus the fallback taxonomy: which specs batch, which
drop to the classic path, and how the two populations interleave in
one call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.plan import FaultPlan, StragglerFault
from repro.network.presets import cluster_10gbe
from repro.runner.batched import run_batched
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)

STRAGGLER = FaultPlan(stragglers=(StragglerFault(0.0, 5.0, compute_factor=1.5),))


def _mixed_specs(tiny_model, ethernet_cluster) -> list[RunSpec]:
    """Single-rank, faulty, multirank, and collapse specs in one sweep."""
    world = ethernet_cluster.world_size
    return [
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("ddp", tiny_model, ethernet_cluster, iterations=4),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="none"),
        RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                       fusion="buffer", buffer_bytes=25e6),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       faults=STRAGGLER),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=[1.0] * (world - 1) + [1.3]),
        RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4,
                       compute_scales=[1.0] * world),  # collapses
    ]


class TestRunManyParity:
    def test_batched_equals_classic(self, tiny_model, ethernet_cluster,
                                    tmp_path):
        specs = _mixed_specs(tiny_model, ethernet_cluster)
        classic = [dataclasses.replace(spec.run(), tracer=None) for spec in specs]
        batched = run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
        for spec, left, right in zip(specs, classic, batched):
            assert dataclasses.asdict(left) == dataclasses.asdict(right), spec.label

    def test_batched_results_are_cached(self, tiny_model, ethernet_cluster,
                                        tmp_path):
        cache = ResultCache(root=tmp_path)
        specs = _mixed_specs(tiny_model, ethernet_cluster)[:3]
        run_many(specs, jobs=1, cache=cache)
        assert cache.puts == len(specs)
        hits_before = cache.hits
        again = run_many(specs, jobs=1, cache=cache)
        assert cache.hits == hits_before + len(specs)
        assert [r.scheduler for r in again] == [s.scheduler for s in specs]


class TestRankClassGroups:
    """1024-rank specs group by their lane count, the number of rank
    classes: equal counts share one replay, whatever rank maps to which
    lane; different counts replay apart."""

    @pytest.fixture
    def registry(self):
        fresh = MetricsRegistry()
        set_default_registry(fresh)
        yield fresh
        reset_default_registry()

    @staticmethod
    def _specs(tiny_model, *scale_sets):
        cluster = cluster_10gbe(nodes=256, gpus_per_node=4)
        return [
            RunSpec.create("dear", tiny_model, cluster, iterations=4,
                           compute_scales=scales)
            for scales in scale_sets
        ]

    def _assert_groups(self, registry, specs, sizes):
        results = run_batched(specs)
        group_size = registry.histogram("runner.batched.group_size").labels()
        assert (group_size.count, group_size.total) == (len(sizes), sum(sizes))
        for spec, (result, _) in zip(specs, results):
            expected = dataclasses.replace(spec.run(), tracer=None)
            assert result.extras["engine"] == "multirank-fastpath"
            assert dataclasses.asdict(result) == dataclasses.asdict(expected)

    def test_equal_class_counts_share_one_replay(self, tiny_model, registry):
        specs = self._specs(
            tiny_model,
            (1.0,) * 1023 + (1.3,),
            (1.5,) + (1.0,) * 1023,
        )
        self._assert_groups(registry, specs, [2])

    def test_different_class_counts_replay_apart(self, tiny_model, registry):
        specs = self._specs(
            tiny_model,
            (1.0,) * 1023 + (1.3,),
            (1.0,) * 1022 + (1.2, 1.4),
        )
        self._assert_groups(registry, specs, [1, 1])


class TestRunBatchedFallback:
    """Specs the batched runner leaves to the classic path, by a plain
    check (``tests/sim/test_fallbacks.py`` pins the outcome counts)."""

    def test_bo_fusion_falls_back(self, tiny_model, ethernet_cluster):
        """DeAR/Horovod BO tuning wraps run() in a trials loop; the
        recorded schedule would skip it, so these must not batch."""
        specs = [
            RunSpec.create("dear", tiny_model, ethernet_cluster, iterations=4,
                           fusion="bo", bo_trials=2),
            RunSpec.create("horovod", tiny_model, ethernet_cluster, iterations=4,
                           fusion="bo", bo_trials=2),
        ]
        assert run_batched(specs) == [None, None]

    def test_forced_classic_engine_falls_back(self, tiny_model, ethernet_cluster):
        spec = RunSpec.create("wfbp", tiny_model, ethernet_cluster,
                              iterations=4, fastpath=False)
        assert run_batched([spec]) == [None]

    def test_mixed_batchable_and_not(self, tiny_model, ethernet_cluster):
        specs = [
            RunSpec.create("wfbp", tiny_model, ethernet_cluster, iterations=4),
            RunSpec.create("horovod", tiny_model, ethernet_cluster,
                           iterations=4, fusion="bo", bo_trials=2),
            RunSpec.create("ddp", tiny_model, ethernet_cluster, iterations=4),
        ]
        outcomes = run_batched(specs)
        assert outcomes[1] is None
        assert outcomes[0] is not None and outcomes[2] is not None
        result, seconds = outcomes[0]
        assert result.scheduler == "wfbp" and result.tracer is None
        assert seconds >= 0.0


class TestSupportsBatchedRun:
    def test_static_schedulers_opt_in(self):
        for name in ("wfbp", "ddp", "mg_wfbp", "serial", "zero"):
            assert get_scheduler(name).supports_batched_run(), name

    @pytest.mark.parametrize("name", ["dear", "horovod"])
    def test_bo_mode_opts_out(self, name):
        assert not get_scheduler(name, fusion="bo").supports_batched_run()
        assert get_scheduler(name, fusion="buffer",
                             buffer_bytes=25e6).supports_batched_run()

    def test_bo_mode_cannot_be_recorded(self, tiny_timing, ethernet_cost):
        """Recording one schedule would skip the tuning loop."""
        with pytest.raises(ValueError, match="customises run"):
            get_scheduler("dear", fusion="bo").record_fast(tiny_timing,
                                                           ethernet_cost)

"""Differential suite for config-axis batched replay (repro.sim.fastpath).

The contract is *bit-identity*, not tolerance: stacking N recorded
timelines and replaying them with one set of numpy ops must yield, for
every config, exactly the floats the solo fast-path replay yields —
identical start/end timestamps, final times, and span-for-span traces —
across schedulers, fusion plans, clusters, and timing-fault scenarios.
Anything structurally incompatible must raise :class:`BatchMismatch`
rather than degrade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import DEFAULT_ITERATIONS, get_scheduler
from repro.schedulers.engine import FastIterationContext
from repro.schedulers.multirank import _Run
from repro.sim.fastpath import BatchMismatch, replay
from repro.sim.trace import Tracer

#: scheduler policy x fusion-plan grid for the differential sweep.
POLICY_GRID = [
    ("wfbp", {}),
    ("ddp", {}),
    ("mg_wfbp", {}),
    ("dear", {"fusion": "none"}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    ("horovod", {"fusion": "buffer", "buffer_bytes": 12e6}),
]

#: timing-fault scenarios; each reshapes durations without touching
#: the recorded structure, so all three batch together per policy.
FAULT_GRID = [
    None,
    FaultPlan(stragglers=(StragglerFault(0.0, 5.0, compute_factor=1.5),)),
    FaultPlan(link_faults=(LinkFault(0.0, 5.0, beta_factor=3.0),)),
]


def _record(name, timing, cost, faults=None, **options):
    # Traced from the start, so the replays below can emit spans.
    ctx = FastIterationContext(timing, cost, tracer=Tracer(), faults=faults)
    get_scheduler(name, **options)._schedule_onto(
        ctx, DEFAULT_ITERATIONS, None
    )
    return ctx


def _solo_replay(ctx):
    tracer = Tracer()
    final = ctx._timeline.replay(tracer)
    return final, tracer


def _assert_identical(batched_ctx, batched_tracer, solo_ctx):
    solo_final, solo_tracer = _solo_replay(solo_ctx)
    left, right = batched_ctx._timeline, solo_ctx._timeline
    assert left.final_time == solo_final
    assert np.array_equal(left._starts, right._starts)
    assert np.array_equal(left._ends, right._ends)
    assert batched_tracer.spans == solo_tracer.spans


class TestFastBatchDifferential:
    @pytest.mark.parametrize("name,options", POLICY_GRID,
                             ids=[f"{n}-{i}" for i, (n, _) in enumerate(POLICY_GRID)])
    def test_fault_scenarios_batch_bit_identical(
        self, name, options, tiny_timing, ethernet_cost
    ):
        """One policy, three fault scenarios -> one batched replay."""
        batch = [_record(name, tiny_timing, ethernet_cost, faults=f, **options)
                 for f in FAULT_GRID]
        solo = [_record(name, tiny_timing, ethernet_cost, faults=f, **options)
                for f in FAULT_GRID]
        signatures = {ctx._timeline.signature() for ctx in batch}
        assert len(signatures) == 1, "fault plans must not change structure"
        tracers = [Tracer() for _ in batch]
        finals = replay([ctx._timeline for ctx in batch], tracers)
        for ctx, tracer, final, solo_ctx in zip(batch, tracers, finals, solo):
            assert ctx._timeline.final_time == final
            _assert_identical(ctx, tracer, solo_ctx)

    def test_cross_cluster_batch_bit_identical(
        self, tiny_timing, ethernet_cost, infiniband_cluster
    ):
        """Same policy over different fabrics: same structure, very
        different durations — the config axis the runner batches on."""
        ib_cost = CollectiveTimeModel(infiniband_cluster)
        batch = [_record("wfbp", tiny_timing, cost)
                 for cost in (ethernet_cost, ib_cost, ethernet_cost)]
        solo = [_record("wfbp", tiny_timing, cost)
                for cost in (ethernet_cost, ib_cost, ethernet_cost)]
        tracers = [Tracer() for _ in batch]
        replay([ctx._timeline for ctx in batch], tracers)
        for ctx, tracer, solo_ctx in zip(batch, tracers, solo):
            _assert_identical(ctx, tracer, solo_ctx)

    def test_mixed_plain_and_deferred_configs(self, tiny_timing, ethernet_cost):
        """A faulty config (deferred durations) sharing a batch with
        plain ones must not perturb the plain configs' floats."""
        plans = [None, FAULT_GRID[1], None]
        batch = [_record("dear", tiny_timing, ethernet_cost, faults=f,
                         fusion="none") for f in plans]
        solo = [_record("dear", tiny_timing, ethernet_cost, faults=f,
                        fusion="none") for f in plans]
        tracers = [Tracer() for _ in batch]
        replay([ctx._timeline for ctx in batch], tracers)
        for ctx, tracer, solo_ctx in zip(batch, tracers, solo):
            _assert_identical(ctx, tracer, solo_ctx)

    def test_structure_mismatch_raises(self, tiny_timing, ethernet_cost):
        wfbp = _record("wfbp", tiny_timing, ethernet_cost)
        dear = _record("dear", tiny_timing, ethernet_cost, fusion="none")
        with pytest.raises(BatchMismatch):
            replay([wfbp._timeline, dear._timeline])

    def test_empty_and_singleton(self, tiny_timing, ethernet_cost):
        assert replay([]) == []
        batched = _record("wfbp", tiny_timing, ethernet_cost)
        solo = _record("wfbp", tiny_timing, ethernet_cost)
        tracer = Tracer()
        (final,) = replay([batched._timeline], [tracer])
        assert batched._timeline.final_time == final
        _assert_identical(batched, tracer, solo)


class TestMultiRankBatchDifferential:
    def _record(self, tiny_model, cluster, scales, faults=None):
        # Explicit ranks: uniform scales must record every rank too.
        return _Run(
            "wfbp", tiny_model, cluster, scales, faults=faults, collapse=False
        ).record(trace=True)

    def test_scale_vectors_batch_bit_identical(self, tiny_model, ethernet_cluster):
        """Scale vectors with one lane count — rank classes — batch, even
        when they map ranks to lanes differently; other counts replay
        apart."""
        world = ethernet_cluster.world_size
        scale_sets = [
            [1.0] * world,
            [1.0] * (world - 1) + [1.4],
            [1.4] + [1.0] * (world - 1),
            [1.0 + 0.02 * r for r in range(world)],
            [1.0 + 0.02 * r for r in reversed(range(world))],
        ]
        batch = [self._record(tiny_model, ethernet_cluster, s) for s in scale_sets]
        solo = [self._record(tiny_model, ethernet_cluster, s) for s in scale_sets]
        groups: dict[tuple, list[int]] = {}
        for index, ctx in enumerate(batch):
            groups.setdefault(ctx._timeline.signature(), []).append(index)
        assert sorted(
            (batch[members[0]]._timeline.lanes, members)
            for members in groups.values()
        ) == [(1, [0]), (2, [1, 2]), (world, [3, 4])]
        for members in groups.values():
            tracers = [Tracer() for _ in members]
            finals = replay([batch[i]._timeline for i in members], tracers)
            for i, tracer, final in zip(members, tracers, finals):
                assert batch[i]._timeline.final_time == final
                _assert_identical(batch[i], tracer, solo[i])

    def test_faulty_ranks_batch_bit_identical(self, tiny_model, ethernet_cluster):
        world = ethernet_cluster.world_size
        scales = [1.0] * (world - 1) + [1.2]
        batch = [self._record(tiny_model, ethernet_cluster, scales, faults=f)
                 for f in FAULT_GRID]
        solo = [self._record(tiny_model, ethernet_cluster, scales, faults=f)
                for f in FAULT_GRID]
        tracers = [Tracer() for _ in batch]
        replay([ctx._timeline for ctx in batch], tracers)
        for ctx, tracer, solo_ctx in zip(batch, tracers, solo):
            _assert_identical(ctx, tracer, solo_ctx)

    def test_world_size_mismatch_raises(self, tiny_model):
        from repro.network.presets import cluster_10gbe

        small = cluster_10gbe(nodes=2, gpus_per_node=2)
        large = cluster_10gbe(nodes=4, gpus_per_node=2)
        a = self._record(tiny_model, small, [1.0] * small.world_size)
        b = self._record(tiny_model, large, [1.0] * large.world_size)
        assert a._timeline.signature() != b._timeline.signature()
        with pytest.raises(BatchMismatch):
            replay([a._timeline, b._timeline])

    def test_empty_and_singleton(self, tiny_model, ethernet_cluster):
        assert replay([]) == []
        scales = [1.0] * ethernet_cluster.world_size
        batched = self._record(tiny_model, ethernet_cluster, scales)
        solo = self._record(tiny_model, ethernet_cluster, scales)
        tracer = Tracer()
        (final,) = replay([batched._timeline], [tracer])
        assert batched._timeline.final_time == final
        _assert_identical(batched, tracer, solo)

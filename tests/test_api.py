"""The repro.api facade: configs, runs, collectives, compat shims."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import (
    SimulationConfig,
    config_from_payload,
    list_algorithms,
    list_schedulers,
    list_workloads,
    run_collective,
    run_simulation,
)
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    RankFailure,
    StragglerFault,
)
from repro.network.presets import paper_testbed
from repro.schedulers.base import SCHEDULER_NAMES, simulate

ITERATIONS = 4


class TestSimulationConfig:
    def test_create_resolves_names(self):
        config = SimulationConfig.create("dear", "resnet50", "10gbe")
        assert config.model.name == "resnet50"
        assert config.cluster is paper_testbed("10gbe") or \
            config.cluster.name == paper_testbed("10gbe").name

    def test_create_accepts_spec_objects(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("wfbp", tiny_model, ethernet_cluster)
        assert config.model is tiny_model
        assert config.cluster is ethernet_cluster

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimulationConfig.create("nccl", "resnet50", "10gbe")

    def test_frozen_and_hashable(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster,
                                         buffer_bytes=25e6)
        assert hash(config)
        with pytest.raises(AttributeError):
            config.scheduler = "wfbp"

    def test_options_frozen_sorted(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create(
            "dear", tiny_model, ethernet_cluster,
            fusion="buffer", buffer_bytes=25e6,
        )
        assert config.options == (("buffer_bytes", 25e6), ("fusion", "buffer"))

    def test_replace(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster)
        other = config.replace(scheduler="wfbp",
                               options={"buffer_bytes": 1e6})
        assert other.scheduler == "wfbp"
        assert other.options == (("buffer_bytes", 1e6),)
        assert config.scheduler == "dear"  # original untouched

    def test_replace_validates_like_create(self):
        config = SimulationConfig.create("wfbp", "resnet50", "10gbe",
                                         compute_scales=(1.0,) * 64)
        with pytest.raises(ValueError, match="compute scales"):
            config.replace(compute_scales=(1.0, 2.0))
        with pytest.raises(ValueError, match="unknown scheduler"):
            config.replace(scheduler="nccl")
        with pytest.raises(TypeError, match="unknown RunSpec fields"):
            config.replace(compute_scale=(1.0,) * 64)

    def test_replace_normalizes_scales_like_create(self):
        plain = SimulationConfig.create("wfbp", "resnet50", "10gbe")
        replaced = plain.replace(compute_scales=(1,) * 63 + (2,))
        created = SimulationConfig.create(
            "wfbp", "resnet50", "10gbe", compute_scales=(1.0,) * 63 + (2.0,)
        )
        assert all(type(scale) is float for scale in replaced.compute_scales)
        assert replaced.fingerprint == created.fingerprint

    def test_replace_normalizes_faults(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster)
        assert config.replace(faults=FaultPlan()).faults is None

    def test_to_spec_drops_fastpath(self, tiny_model, ethernet_cluster):
        fast = SimulationConfig.create("dear", tiny_model, ethernet_cluster,
                                       fastpath=True)
        slow = fast.replace(options={"fastpath": False})
        # Both engines are bit-identical, so the cache key must not
        # distinguish them.
        assert fast.to_spec().fingerprint == slow.to_spec().fingerprint

    def test_spec_fingerprint_ignores_empty_plan(self, tiny_model,
                                                 ethernet_cluster):
        healthy = SimulationConfig.create("dear", tiny_model, ethernet_cluster)
        empty = SimulationConfig.create("dear", tiny_model, ethernet_cluster,
                                        faults=FaultPlan())
        faulty = SimulationConfig.create(
            "dear", tiny_model, ethernet_cluster,
            faults=FaultPlan(link_faults=(LinkFault(0, 1),)),
        )
        assert empty.to_spec().fingerprint == healthy.to_spec().fingerprint
        assert faulty.to_spec().fingerprint != healthy.to_spec().fingerprint
        assert "faults" not in healthy.to_spec().canonical_payload()

    def test_label(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster)
        assert config.label == f"dear/tiny/{ethernet_cluster.name}"


class TestRunSimulation:
    def test_uncached_matches_simulate(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster,
                                         iterations=ITERATIONS)
        via_facade = run_simulation(config)
        direct = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS)
        assert via_facade.iteration_times == direct.iteration_times

    def test_cached_round_trip(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("wfbp", tiny_model, ethernet_cluster,
                                         iterations=ITERATIONS)
        live = run_simulation(config)
        cached = run_simulation(config, cached=True)
        assert cached.iteration_time == live.iteration_time
        assert cached.tracer is None  # cached results are tracer-less

    def test_faulty_config_runs(self, tiny_model, ethernet_cluster):
        plan = FaultPlan(link_faults=(LinkFault(0.0, 1e9, alpha_factor=2.0,
                                                beta_factor=2.0, link="both"),))
        config = SimulationConfig.create("dear", tiny_model, ethernet_cluster,
                                         iterations=ITERATIONS, faults=plan)
        result = run_simulation(config)
        assert result.extras["fault_plan"] == plan.label()


class TestRunCollective:
    def test_healthy_all_reduce_exact(self):
        result = run_collective("all_reduce", 8, nelems=64, seed=0)
        rng = np.random.default_rng(0)
        expected = np.sum([rng.uniform(-1.0, 1.0, 64) for _ in range(8)],
                          axis=0)
        for buf in result.buffers:
            # Ring reduction order differs from np.sum's: allow only
            # last-ulp accumulation noise.
            np.testing.assert_allclose(buf, expected, rtol=0, atol=1e-12)
        assert result.survivors == list(range(8))
        assert result.fault_summary is None
        assert result.wire_bytes > 0 and result.messages > 0

    def test_rs_ag_equals_all_reduce(self):
        fused = run_collective("all_reduce", 8, nelems=64, seed=3)
        decoupled = run_collective("rs_ag", 8, nelems=64, seed=3)
        for a, b in zip(fused.buffers, decoupled.buffers):
            np.testing.assert_array_equal(a, b)

    def test_explicit_buffers_are_copied(self):
        mine = [np.ones(16) for _ in range(4)]
        result = run_collective("all_reduce", 4, buffers=mine)
        np.testing.assert_array_equal(mine[0], np.ones(16))  # untouched
        np.testing.assert_array_equal(result.buffers[0], np.full(16, 4.0))

    def test_buffer_count_checked(self):
        with pytest.raises(ValueError, match="expected 4 buffers"):
            run_collective("all_reduce", 4, buffers=[np.ones(8)] * 3)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            run_collective("broadcast", 4)

    def test_faulty_plan_routes_through_resilience(self):
        plan = FaultPlan(seed=0, rank_failures=(RankFailure(2),))
        result = run_collective("all_reduce", 8, nelems=64, seed=1,
                                algorithm="halving_doubling", faults=plan)
        assert result.survivors == [r for r in range(8) if r != 2]
        assert result.algorithm == "ring"  # degraded: 7 is not a power of two
        assert result.fault_summary["rebuilds"] == 1

    def test_timing_only_plan_stays_on_plain_communicator(self):
        plan = FaultPlan(link_faults=(LinkFault(0, 1),))
        result = run_collective("all_reduce", 4, nelems=32, faults=plan)
        assert result.fault_summary is None  # no data-level faults to survive


class TestListings:
    def test_list_schedulers(self):
        assert list_schedulers() == SCHEDULER_NAMES
        assert "dear" in list_schedulers()

    def test_list_algorithms(self):
        algorithms = list_algorithms()
        assert "ring" in algorithms and "halving_doubling" in algorithms

    def test_list_workloads(self):
        workloads = list_workloads()
        assert workloads == ("layerwise", "moe", "dlrm", "llm3d")


class TestWorkloadSurface:
    def test_create_accepts_registered_name(self, tiny_model, ethernet_cluster):
        config = SimulationConfig.create("wfbp", tiny_model, ethernet_cluster,
                                         iterations=ITERATIONS, workload="moe")
        assert config.workload == "moe"
        result = run_simulation(config)
        assert result.extras["workload"] == "moe"

    def test_unknown_workload_rejected(self, tiny_model, ethernet_cluster):
        with pytest.raises(ValueError, match="unknown workload"):
            SimulationConfig.create("wfbp", tiny_model, ethernet_cluster,
                                    workload="transformer")

    def test_fingerprint_survival_rule(self, tiny_model, ethernet_cluster):
        # Pre-workload fingerprints must keep resolving: the field only
        # enters the canonical payload when set.
        plain = SimulationConfig.create("wfbp", tiny_model, ethernet_cluster,
                                        iterations=ITERATIONS)
        tagged = plain.replace(workload="dlrm")
        assert "workload" not in plain.to_spec().canonical_payload()
        assert tagged.to_spec().canonical_payload()["workload"] == "dlrm"
        assert plain.to_spec().fingerprint != tagged.to_spec().fingerprint

    def test_payload_round_trip(self):
        config = config_from_payload({
            "scheduler": "dear", "model": "resnet50", "cluster": "10gbe",
            "iterations": ITERATIONS, "workload": "llm3d",
        })
        assert config.workload == "llm3d"

    def test_payload_unknown_field_still_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_payload({
                "scheduler": "dear", "model": "resnet50", "cluster": "10gbe",
                "workloads": "moe",  # typo must not silently be dropped
            })


#: Any value a JSON body can carry (Python's decoder also accepts
#: NaN and the infinities).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

_VALID = {"scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe"}

_WIRE_FIELDS = (
    "scheduler", "model", "cluster", "batch_size", "algorithm", "iterations",
    "iteration_compute", "faults", "options", "workload", "compute_scales",
)


def _record(cls):
    """A JSON object over ``cls``'s field names with any JSON values."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), _JSON, max_size=len(names))


#: Fault plans that look right at the top level, with junk inside.
_FAULT_PAYLOADS = st.fixed_dictionaries({}, optional={
    "seed": _JSON,
    "drop_prob": _JSON,
    "fault_budget": _JSON,
    "rank_failures": st.lists(_record(RankFailure) | _JSON, max_size=2),
    "link_faults": st.lists(_record(LinkFault) | _JSON, max_size=2),
    "stragglers": st.lists(_record(StragglerFault) | _JSON, max_size=2),
})


def _accepted_or_rejected(payload: dict) -> None:
    """The wire contract: a fingerprintable config, or ValueError/KeyError."""
    try:
        config = config_from_payload(payload)
    except (ValueError, KeyError):
        return
    assert len(config.to_spec().fingerprint) == 64


class TestWirePayloads:
    @settings(max_examples=300, deadline=None)
    @given(field=st.sampled_from(_WIRE_FIELDS), value=_JSON)
    def test_any_value_in_any_field(self, field, value):
        _accepted_or_rejected({**_VALID, field: value})

    @settings(max_examples=200, deadline=None)
    @given(faults=_FAULT_PAYLOADS)
    def test_any_fault_plan(self, faults):
        _accepted_or_rejected({**_VALID, "faults": faults})

    @settings(max_examples=100, deadline=None)
    @given(options=st.dictionaries(
        st.sampled_from(["fusion", "buffer_bytes", "trace", "fastpath",
                         "tuned_table", "scheduler", "iterations"])
        | st.text(max_size=8),
        _JSON, max_size=3,
    ))
    def test_any_options(self, options):
        _accepted_or_rejected({**_VALID, "options": options})

    @pytest.mark.parametrize("field,value", [
        ("faults", 3),
        ("batch_size", "x"),
        ("iterations", "5"),
        ("iterations", -1),
        ("iterations", True),
        ("algorithm", 5),
        ("iteration_compute", "a"),
        ("iteration_compute", float("nan")),
        ("options", []),
        ("options", {"tuned_table": 5}),
        ("workload", ["moe"]),
        ("compute_scales", [1.0] * 3),
        ("compute_scales", {"0": 1.0}),
        ("options", {"bogus": 1}),
    ])
    def test_mistyped_fields_are_value_errors(self, field, value):
        with pytest.raises(ValueError):
            config_from_payload({**_VALID, field: value})

    def test_well_typed_fields_still_accepted(self):
        config = config_from_payload({
            **_VALID, "batch_size": 32, "algorithm": "tree", "iterations": 5,
            "iteration_compute": 0.2, "options": {}, "faults": {
                "stragglers": [{"start": 0, "end": 1.5}],
            },
        })
        assert config.iterations == 5 and config.faults.stragglers[0].end == 1.5


class TestPackageSurface:
    def test_top_level_reexports(self):
        assert repro.SimulationConfig is SimulationConfig
        assert repro.run_simulation is run_simulation
        assert repro.run_collective is run_collective
        assert repro.FaultPlan is FaultPlan
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestRemovedLegacyOptions:
    """The PR-4 deprecation cycle is over: the old ``simulate`` kwargs
    fail fast with a migration hint instead of warning and adapting."""

    def test_fusion_plan_removed(self, tiny_model, ethernet_cluster):
        with pytest.raises(TypeError, match="fusion_plan.*fusion="):
            simulate("dear", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, fusion_plan="layers")

    def test_topology_removed(self, tiny_model, ethernet_cluster):
        with pytest.raises(TypeError, match="topology.*ClusterSpec"):
            simulate("wfbp", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, topology="10gbe")

    def test_link_preset_removed(self, tiny_model, ethernet_cluster):
        with pytest.raises(TypeError, match="link_preset.*ClusterSpec"):
            simulate("wfbp", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, link_preset="10gbe")

    def test_world_size_removed(self, tiny_model, ethernet_cluster):
        with pytest.raises(TypeError, match="world_size.*with_nodes"):
            simulate("wfbp", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS,
                     world_size=ethernet_cluster.world_size * 2)

    def test_modern_spellings_untouched(self, tiny_model, ethernet_cluster):
        result = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, fusion="layers")
        assert result.iteration_time > 0

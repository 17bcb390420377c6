"""RunSpec.create checks options once: every spec it accepts can run.

``create`` builds the scheduler the run would build, so an option the
run would not take — a run switch other than ``fastpath``, a knob of
another scheduler, a single-rank knob on a multi-rank spec — fails at
creation, not in ``spec.run()`` or ``run_many``.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.network.presets import cluster_10gbe
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.schedulers.base import SCHEDULER_NAMES, get_scheduler
from repro.schedulers.multirank import POLICIES
from tests.conftest import build_tiny_model

CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=2)  # 4 ranks, fast runs
TINY = build_tiny_model()
SKEWED = (1.0, 1.0, 1.0, 1.4)


def _create(scheduler: str, **kwargs) -> RunSpec:
    return RunSpec.create(
        scheduler, TINY, CLUSTER, iterations=3, iteration_compute=0.03, **kwargs
    )


class TestRejectedAtCreation:
    @pytest.mark.parametrize("compute_scales", [None, SKEWED],
                             ids=["single-rank", "multi-rank"])
    def test_trace_is_not_an_option(self, compute_scales):
        with pytest.raises(ValueError, match="bad options.*trace"):
            _create("wfbp", compute_scales=compute_scales, trace=True)

    def test_scheduler_knob_on_a_multirank_spec(self):
        with pytest.raises(ValueError, match="bad options.*fusion"):
            _create("dear", compute_scales=SKEWED, fusion="buffer")

    @pytest.mark.parametrize("compute_scales", [None, SKEWED, (1.0,) * 4],
                             ids=["single-rank", "multi-rank", "uniform"])
    def test_collapse_is_not_an_option(self, compute_scales):
        with pytest.raises(ValueError, match="bad options.*collapse"):
            _create("wfbp", compute_scales=compute_scales, collapse=False)

    def test_replace_checks_options_too(self):
        spec = _create("dear", compute_scales=SKEWED)
        with pytest.raises(ValueError, match="bad options"):
            spec.replace(options={"fusion": "buffer"})

    def test_zero_planning_scale_of_a_workload_run(self):
        with pytest.raises(ValueError, match="planning rank"):
            _create("wfbp", compute_scales=(0.0, 1.0, 1.0, 1.0), workload="moe")
        # Uniform zero scales collapse to one rank, which plans nothing.
        _create("wfbp", compute_scales=(0.0,) * 4, workload="moe").run()


#: Well-typed values of every option some run takes, plus names no run
#: takes: the property is about which names reach which run.
_OPTION_VALUES = {
    "fusion": st.sampled_from(["none", "layers", "buffer", "bo"]),
    "buffer_bytes": st.none() | st.floats(1e5, 1e8),
    "fusion_buffer_bytes": st.none() | st.floats(1e5, 1e8),
    "layers_per_group": st.integers(1, 4),
    "bo_trials": st.integers(1, 2),
    "bo_seed": st.integers(0, 3),
    "bo_low": st.floats(1e5, 1e6),
    "bo_high": st.floats(1e7, 1e8),
    "cycle_time": st.floats(0.0, 1e-3),
    "launch_overhead": st.floats(0.0, 1e-4),
    "startup_scale": st.floats(0.0, 2.0),
    "partition_bytes": st.floats(1e5, 1e8),
    "negotiate": st.booleans(),
    "credit": st.integers(1, 3),
    "fastpath": st.booleans(),
    "trace": st.booleans(),
    "collapse": st.booleans(),
    "bogus": st.integers(),
}

_OPTION_NAMES = sorted(_OPTION_VALUES)


@st.composite
def _create_arguments(draw) -> tuple[str, dict]:
    """A scheduler and ``create`` keywords: mostly options its run
    takes, sometimes one more name from any run, or none."""
    scheduler = draw(st.sampled_from(SCHEDULER_NAMES))
    kwargs = {"workload": draw(st.sampled_from([None, "moe"]))}
    if scheduler in POLICIES:
        kwargs["compute_scales"] = draw(st.sampled_from(
            [None, SKEWED, (1.0,) * 4, (0.0, 1.0, 1.0, 1.0)]
        ))
    if kwargs.get("compute_scales") is None:
        own = inspect.signature(type(get_scheduler(scheduler))).parameters
    else:
        own = ["fusion_buffer_bytes"]
    names = draw(st.lists(
        st.sampled_from(sorted({*own, "fastpath"})), max_size=3, unique=True
    ))
    names.append(draw(st.none() | st.sampled_from(_OPTION_NAMES)))
    for name in names:
        if name is not None:
            kwargs[name] = draw(_OPTION_VALUES[name])
    return scheduler, kwargs


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(arguments=_create_arguments())
def test_every_accepted_spec_runs(arguments):
    scheduler, kwargs = arguments
    try:
        spec = _create(scheduler, **kwargs)
    except ValueError:
        return
    direct = spec.run()
    (batched,) = run_many([spec], jobs=1, cache=ResultCache(enabled=False))
    assert batched.iteration_times == direct.iteration_times

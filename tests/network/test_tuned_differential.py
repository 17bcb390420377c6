"""Differential pin: tuning off means NOTHING moves, bit-for-bit.

Two guarantees the whole PR rests on:

- ``algorithm="auto"`` with no table behaves exactly like the plain
  ring model — every scheduler's span timestamps are bit-identical and
  the exported Chrome traces are byte-identical;
- the protocol-aware path at the parity config (ring / Simple /
  calibrated channels / one chunk) is the plain scalar path.
"""

import pytest

from repro.models import get_model
from repro.network.autotuner import build_selection_table, clear_tables
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import SCHEDULER_NAMES, simulate


@pytest.fixture(autouse=True)
def _no_ambient_tables():
    clear_tables()
    yield
    clear_tables()


def _spans(result):
    return [
        (span.name, span.category, span.start, span.end)
        for span in result.tracer.spans
    ]


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_auto_without_table_is_bit_identical(scheduler):
    model = get_model("resnet50")
    cluster = cluster_10gbe()
    ring = simulate(scheduler, model, cluster, iterations=3, trace=True)
    auto = simulate(scheduler, model, cluster, iterations=3, algorithm="auto", trace=True)
    assert auto.iteration_time == ring.iteration_time
    assert auto.iteration_times == ring.iteration_times
    assert _spans(auto) == _spans(ring)
    assert auto.tracer.to_chrome_trace() == ring.tracer.to_chrome_trace()


@pytest.mark.parametrize("scheduler", ("dear", "horovod"))
def test_auto_with_table_changes_results_on_ib(scheduler):
    """The converse guard: with a table loaded, auto is NOT ring."""
    from repro.network.presets import cluster_100gbib

    model = get_model("resnet50")
    cluster = cluster_100gbib()
    table = build_selection_table(cluster)
    ring = simulate(scheduler, model, cluster, iterations=3)
    auto = simulate(scheduler, model, cluster, iterations=3,
                    algorithm="auto", tuned_table=table)
    assert auto.iteration_time < ring.iteration_time


def test_registered_table_is_picked_up_by_simulate():
    from repro.network.autotuner import register_table
    from repro.network.presets import cluster_100gbib

    model = get_model("resnet50")
    cluster = cluster_100gbib()
    ring = simulate("dear", model, cluster, iterations=3)
    register_table(build_selection_table(cluster))
    auto = simulate("dear", model, cluster, iterations=3, algorithm="auto")
    assert auto.iteration_time < ring.iteration_time


def test_runspec_pins_untuned_against_ambient_tables():
    """A spec snapshotted without a table must ignore later registration."""
    from repro.network.autotuner import register_table
    from repro.network.presets import cluster_100gbib
    from repro.runner.spec import RunSpec

    cluster = cluster_100gbib()
    spec = RunSpec.create("dear", "resnet50", cluster, algorithm="auto")
    assert spec.tuned_table is None
    baseline = spec.run()
    register_table(build_selection_table(cluster))
    assert spec.run().iteration_time == baseline.iteration_time


def test_runspec_snapshots_registered_table():
    from repro.network.autotuner import register_table
    from repro.network.presets import cluster_100gbib
    from repro.runner.spec import RunSpec

    cluster = cluster_100gbib()
    register_table(build_selection_table(cluster))
    spec = RunSpec.create("dear", "resnet50", cluster, algorithm="auto")
    assert spec.tuned_table is not None
    tuned = spec.run()
    clear_tables()
    # The embedded table keeps working with the registry empty.
    assert spec.run().iteration_time == tuned.iteration_time
    ring = RunSpec.create("dear", "resnet50", cluster).run()
    assert tuned.iteration_time < ring.iteration_time


def test_tuned_table_changes_fingerprint():
    from repro.network.presets import cluster_100gbib
    from repro.runner.spec import RunSpec

    cluster = cluster_100gbib()
    table = build_selection_table(cluster)
    plain = RunSpec.create("dear", "resnet50", cluster, algorithm="auto")
    tuned = RunSpec.create("dear", "resnet50", cluster, algorithm="auto",
                           tuned_table=table)
    assert plain.fingerprint != tuned.fingerprint

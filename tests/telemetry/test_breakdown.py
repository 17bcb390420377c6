"""Tests for the trace-derived Fig. 8 breakdown."""

import pytest

from repro.models.zoo import get_model
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import simulate
from repro.sim.trace import Tracer
from repro.telemetry.breakdown import (
    CategoryBreakdown,
    exposed_in_window,
    format_breakdown_table,
    steady_state_window,
    total_in_window,
    trace_breakdown,
)
from repro.workloads import WORKLOAD_NAMES


def _two_iteration_tracer() -> Tracer:
    """Two iterations: ff 0..1, bp 1..3, ar 2..5; repeat offset by 6."""
    tracer = Tracer()
    for iteration, base in ((0, 0.0), (1, 6.0)):
        tracer.record(f"ff.{iteration}.0", "ff", "gpu.compute", base, base + 1.0)
        tracer.record(f"bp.{iteration}.0", "bp", "gpu.compute", base + 1.0, base + 3.0)
        tracer.record(
            f"all_reduce.{iteration}.g0", "comm.ar", "gpu.comm",
            base + 2.0, base + 5.0,
        )
    return tracer


class TestSteadyStateWindow:
    def test_last_two_ff_starts(self):
        assert steady_state_window(_two_iteration_tracer()) == (0.0, 6.0)

    def test_single_iteration_raises(self):
        tracer = Tracer()
        tracer.record("ff.0.0", "ff", "gpu", 0.0, 1.0)
        with pytest.raises(ValueError, match="fewer than two"):
            steady_state_window(tracer)

    def test_ignores_non_first_layers_and_other_categories(self):
        tracer = _two_iteration_tracer()
        tracer.record("ff.2.1", "ff", "gpu.compute", 12.0, 13.0)  # layer 1
        tracer.record("ff.9.0", "bp", "gpu.compute", 20.0, 21.0)  # wrong category
        assert steady_state_window(tracer) == (0.0, 6.0)

    def test_unordered_span_list(self):
        tracer = Tracer()
        tracer.record("ff.1.0", "ff", "gpu", 6.0, 7.0)
        tracer.record("ff.0.0", "ff", "gpu", 0.0, 1.0)
        assert steady_state_window(tracer) == (0.0, 6.0)

    def test_measured_window_wins(self):
        tracer = _two_iteration_tracer()
        tracer.window = (1.0, 2.0)
        assert steady_state_window(tracer) == (1.0, 2.0)

    def test_window_is_not_serialised(self):
        tracer = _two_iteration_tracer()
        before = tracer.to_chrome_trace()
        tracer.window = (0.0, 6.0)
        assert tracer.to_chrome_trace() == before

    def test_traced_run_records_its_window(self, tiny_model, ethernet_cluster):
        result = simulate("wfbp", tiny_model, ethernet_cluster,
                          iteration_compute=0.03, trace=True)
        window = result.tracer.window
        assert window[1] - window[0] == result.iteration_time


class TestWindowArithmetic:
    def test_exposed_subtracts_compute(self):
        tracer = _two_iteration_tracer()
        # In window (0, 6): ar covers 2..5, bp covers 1..3 -> exposed 3..5.
        exposed = exposed_in_window(tracer, ("comm.ar",), (0.0, 6.0))
        assert exposed == pytest.approx(2.0)

    def test_exactly_touching_compute_hides_nothing_extra(self):
        tracer = Tracer()
        tracer.record("ff.0.0", "ff", "gpu", 0.0, 1.0)
        tracer.record("c", "comm.ar", "net", 1.0, 2.0)  # touches ff at t=1
        assert exposed_in_window(tracer, ("comm.ar",), (0.0, 2.0)) == pytest.approx(1.0)

    def test_zero_length_span_contributes_nothing(self):
        tracer = Tracer()
        tracer.record("c", "comm.ar", "net", 1.0, 1.0)
        assert total_in_window(tracer, ("comm.ar",), (0.0, 2.0)) == 0.0
        assert exposed_in_window(tracer, ("comm.ar",), (0.0, 2.0)) == 0.0

    def test_window_clipping(self):
        tracer = _two_iteration_tracer()
        # ar of iteration 0 spans 2..5; clip to (4, 6).
        assert total_in_window(tracer, ("comm.ar",), (4.0, 6.0)) == pytest.approx(1.0)


class TestTraceBreakdown:
    def test_rows_and_comm_all(self):
        rows = trace_breakdown(_two_iteration_tracer())
        by_category = {row.category: row for row in rows}
        assert by_category["ff"].total == pytest.approx(1.0)
        assert by_category["ff"].exposed == by_category["ff"].total
        assert by_category["bp"].hidden == 0.0
        assert by_category["comm.ar"].total == pytest.approx(3.0)
        assert by_category["comm.ar"].exposed == pytest.approx(2.0)
        assert by_category["comm.ar"].hidden == pytest.approx(1.0)
        assert by_category["comm (all)"].exposed == pytest.approx(2.0)

    def test_zero_total_categories_skipped(self):
        tracer = _two_iteration_tracer()
        tracer.record("noop", "comm.rs", "gpu.comm", 20.0, 21.0)  # outside window
        rows = trace_breakdown(tracer, window=(0.0, 6.0))
        assert "comm.rs" not in {row.category for row in rows}

    def test_hidden_property(self):
        row = CategoryBreakdown("comm.ar", total=3.0, exposed=1.0)
        assert row.hidden == pytest.approx(2.0)

    @pytest.mark.parametrize("scheduler,options", [
        ("serial", {}),
        ("wfbp", {"buffer_bytes": 25e6}),
        ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
        ("zero", {}),
    ])
    def test_exposed_matches_schedule_result_exactly(
        self, scheduler, options, tiny_model, ethernet_cluster
    ):
        """The table's comm (all) row IS ScheduleResult.exposed_comm.

        Not approximately: the breakdown replays the simulator's own
        interval arithmetic on the same floats, so the values must be
        identical bit for bit.
        """
        result = simulate(
            scheduler, tiny_model, ethernet_cluster,
            iteration_compute=0.03, trace=True, **options,
        )
        window = steady_state_window(result.tracer)
        rows = trace_breakdown(result.tracer, window)
        comm_all = next(row for row in rows if row.category == "comm (all)")
        assert comm_all.exposed == result.exposed_comm
        rs = [row for row in rows if row.category == "comm.rs"]
        if rs:
            assert rs[0].exposed == result.exposed_rs
        ag = [row for row in rows if row.category == "comm.ag"]
        if ag:
            assert ag[0].exposed == result.exposed_ag


class TestFormatTable:
    def test_table_contains_categories_and_window(self):
        tracer = _two_iteration_tracer()
        window = steady_state_window(tracer)
        text = format_breakdown_table(trace_breakdown(tracer, window), window)
        assert "steady-state window" in text
        assert "comm (all)" in text
        assert "exposed_ms" in text
        # ar total is 3000 ms in-window? No: 3.0 s -> 3000.000 ms.
        assert "3000.000" in text

    def test_zero_span_window_no_division_error(self):
        rows = [CategoryBreakdown("ff", 0.0, 0.0)]
        text = format_breakdown_table(rows, (1.0, 1.0))
        assert "0.0%" in text


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scheduler,options", [
    ("wfbp", {}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
])
def test_comm_all_matches_exposed_comm_on_workload_dags(scheduler, options, workload):
    """Every collective category, and every compute category, counts.

    DAG workloads add all-to-all and point-to-point traffic and generic
    ``compute`` kernels, and their first forward kernels are not named
    ``ff.<i>.0``: the table must still find the measured window and
    agree with the run exactly.
    """
    result = simulate(
        scheduler, get_model("resnet50"), cluster_10gbe(), workload=workload,
        trace=True, **options,
    )
    rows = trace_breakdown(result.tracer)
    comm_all = next(row for row in rows if row.category == "comm (all)")
    assert comm_all.exposed == result.exposed_comm

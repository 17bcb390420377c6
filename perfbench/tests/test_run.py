"""Reporting rules, the environment guard, checks, and BENCHMARK.json."""

import json
import math
from types import SimpleNamespace

from perfbench import run, stats, workloads
from perfbench.workloads import Window, invariant_errors, match_errors


def test_percentile_rule_drops_p90_without_ten_samples_beyond():
    # 91 samples: p90 is 81.0 and 9 samples lie beyond; 92: 81.9 and 10.
    assert stats.reportable_percentile([float(i) for i in range(91)], 90) is None
    value = stats.reportable_percentile([float(i) for i in range(92)], 90)
    assert value is not None and 81.0 < value < 82.0
    assert stats.reportable_percentile([1.0] * 500, 90) is None  # nothing beyond
    assert stats.reportable_percentile([float(i) for i in range(21)], 50) == 10.0


def test_environment_guard():
    assert run.environment_errors({}) == []
    assert run.environment_errors({"DEAR_FASTPATH": "1", "DEAR_TELEMETRY": "true"}) == []
    for bad in ({"DEAR_FASTPATH": "0"}, {"DEAR_BATCHED": "off"},
                {"DEAR_TELEMETRY": "0"}, {"DEAR_JOBS": "2"}, {"DEAR_CACHE": "0"}):
        assert run.environment_errors(bad), bad


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _result(**fields):
    base = dict(iteration_time=0.2, exposed_comm=0.05, iteration_times=(0.2,) * 4,
                t_ff=0.1, t_bp=0.1, exposed_rs=0.0, exposed_ag=0.0)
    base.update(fields)
    return SimpleNamespace(**base)


def test_invariant_checks():
    assert invariant_errors(_result(), 5) == []
    assert invariant_errors(_result(iteration_time=math.nan), 5)
    assert invariant_errors(_result(iteration_time=-1.0), 5)
    assert invariant_errors(_result(exposed_comm=0.3), 5)
    assert invariant_errors(_result(), 6)


def test_event_kernel_match_is_1e9_relative():
    assert match_errors(_result(), _result(iteration_time=0.2 * (1 + 1e-12))) == []
    assert match_errors(_result(), _result(iteration_time=0.2 * (1 + 1e-6)))
    assert match_errors(_result(), _result(iteration_times=(0.2,) * 3))


def test_failed_checks_count_once_per_op():
    window = Window()
    window.fail(3, "a")
    window.fail(3, "b")
    window.fail(None, "sample")
    assert len(window.failed_ops) == 2 and len(window.errors) == 3


def test_a_spoiled_result_fails_its_check(tmp_path):
    workload = workloads.make_workload("sweep_cold", 1, str(tmp_path))
    spec = SimpleNamespace(iterations=5, label="wfbp/resnet50")
    window = Window()
    window.records = [(0, [spec, spec], [_result(), _result()]),
                      (1, [spec], [_result()])]
    workload.check(window, sample=False)
    assert not window.failed_ops
    workload.spoil(window)
    workload.check(window, sample=False)
    assert window.failed_ops == {0}

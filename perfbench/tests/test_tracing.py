"""Spans: self times close to the op's wall time; hooks wrap and unwrap."""

import time

from perfbench import tracing, worker
from perfbench.workloads import Window


def _nested_op(recorder, op):
    recorder.op = op
    with recorder.span("bench.op"):
        time.sleep(0.002)
        with recorder.span("runner.run_many"):
            with recorder.span("runner.spec.fingerprint"):
                time.sleep(0.001)
            with recorder.span("runner.cache.get"):
                with recorder.span("runner.spec.fingerprint"):
                    time.sleep(0.001)
                time.sleep(0.001)
        with recorder.excluded():
            time.sleep(0.01)  # a probe: off the clock
    recorder.op = None


def test_self_times_plus_residual_add_up_to_op_wall_time():
    recorder = tracing.Recorder()
    for op in range(3):
        _nested_op(recorder, op)
    selfs = tracing.self_times(recorder.spans)
    for root in (s for s in recorder.spans if s.parent is None):
        own = [s for s in recorder.spans if s.op == root.op]
        assert len(own) == 5
        wall = root.end - root.start
        assert abs(sum(selfs[s.id] for s in own) - wall) < 1e-9
        # The excluded probe does not count toward the op.
        assert wall < 0.009
    layers = tracing.layer_seconds(recorder.spans)
    assert set(layers) == {
        "bench.op", "runner.run_many", "runner.spec.fingerprint", "runner.cache.get",
    }
    assert all(seconds >= 0.0 for seconds in layers.values())


def test_synthetic_child_splits_its_parent():
    recorder = tracing.Recorder()
    recorder.op = 0
    with recorder.span("bench.op"):
        with recorder.span("schedulers.record") as span:
            time.sleep(0.003)
        recorder.child(span, "network.pricing", 0.001)
    selfs = tracing.self_times(recorder.spans)
    by_name = {s.name: selfs[s.id] for s in recorder.spans}
    assert abs(by_name["network.pricing"] - 0.001) < 1e-12
    record = next(s for s in recorder.spans if s.name == "schedulers.record")
    assert abs(by_name["schedulers.record"] - (record.end - record.start - 0.001)) < 1e-12


def test_install_traces_a_real_run_and_uninstall_restores(tmp_path):
    from repro.runner import executor
    from repro.runner.cache import ResultCache
    from repro.runner.spec import RunSpec
    from repro.schedulers.base import Scheduler

    original_fingerprint = RunSpec.__dict__["fingerprint"]
    original_run_many = executor.run_many
    original_record = Scheduler.__dict__["record_fast"]
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        specs = [
            RunSpec.create("wfbp", "resnet50", "10gbe", batch_size=17),
            RunSpec.create("bytescheduler", "resnet50", "10gbe", batch_size=17),
        ]
        recorder.op = 0
        with recorder.span("bench.op"):
            executor.run_many(specs, jobs=1, cache=ResultCache(root=tmp_path))
        recorder.op = None
    finally:
        uninstall()
    assert RunSpec.__dict__["fingerprint"] is original_fingerprint
    assert executor.run_many is original_run_many
    assert Scheduler.__dict__["record_fast"] is original_record

    names = {s.name for s in recorder.spans}
    assert {
        "runner.run_many", "runner.spec.fingerprint", "runner.cache.get",
        "runner.cache.put", "runner.batched", "models.timing", "schedulers.record",
        "network.pricing", "schedulers.measure", "sim.replay", "schedulers.run",
        "sim.event",
    } <= names
    window = Window()
    window.add_time(1.0, 1.0, 1.0)
    layers = worker.breakdown(window, recorder.spans, recorder.counts, ops=1)
    assert layers["bench.closure_error_s"] < 1e-9
    assert layers["runner.spec.fingerprint_calls"] >= 2

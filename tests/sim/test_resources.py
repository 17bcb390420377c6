"""Unit tests for execution streams."""

import pytest

from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.engine import IterationContext
from repro.sim.engine import Simulator
from repro.sim.resources import DeferredDuration, Stream
from repro.sim.trace import Tracer


class TestStream:
    def test_jobs_run_in_submission_order(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        first = stream.submit(2.0, name="first")
        second = stream.submit(1.0, name="second")
        sim.run()
        assert first.start == 0.0 and first.end == 2.0
        assert second.start == 2.0 and second.end == 3.0

    def test_gate_stalls_stream(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        gate = sim.event()
        sim.schedule(5.0, gate.succeed)
        gated = stream.submit(1.0, name="gated", gate=gate)
        follower = stream.submit(1.0, name="follower")
        sim.run()
        assert gated.start == 5.0
        assert follower.start == 6.0  # FIFO: cannot overtake the stalled job

    def test_pre_triggered_gate_does_not_stall(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        gate = sim.event()
        gate.succeed()
        job = stream.submit(1.0, gate=gate)
        sim.run()
        assert job.start == 0.0

    def test_deferred_body_resolved_at_start(self):
        class StartPriced(DeferredDuration):
            def resolve(self, start):
                return start

        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(3.0)
        timed = stream.submit(StartPriced(), name="dynamic")
        sim.run()
        # the deferred body resolved to its start time (=3.0)
        assert timed.start == 3.0 and timed.end == 6.0

    def test_generator_body_runs_as_subprocess(self):
        sim = Simulator()
        stream = Stream(sim, "s")

        def body():
            yield 1.0
            yield 2.0

        job = stream.submit(body(), name="gen")
        follower = stream.submit(1.0)
        sim.run()
        assert job.end == 3.0
        assert follower.start == 3.0

    def test_barrier_marks_drain_point(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(1.5)
        stream.submit(2.5)
        barrier = stream.submit(0.0, name="barrier")
        sim.run()
        assert barrier.end == 4.0

    def test_wait_event_stalls_until_event(self):
        """A zero-duration gated job is ``cudaStreamWaitEvent``."""
        sim = Simulator()
        stream = Stream(sim, "s")
        evt = sim.event()
        sim.schedule(4.0, evt.succeed)
        stream.submit(0.0, name="wait", gate=evt)
        job = stream.submit(1.0)
        sim.run()
        assert job.start == 4.0

    def test_busy_time_accumulates(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(1.0)
        stream.submit(2.0)
        sim.run()
        assert stream.busy_time == pytest.approx(3.0)
        assert stream.jobs_completed == 2

    def test_spans_recorded_in_tracer(self, tiny_model, ethernet_cluster):
        tracer = Tracer()
        ctx = IterationContext(
            TimingModel.for_model(tiny_model, iteration_compute=0.03),
            CollectiveTimeModel(ethernet_cluster), tracer=tracer,
        )
        stream = ctx.stream("s", actor="gpu0")
        stream.submit(1.0, name="work", category="compute")
        ctx.run()
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.actor == "gpu0"
        assert (span.start, span.end) == (0.0, 1.0)

    def test_zero_duration_jobs_not_traced(self):
        sim = Simulator()
        log = []
        stream = Stream(sim, "s", log=log)
        stream.submit(0.0, name="marker")
        work = stream.submit(1.0, name="work")
        sim.run()
        assert log == [("s", work)]

    def test_done_event_carries_job(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        job = stream.submit(1.0)
        collected = []
        job.done.add_callback(lambda e: collected.append(e.value))
        sim.run()
        assert collected == [job]

    def test_two_streams_run_concurrently(self):
        sim = Simulator()
        a = Stream(sim, "a")
        b = Stream(sim, "b")
        job_a = a.submit(2.0)
        job_b = b.submit(2.0)
        sim.run()
        assert job_a.start == 0.0 and job_b.start == 0.0
        assert sim.now == 2.0

    def test_job_submitted_to_idle_stream_starts_at_submission(self):
        """A driver process submitting mid-run, as ByteScheduler's
        credit channels do, starts the job at once on an idle stream."""
        sim = Simulator()
        stream = Stream(sim, "s")
        jobs = []

        def driver():
            yield 2.5
            job = stream.submit(1.0, name="late")
            jobs.append(job)
            yield job.done
            yield 0.5
            jobs.append(stream.submit(2.0, name="later"))

        sim.process(driver())
        sim.run()
        assert [(job.start, job.end) for job in jobs] == [(2.5, 3.5), (4.0, 6.0)]
        assert stream.outstanding == 0

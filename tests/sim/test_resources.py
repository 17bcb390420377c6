"""Unit tests for FIFO queues and execution streams."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import DeferredDuration, FifoQueue, Stream
from repro.sim.trace import Tracer


class TestFifoQueue:
    def test_put_then_get(self):
        sim = Simulator()
        queue = FifoQueue(sim)
        queue.put("x")
        evt = queue.get()
        sim.run()
        assert evt.value == "x"

    def test_get_then_put_wakes_waiter(self):
        sim = Simulator()
        queue = FifoQueue(sim)
        evt = queue.get()
        assert not evt.triggered
        queue.put("y")
        sim.run()
        assert evt.value == "y"

    def test_fifo_ordering_of_items(self):
        sim = Simulator()
        queue = FifoQueue(sim)
        for item in (1, 2, 3):
            queue.put(item)
        values = [queue.get(), queue.get(), queue.get()]
        sim.run()
        assert [v.value for v in values] == [1, 2, 3]

    def test_fifo_ordering_of_waiters(self):
        sim = Simulator()
        queue = FifoQueue(sim)
        first, second = queue.get(), queue.get()
        queue.put("a")
        queue.put("b")
        sim.run()
        assert first.value == "a" and second.value == "b"

    def test_len_counts_queued_items(self):
        sim = Simulator()
        queue = FifoQueue(sim)
        assert len(queue) == 0
        queue.put(1)
        queue.put(2)
        assert len(queue) == 2


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
        gate = sim.timeout(5.0)
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
        barrier = stream.barrier()
        sim.run()
        assert barrier.end == 4.0

    def test_wait_event_stalls_until_event(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        evt = sim.timeout(4.0)
        stream.wait_event(evt)
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

    def test_spans_recorded_in_tracer(self):
        sim = Simulator()
        tracer = Tracer()
        stream = Stream(sim, "s", tracer=tracer, actor="gpu0")
        stream.submit(1.0, name="work", category="compute")
        sim.run()
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.actor == "gpu0"
        assert (span.start, span.end) == (0.0, 1.0)

    def test_zero_duration_jobs_not_traced(self):
        sim = Simulator()
        tracer = Tracer()
        stream = Stream(sim, "s", tracer=tracer)
        stream.barrier()
        sim.run()
        assert tracer.spans == []

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

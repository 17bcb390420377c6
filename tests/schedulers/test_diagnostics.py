"""Deadlock detection and stall diagnostics in the scheduler engine."""

import pytest

from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.engine import IterationContext
from repro.sim.engine import Simulator
from repro.sim.resources import Stream
from tests.conftest import build_tiny_model


@pytest.fixture()
def ctx(ethernet_cluster):
    timing = TimingModel.for_model(build_tiny_model(), iteration_compute=0.03)
    return IterationContext(timing, CollectiveTimeModel(ethernet_cluster))


class TestQuiescenceCheck:
    def test_clean_schedule_passes(self, ctx):
        ctx.submit_forward_pass(0)
        ctx.submit_collective("all_reduce", 1e6, 0, "g0")
        ctx.run()  # no error

    def test_never_triggered_gate_detected(self, ctx):
        orphan = ctx.sim.event(name="never")
        ctx.submit_forward_pass(0, first_gate=orphan)
        with pytest.raises(RuntimeError, match="deadlock"):
            ctx.run()

    def test_stalled_job_named_in_report(self, ctx):
        orphan = ctx.sim.event(name="never")
        ctx.submit_collective("all_gather", 1e6, 3, "g7", gate=orphan)
        with pytest.raises(RuntimeError, match="all_gather.3.g7"):
            ctx.run()

    def test_jobs_behind_stall_counted(self, ethernet_cluster):
        # Three layers: the gated first FF job and two behind it.
        timing = TimingModel.for_model(
            build_tiny_model(num_blocks=1), iteration_compute=0.03
        )
        ctx = IterationContext(timing, CollectiveTimeModel(ethernet_cluster))
        orphan = ctx.sim.event(name="never")
        ctx.submit_forward_pass(0, first_gate=orphan)
        with pytest.raises(RuntimeError, match="2 queued behind"):
            ctx.run()

    def test_cross_stream_cycle_detected(self, ctx):
        """Compute waits on comm which waits on compute: a real cycle."""
        comm_job = None

        compute_gate = ctx.sim.event(name="compute_gate")
        ff = ctx.submit_forward_pass(0, first_gate=compute_gate)
        comm_job = ctx.submit_collective(
            "all_reduce", 1e6, 0, "g0", gate=ff[0].done
        )
        comm_job.done.add_callback(lambda e: compute_gate.succeed())
        with pytest.raises(RuntimeError, match="deadlock"):
            ctx.run()


class TestStallReport:
    def test_quiescent_report(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(1.0)
        sim.run()
        assert "quiescent" in stream.stall_report()

    def test_pending_gate_report(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(1.0, name="blocked", gate=sim.event())
        sim.run()
        report = stream.stall_report()
        assert "blocked" in report
        assert "GATE PENDING" in report

    def test_outstanding_count(self):
        sim = Simulator()
        stream = Stream(sim, "s")
        stream.submit(1.0, gate=sim.event())
        stream.submit(1.0)
        sim.run()
        assert stream.outstanding == 2

"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def _fires_at(sim, delay, value=None):
    """An event the kernel succeeds with ``value`` after ``delay``."""
    event = sim.event()
    sim.schedule(delay, lambda: event.succeed(value))
    return event


class TestSimulatorBasics:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_schedule_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]
        assert sim.now == 2.5

    def test_schedule_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(2.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_simultaneous_callbacks_fire_in_submission_order(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(42)
        assert evt.triggered and evt.value == 42

    def test_double_trigger_rejected(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_callback_after_trigger_still_runs(self):
        sim = Simulator()
        evt = sim.event()
        evt.succeed(7)
        got = []
        evt.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [7]


class TestProcess:
    def test_process_returns_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"
        assert sim.now == 1.0

    def test_yield_event_receives_its_value(self):
        sim = Simulator()
        evt = sim.event()
        sim.schedule(2.0, lambda: evt.succeed("signal"))

        def proc():
            got = yield evt
            return got

        p = sim.process(proc())
        sim.run()
        assert p.value == "signal"

    def test_yield_process_waits_for_completion(self):
        sim = Simulator()

        def child():
            yield 3.0
            return 99

        def parent():
            result = yield sim.process(child())
            return result + 1

        p = sim.process(parent())
        sim.run()
        assert p.value == 100
        assert sim.now == 3.0

    def test_unobserved_exception_propagates_from_run(self):
        sim = Simulator()

        def bad():
            yield 1.0
            raise ValueError("boom")

        sim.process(bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_exception_escapes_run_even_when_awaited(self):
        sim = Simulator()

        def bad():
            yield 1.0
            raise ValueError("boom")

        def waiter():
            try:
                yield sim.process(bad())
            except ValueError:
                return "caught"

        p = sim.process(waiter())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert not p.triggered
        assert sim.now == 1.0

    def test_yield_unsupported_value_is_error(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_is_error(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()


class TestCombinators:
    def test_all_of_collects_values_in_order(self):
        sim = Simulator()
        first = _fires_at(sim, 2.0, value="a")
        second = _fires_at(sim, 1.0, value="b")
        combined = sim.all_of([first, second])
        fired = []
        combined.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert combined.value == ["a", "b"]
        assert fired == [2.0]

    def test_all_of_empty_triggers_immediately(self):
        sim = Simulator()
        combined = sim.all_of([])
        sim.run()
        assert combined.triggered and combined.value == []


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(tag, delay):
                yield delay
                log.append((sim.now, tag))
                yield delay
                log.append((sim.now, tag))

            for index in range(5):
                sim.process(worker(index, 0.1 * (index + 1)))
            sim.run()
            return log

        assert build_and_run() == build_and_run()

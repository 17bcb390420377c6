"""Property fuzzing of the simulation kernel with random job DAGs.

Generates random two-stream schedules (random durations, random gate
edges that always point backward, so they are acyclic) and asserts the
execution-order invariants every schedule must satisfy:

- no job starts before its gate triggered;
- each stream executes jobs in submission order;
- jobs on a stream never overlap;
- every job completes (acyclic gates cannot deadlock);
- the makespan is at least the critical-path length of either stream.

The same random schedules, recorded into :class:`~repro.sim.fastpath.
Timeline` at one and three ranks, with random rendezvous collectives,
deferred durations and one or two configs per replay, must reproduce the
event kernel's timestamps exactly and keep the invariants above plus one
shared end per collective across ranks.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.schedulers.multirank import _Collective
from repro.sim.engine import Simulator
from repro.sim.fastpath import (
    DeferredDuration,
    DeferredRankDurations,
    Timeline,
    replay,
)
from repro.sim.resources import Stream


@st.composite
def random_schedules(draw):
    """A list of job specs: (stream id, duration, gate target or None).

    Gate targets only reference *earlier* jobs, guaranteeing acyclicity.
    """
    count = draw(st.integers(1, 25))
    jobs = []
    for index in range(count):
        stream_id = draw(st.integers(0, 1))
        duration = draw(
            st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
        )
        gate_target = None
        if index > 0 and draw(st.booleans()):
            gate_target = draw(st.integers(0, index - 1))
        jobs.append((stream_id, duration, gate_target))
    return jobs


class TestScheduleFuzz:
    @settings(deadline=None, max_examples=60)
    @given(spec=random_schedules())
    def test_execution_invariants(self, spec):
        sim = Simulator()
        streams = [Stream(sim, "s0"), Stream(sim, "s1")]
        jobs = []
        for index, (stream_id, duration, gate_target) in enumerate(spec):
            gate = jobs[gate_target].done if gate_target is not None else None
            jobs.append(
                streams[stream_id].submit(
                    duration, name=f"job{index}", gate=gate
                )
            )
        sim.run()

        # Everything completed (acyclic gates cannot deadlock).
        for stream in streams:
            assert stream.outstanding == 0
        for job in jobs:
            assert job.start is not None and job.end is not None
            assert job.end >= job.start

        # Gates respected.
        for index, (_, _, gate_target) in enumerate(spec):
            if gate_target is not None:
                assert jobs[index].start >= jobs[gate_target].end - 1e-12

        # Per-stream FIFO without overlap.
        for stream_id in (0, 1):
            stream_jobs = [
                job for job, (sid, _, _) in zip(jobs, spec) if sid == stream_id
            ]
            for earlier, later in zip(stream_jobs, stream_jobs[1:]):
                assert later.start >= earlier.end - 1e-12

        # Makespan lower bound: each stream's total work.
        for stream_id in (0, 1):
            total = sum(
                duration for sid, duration, _ in spec if sid == stream_id
            )
            assert sim.now >= total - 1e-9

    @settings(deadline=None, max_examples=30)
    @given(spec=random_schedules())
    def test_determinism(self, spec):
        def run():
            sim = Simulator()
            streams = [Stream(sim, "s0"), Stream(sim, "s1")]
            jobs = []
            for index, (stream_id, duration, gate_target) in enumerate(spec):
                gate = jobs[gate_target].done if gate_target is not None else None
                jobs.append(streams[stream_id].submit(duration, gate=gate))
            sim.run()
            return [(job.start, job.end) for job in jobs]

        assert run() == run()


# -- recorded timelines against the event kernel -----------------------------


def _slowed(base: float, start: float) -> float:
    """A start-dependent duration: doubled before t=3 (a fault window)."""
    return base * 2.0 if start < 3.0 else base


class _SlowedDuration(DeferredDuration):
    __slots__ = ("base",)

    def __init__(self, base: float):
        self.base = base

    def resolve(self, start: float) -> float:
        return _slowed(self.base, start)


class _SlowedRanks(DeferredRankDurations):
    __slots__ = ("bases",)

    def __init__(self, bases: list[float]):
        self.bases = bases

    def resolve(self, starts: np.ndarray) -> np.ndarray:
        return np.array([
            _slowed(base, start)
            for base, start in zip(self.bases, starts.tolist())
        ])


@st.composite
def recorded_schedules(draw):
    """(world, configs, slots); a slot is (stream, collective, gate ids,
    per-config durations, per-config deferred flag).

    A collective carries one duration per config, a per-rank slot one
    per rank; gates only reference earlier slots.
    """
    world = draw(st.sampled_from((1, 3)))
    configs = draw(st.sampled_from((1, 2)))
    durations = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
    slots = []
    for index in range(draw(st.integers(1, 25))):
        collective = draw(st.booleans())
        gate_ids = ()
        if index and draw(st.booleans()):
            gate_ids = tuple(draw(st.lists(
                st.integers(0, index - 1), min_size=1, max_size=3, unique=True
            )))
        width = 1 if collective else world
        values = [draw(st.lists(durations, min_size=width, max_size=width))
                  for _ in range(configs)]
        deferred = [draw(st.booleans()) and draw(st.booleans())
                    for _ in range(configs)]
        slots.append(
            (draw(st.integers(0, 1)), collective, gate_ids, values, deferred)
        )
    return world, configs, slots


def _record_timeline(world, slots, config):
    timeline = Timeline(world)
    streams = [timeline.stream("s0"), timeline.stream("s1")]
    handles = []
    for sid, collective, gate_ids, values, deferred in slots:
        gate = (
            timeline.sim.all_of([handles[g].done for g in gate_ids])
            if gate_ids else None
        )
        durations = values[config]
        if collective or world == 1:
            body = (_SlowedDuration(durations[0]) if deferred[config]
                    else durations[0])
        else:
            body = (_SlowedRanks(durations) if deferred[config]
                    else np.array(durations))
        submit = streams[sid].submit_collective if collective else streams[sid].submit
        handles.append(submit(body, name=f"slot{len(handles)}", gate=gate))
    return timeline, handles


def _event_kernel(world, slots, config):
    """Per-rank ``(start, end)`` of every slot on the event kernel, with
    the multi-rank engine's rendezvous for collectives."""
    sim = Simulator()
    streams = [[Stream(sim, f"rank{rank}.s{sid}") for rank in range(world)]
               for sid in (0, 1)]
    done = []
    jobs = []
    for index, (sid, collective, gate_ids, values, deferred) in enumerate(slots):
        durations = values[config]
        slowed = deferred[config]
        if collective:
            rendezvous = _Collective(
                sim, world,
                _SlowedDuration(durations[0]) if slowed else durations[0],
                f"slot{index}",
            )
        row = []
        for rank in range(world):
            gate = None
            if gate_ids:
                gate = sim.all_of([done[g][rank] for g in gate_ids])
            if collective:
                body = rendezvous.body()
            elif slowed:
                body = _SlowedDuration(durations[rank])
            else:
                body = durations[rank]
            row.append(streams[sid][rank].submit(body, gate=gate))
        jobs.append(row)
        done.append([rendezvous.done] * world if collective
                    else [job.done for job in row])
    sim.run()
    return [[(job.start, job.end) for job in row] for row in jobs]


class TestRecordedTimelineFuzz:
    @settings(deadline=None, max_examples=80)
    @given(spec=recorded_schedules())
    def test_replay_matches_event_kernel(self, spec):
        world, configs, slots = spec
        recorded = [_record_timeline(world, slots, c) for c in range(configs)]
        replay([timeline for timeline, _ in recorded])
        for config, (timeline, handles) in enumerate(recorded):
            expected = _event_kernel(world, slots, config)
            for handle, row in zip(handles, expected):
                assert handle.starts.tolist() == [start for start, _ in row]
                assert handle.ends.tolist() == [end for _, end in row]
            _assert_invariants(world, slots, handles)


def _assert_invariants(world, slots, handles):
    """Start at or after the gate, FIFO without overlap per stream and
    rank, and one shared end per collective across ranks."""
    last = {}
    for (sid, collective, gate_ids, _, _), handle in zip(slots, handles):
        starts, ends = handle.starts, handle.ends
        assert np.all(ends >= starts)
        for gid in gate_ids:
            assert np.all(starts >= handles[gid].ends)
        if sid in last:
            assert np.all(starts >= last[sid].ends)
        last[sid] = handle
        if collective:
            assert np.all(ends == ends[0])

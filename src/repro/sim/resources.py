"""Execution resources layered on the simulation kernel.

:class:`Stream` models a CUDA-style in-order execution stream: work
items submitted to it run strictly in submission order, one at a time.
A work item may declare a *gate* event that must trigger before it can
start (e.g. "this all-gather cannot start before the matching
reduce-scatter completed on every rank"), which lets schedulers express
cross-stream dependencies exactly like CUDA events.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional, Union

from repro.sim.engine import Event, Simulator

__all__ = ["DeferredDuration", "Stream", "Job"]


class DeferredDuration:
    """A job duration priced from the job's start time.

    Subclasses implement :meth:`resolve`.  The event kernel's
    :class:`Stream` resolves it when the job starts; the vectorized
    replay (:mod:`repro.sim.fastpath`) resolves the same object at the
    replayed start — on a collective, the rendezvous instant — so both
    engines perform the same float operations.  The timing-fault
    injector's priced bodies
    (:class:`repro.faults.timing.PricedCompute` /
    :class:`~repro.faults.timing.PricedCollective`) are the canonical
    implementations.
    """

    __slots__ = ()

    def resolve(self, start: float) -> float:
        raise NotImplementedError

    def renew(self) -> "DeferredDuration":
        """This body for a copy of its slot in a tiled recording:
        ``self``, unless resolving has effects copies must not share."""
        return self


#: A job body is either a fixed duration in seconds, a
#: :class:`DeferredDuration` priced at start time, or a generator to run
#: as a sub-process while the stream stays blocked.
JobBody = Union[float, DeferredDuration, Generator]


class Job:
    """One unit of work on a :class:`Stream`.

    Attributes:
        done: event triggering when the job finishes; its value is the
            job itself so callers can read ``start``/``end`` timestamps.
        gate: optional event the job must wait for (after reaching the
            stream head) before running.
    """

    __slots__ = ("body", "name", "category", "gate", "metadata", "done",
                 "start", "end")

    def __init__(
        self,
        sim: Simulator,
        body: JobBody,
        name: str,
        category: str,
        gate: Optional[Event] = None,
        metadata: Optional[dict] = None,
    ):
        self.body = body
        self.name = name
        self.category = category
        self.gate = gate
        self.metadata = metadata or {}
        self.done: Event = sim.event(name=f"{name}.done")
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.name!r} cat={self.category!r}>"


class Stream:
    """In-order execution stream (one compute or comm queue of a GPU).

    Work items run serially in submission order.  Each item may carry a
    ``gate`` event; the stream *stalls* at that item until the gate
    triggers — exactly the semantics of ``cudaStreamWaitEvent``.

    Each positive-duration job is appended as ``(actor, job)``, when it
    completes, to the optional ``log`` list, which several streams may
    share: the run is measured and traced from it.
    """

    __slots__ = ("_sim", "name", "actor", "_log", "_jobs", "_wakeup",
                 "busy_time", "jobs_completed", "jobs_submitted", "_current")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        actor: str = "",
        log: Optional[list] = None,
    ):
        self._sim = sim
        self.name = name
        self.actor = actor or name
        self._log = log
        self._jobs: deque[Job] = deque()
        #: event the driver waits on while ``_jobs`` is empty.
        self._wakeup: Optional[Event] = None
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_submitted = 0
        self._current: Optional[Job] = None
        sim.process(self._drive(), name=f"{name}.driver")

    def submit(
        self,
        body: JobBody,
        name: str = "task",
        category: str = "compute",
        gate: Optional[Event] = None,
        metadata: Optional[dict] = None,
    ) -> Job:
        """Enqueue work; returns the :class:`Job` whose ``done`` event
        fires on completion.  A plain duration must be ``>= 0``."""
        if isinstance(body, (int, float)) and not body >= 0:
            raise ValueError(f"job {name!r} has a negative or NaN duration: {body}")
        job = Job(self._sim, body, name=name, category=category, gate=gate, metadata=metadata)
        self._jobs.append(job)
        self.jobs_submitted += 1
        if self._wakeup is not None:
            wakeup, self._wakeup = self._wakeup, None
            wakeup.succeed()
        return job

    @property
    def outstanding(self) -> int:
        """Jobs submitted but not yet completed."""
        return self.jobs_submitted - self.jobs_completed

    def stall_report(self) -> str:
        """Describe what the stream is stuck on (deadlock diagnostics).

        Meaningful after a simulation run that left jobs outstanding: a
        gated job whose gate never triggered indicates a dependency
        cycle or a missing event in the schedule.
        """
        if self.outstanding == 0:
            return f"{self.name}: quiescent"
        current = self._current
        head = "idle (queue never drained)"
        if current is not None:
            gate_state = (
                "no gate" if current.gate is None
                else ("gate triggered" if current.gate.triggered else "GATE PENDING")
            )
            head = f"stalled on {current.name!r} ({gate_state})"
        return (
            f"{self.name}: {self.outstanding} outstanding jobs, {head}, "
            f"{len(self._jobs)} queued behind it"
        )

    def _drive(self) -> Generator:
        sim = self._sim
        jobs = self._jobs
        while True:
            if not jobs:
                self._wakeup = sim.event()
                yield self._wakeup
            job = self._current = jobs.popleft()
            if job.gate is not None and not job.gate.triggered:
                yield job.gate
            job.start = sim.now
            body = job.body
            if isinstance(body, DeferredDuration):
                body = body.resolve(job.start)
            if isinstance(body, Generator):
                yield sim.process(body, name=job.name)
            elif body > 0.0:
                yield float(body)
            job.end = sim.now
            self.busy_time += job.end - job.start
            self.jobs_completed += 1
            if job.end > job.start and self._log is not None:
                self._log.append((self.actor, job))
            self._current = None
            job.done.succeed(job)

"""Core discrete-event simulation kernel.

The kernel follows the classic event-list design: a binary heap of
``(time, sequence, callback)`` entries ordered by virtual time, with a
sequence number to keep ordering stable among simultaneous events.

Zero-delay work — event-callback dispatch, process wake-ups at the
current instant — dominates real schedules, so it bypasses the heap
entirely: a FIFO *tail* queue holds ``(fn, arg)`` pairs that run after
every heap entry at the current time.  The ordering is identical to
pushing them through the heap (any heap entry at time ``now`` was
scheduled strictly earlier, i.e. with a smaller sequence number, than
a tail entry created at ``now``), but each one saves a heappush /
heappop round-trip and a closure allocation.  See docs/PERF.md.

Processes are plain Python generators.  A process may yield:

- a ``float`` or ``int`` — suspend for that many virtual seconds;
- an :class:`Event` — suspend until the event triggers; the value passed
  to :meth:`Event.succeed` becomes the result of the ``yield``;
- another :class:`Process` — suspend until that process finishes (a
  process *is* an event that triggers on completion).

An exception raised inside a process propagates out of
:meth:`Simulator.run`.

Example::

    sim = Simulator()

    def worker(sim):
        yield 1.5                # sleep 1.5 virtual seconds
        done = sim.event()
        sim.schedule(0.5, lambda: done.succeed("ok"))
        result = yield done      # -> "ok" at t=2.0
        return result

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "ok"
    assert sim.now == 2.0
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = ["SimulationError", "Event", "Process", "AllOf", "Simulator"]

#: Sentinel marking a tail entry whose callback takes no argument.
_NO_ARG = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*; :meth:`succeed` triggers them exactly once.
    Callbacks (and processes that yielded the event) run in the order
    they subscribed, at the same virtual instant.
    """

    __slots__ = ("_sim", "name", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self.name = name
        #: whether the event has already fired.
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        tail = self._sim._tail
        for callback in callbacks:
            tail.append((callback, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback is scheduled to run
        immediately (at the current virtual instant) rather than invoked
        synchronously, preserving run-loop ordering.
        """
        if self.triggered:
            self._sim._tail.append((callback, self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The generator's ``return`` value becomes the event value.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim._tail.append((Process._resume, self))

    def _resume(self, event: Optional[Event] = None) -> None:
        try:
            target = self._generator.send(None if event is None else event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if isinstance(target, Event):
            target.add_callback(self._resume)
        elif isinstance(target, (int, float)):
            self._sim.schedule(float(target), self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )


class AllOf(Event):
    """Event that triggers once every event in ``events`` has triggered.

    The value is the list of the constituent events' values, in the
    order given.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str = "all_of"):
        super().__init__(sim, name=name)
        self._events = list(events)
        self._pending = len(self._events)
        if not self._events:
            sim.schedule(0.0, lambda: self.succeed([]))
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


class Simulator:
    """Virtual clock plus the pending-callback heap and tail queue.

    All state is local to the instance; simulations are deterministic
    and independent, so many can run in one OS process (e.g. a parameter
    sweep inside a benchmark).
    """

    __slots__ = ("_now", "_heap", "_sequence", "_tail")

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        #: FIFO of ``(fn, arg)`` pairs to run at the current instant,
        #: after every heap entry whose time equals ``now``.  ``arg`` is
        #: ``_NO_ARG`` for zero-argument callbacks.
        self._tail: deque[tuple] = deque()
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` virtual seconds."""
        if delay <= 0.0:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            self._tail.append((callback, _NO_ARG))
            return
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback))
        self._sequence += 1

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting now."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> AllOf:
        """Event combinator: all of ``events``."""
        return AllOf(self, events, name=name)

    def run(self) -> float:
        """Execute callbacks until both queues drain; returns the final time."""
        heap = self._heap
        tail = self._tail
        while True:
            # Heap entries at the current instant precede tail entries:
            # they were scheduled earlier, i.e. with a smaller sequence.
            if heap and (not tail or heap[0][0] <= self._now):
                self._now, _, callback = heapq.heappop(heap)
                callback()
            elif tail:
                fn, arg = tail.popleft()
                if arg is _NO_ARG:
                    fn()
                else:
                    fn(arg)
            else:
                return self._now

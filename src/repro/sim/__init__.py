"""Discrete-event simulation engine.

This package provides the virtual-time substrate on which the cluster,
network, and scheduler models execute.  It is a small, dependency-free
discrete-event kernel in the style of SimPy:

- :class:`~repro.sim.engine.Simulator` owns the virtual clock and the
  pending-event heap.
- :class:`~repro.sim.engine.Process` wraps a Python generator; yielding a
  number suspends for that many virtual seconds, yielding an
  :class:`~repro.sim.engine.Event` suspends until it triggers.
- :class:`~repro.sim.resources.Stream` models a FIFO execution resource
  (a CUDA compute or communication stream).
- :class:`~repro.sim.trace.Tracer` records task spans and can export them
  as Chrome ``about://tracing`` JSON.
"""

from repro.sim.engine import AllOf, Event, Process, SimulationError, Simulator
from repro.sim.resources import Stream
from repro.sim.trace import Span, Tracer

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Span",
    "Stream",
    "Tracer",
]

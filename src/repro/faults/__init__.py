"""Fault injection and graceful degradation.

One seeded :class:`FaultPlan` describes everything that goes wrong in a
run, across both execution paths:

- **data level** (real numpy collectives): :class:`FaultyTransport`
  injects dropped / duplicated / delayed messages and rank deaths;
  :class:`ResilientCommunicator` retries with bounded backoff, rebuilds
  the group over survivors, and degrades the algorithm to ring when the
  shrunken group breaks topology assumptions — while keeping RS+AG
  value-exact vs a clean run over the survivors.
- **timing level** (simulated timeline): :class:`TimingFaultInjector`
  prices link-degradation windows and compute stragglers into the
  scheduler engines via priced duration placeholders resolved at job
  start, the same objects on the event kernel and on the vectorized
  replay (faulty runs stay on the replay).

An *empty* plan is normalised away (:func:`normalize_plan`), so the
healthy paths run verbatim and stay bit-identical to pre-fault
behaviour.  See ``docs/FAULTS.md`` for the plan schema, the
degradation ladder, and the telemetry metric names.
"""

from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    RankFailure,
    StragglerFault,
    normalize_plan,
)
from repro.faults.resilient import ResilientCommunicator, RetryPolicy
from repro.faults.timing import TimingFaultInjector
from repro.faults.transport import (
    FaultyTransport,
    RankDeadError,
    TransportTimeout,
    UnrecoverableFault,
)

__all__ = [
    "FaultPlan",
    "FaultyTransport",
    "LinkFault",
    "RankDeadError",
    "RankFailure",
    "ResilientCommunicator",
    "RetryPolicy",
    "StragglerFault",
    "TimingFaultInjector",
    "TransportTimeout",
    "UnrecoverableFault",
    "normalize_plan",
]

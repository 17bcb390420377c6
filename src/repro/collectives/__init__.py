"""Data-level collective communication library.

These are *real* collectives: they move actual numpy buffers between
ranks through an in-process
:class:`~repro.collectives.transport.Transport` that records every
message.  Every data-level algorithm — ring, binomial tree, recursive
halving-doubling, hierarchical two-level ring and the synthesized
``synth_lat`` / ``synth_bw`` families — is one step schedule
(:func:`~repro.collectives.synthesis.algorithm_schedule`) that
:func:`~repro.collectives.synthesis.run_schedule` executes in lockstep
rounds; the same schedules are verified and priced by
:mod:`repro.collectives.synthesis`.  The gather-to-rank-0 collectives
of :mod:`repro.collectives.naive` are the test oracle.

They serve two purposes in the reproduction:

1. **Correctness of the decoupling** (§III-A): tests prove that a
   reduce-scatter followed by an all-gather produces exactly the same
   values as the fused all-reduce, for arbitrary shapes, dtypes and
   world sizes — the property DeAR's zero-overhead claim rests on.
2. **A live substrate for S-SGD**: :mod:`repro.training.parallel` runs
   real multi-rank data-parallel training over these collectives, so
   the DeAR runtime (:mod:`repro.core`) is exercised end to end, not
   just in the timing simulator.

Message counts and byte volumes per rank are available from the
transport for communication-complexity assertions.
"""

from repro.collectives.transport import Transport, TransportStats
from repro.collectives.naive import naive_all_gather, naive_all_reduce, naive_reduce_scatter
from repro.collectives.communicator import Communicator
from repro.collectives.coordinator import ReadinessCoordinator

__all__ = [
    "Communicator",
    "ReadinessCoordinator",
    "Transport",
    "TransportStats",
    "naive_all_gather",
    "naive_all_reduce",
    "naive_reduce_scatter",
]

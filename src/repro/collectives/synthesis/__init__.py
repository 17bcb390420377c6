"""Topology-aware collective-algorithm synthesis (ROADMAP item 3).

Declare a :class:`Topology`, synthesize a latency- or bandwidth-optimal
:class:`Schedule` for it, then use the schedule three ways: verify it
(:func:`verify_schedule`), execute it value-exact over the data-level
transport (:func:`run_schedule`), or price it on declared links
(:func:`schedule_times`).  The cost model and autotuner expose the two
objectives as the ``synth_lat`` / ``synth_bw`` algorithms, and
:func:`algorithm_schedule` maps every data-level algorithm name to the
schedule the communicators run; see ``docs/SYNTHESIS.md`` for the
end-to-end tour.
"""

from repro.collectives.synthesis.executor import run_schedule
from repro.collectives.synthesis.ir import (
    SCHEDULE_OPS,
    ChunkSpec,
    Schedule,
    ScheduleError,
    Step,
    schedule_times,
    verify_schedule,
)
from repro.collectives.synthesis.synthesize import (
    OBJECTIVES,
    SYNTH_ALGORITHMS,
    algorithm_schedule,
    clear_schedule_cache,
    declared_step_bound,
    schedule_for,
    schedule_for_cluster,
    synthesize,
)
from repro.collectives.synthesis.topology import Topology

__all__ = [
    "SCHEDULE_OPS",
    "SYNTH_ALGORITHMS",
    "OBJECTIVES",
    "ChunkSpec",
    "Schedule",
    "ScheduleError",
    "Step",
    "Topology",
    "algorithm_schedule",
    "clear_schedule_cache",
    "declared_step_bound",
    "run_schedule",
    "schedule_for",
    "schedule_for_cluster",
    "schedule_times",
    "synthesize",
    "verify_schedule",
]

"""Schedule diagnosis: explain where an iteration's time goes.

Given a :class:`~repro.schedulers.base.ScheduleResult`, produce the
numbers a performance engineer would extract from the trace by hand —
bottleneck classification, overlap efficiency, startup-latency share —
plus an actionable suggestion, using the same quantities the paper's
analysis (Eq. 6-9) reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schedulers.base import ScheduleResult
from repro.sim.trace import COMM_CATEGORIES
from repro.telemetry.breakdown import steady_state_window, total_in_window

__all__ = ["Diagnosis", "diagnose"]


@dataclass(frozen=True)
class Diagnosis:
    """The measurable facts of one schedule, plus a verdict.

    Attributes:
        bottleneck: ``"compute"`` (comm nearly fully hidden),
            ``"communication"`` (comm dominates the cycle), or
            ``"mixed"``.
        total_comm: busy communication time within one iteration (s).
        exposed_comm: the part not hidden by compute (s).
        overlap_efficiency: fraction of communication hidden under
            compute (1.0 = perfectly overlapped).
        comm_stream_utilisation: comm busy time / iteration time.
        collectives_per_iteration: number of collective operations.
        startup_fraction: share of communication time attributable to
            per-collective latency (alpha rounds) rather than bytes.
        suggestion: one-line actionable advice.
    """

    scheduler: str
    model_name: str
    bottleneck: str
    iteration_time: float
    compute_time: float
    total_comm: float
    exposed_comm: float
    overlap_efficiency: float
    comm_stream_utilisation: float
    collectives_per_iteration: int
    startup_fraction: float
    suggestion: str

    def describe(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join(
            [
                f"{self.scheduler} on {self.model_name}: "
                f"{self.bottleneck}-bound "
                f"({self.iteration_time * 1e3:.1f} ms/iteration)",
                f"  compute {self.compute_time * 1e3:.1f} ms, "
                f"communication {self.total_comm * 1e3:.1f} ms "
                f"({self.exposed_comm * 1e3:.1f} ms exposed)",
                f"  overlap efficiency {self.overlap_efficiency:.0%}, "
                f"comm stream busy {self.comm_stream_utilisation:.0%} "
                f"of the cycle",
                f"  {self.collectives_per_iteration} collectives/iteration, "
                f"~{self.startup_fraction:.0%} of comm time is startup latency",
                f"  suggestion: {self.suggestion}",
            ]
        )


def _suggest(bottleneck: str, startup_fraction: float,
             overlap_efficiency: float, scheduler: str) -> str:
    if bottleneck == "compute":
        return ("communication is effectively hidden; larger batches or a "
                "faster GPU move the needle, not scheduling")
    if startup_fraction > 0.5:
        return ("startup-latency bound: fuse more aggressively (larger "
                "buffer) or use a lower-latency collective (tree / "
                "halving-doubling)")
    if overlap_efficiency < 0.5 and scheduler not in ("dear", "zero"):
        return ("bandwidth-bound with poor overlap: DeAR's feed-forward "
                "pipelining can reclaim up to one t_ff per iteration")
    return ("bandwidth-bound: only more bandwidth or gradient compression "
            "shrinks this further (Eq. 9's saving is exhausted)")


def diagnose(result: ScheduleResult, alpha: float = 0.0,
             world_size: int = 0) -> Diagnosis:
    """Analyse a traced schedule result's steady-state window.

    ``result`` must come from a run with ``trace=True``.

    ``alpha``/``world_size`` (optional) enable the startup-fraction
    estimate: each traced collective is charged ``rounds * alpha`` of
    latency per the ring round count (all-to-all: ``world_size - 1``
    pairwise rounds; point-to-point: one).
    """
    if result.tracer is None:
        raise ValueError(
            "result carries no tracer; re-run the scheduler with trace=True"
        )
    # The steady-state window the scheduler measured.
    window = steady_state_window(result.tracer)
    comm_spans = [
        span for span in result.tracer.spans
        if span.category in COMM_CATEGORIES
        and span.start < window[1] and span.end > window[0]
    ]
    total_comm = total_in_window(result.tracer, COMM_CATEGORIES, window)
    hidden = total_comm - result.exposed_comm
    overlap_efficiency = hidden / total_comm if total_comm > 0 else 1.0
    utilisation = total_comm / result.iteration_time if result.iteration_time else 0.0

    if total_comm > 0 and alpha > 0 and world_size > 1:
        rounds_per_collective = {
            "comm.ar": 2 * (world_size - 1),
            "comm.rs": world_size - 1,
            "comm.ag": world_size - 1,
            "comm.a2a": world_size - 1,
            "comm.p2p": 1,
        }
        startup = sum(
            rounds_per_collective[span.category] * alpha for span in comm_spans
        )
        startup_fraction = min(1.0, startup / total_comm)
    else:
        startup_fraction = 0.0

    if result.exposed_comm < 0.05 * result.iteration_time:
        bottleneck = "compute"
    elif result.exposed_comm > 0.5 * result.iteration_time:
        bottleneck = "communication"
    else:
        bottleneck = "mixed"

    return Diagnosis(
        scheduler=result.scheduler,
        model_name=result.model_name,
        bottleneck=bottleneck,
        iteration_time=result.iteration_time,
        compute_time=result.t_ff + result.t_bp,
        total_comm=total_comm,
        exposed_comm=result.exposed_comm,
        overlap_efficiency=overlap_efficiency,
        comm_stream_utilisation=utilisation,
        collectives_per_iteration=len(comm_spans),
        startup_fraction=startup_fraction,
        suggestion=_suggest(
            bottleneck, startup_fraction, overlap_efficiency, result.scheduler
        ),
    )

"""The stable public facade of the reproduction.

Everything a caller needs lives behind four entry points:

- :class:`SimulationConfig` — one frozen value describing a timing-level
  run (scheduler, model, cluster, batch size, algorithm, iterations,
  fault plan, per-rank compute scales, scheduler options); it is
  :class:`~repro.runner.spec.RunSpec`, the fingerprinted, cacheable
  run description.  Build it with :meth:`SimulationConfig.create`,
  which accepts registry names (``"resnet50"``, ``"10gbe"``) as well
  as resolved spec objects.
- :func:`run_simulation` — execute a config (optionally through the
  content-addressed result cache) and return a
  :class:`~repro.schedulers.base.ScheduleResult`.
- :func:`run_collective` — execute one *data-level* collective over
  real numpy buffers, fault-tolerantly when the plan injects data
  faults, and return the buffers plus traffic/recovery accounting.
- :func:`list_schedulers` / :func:`list_algorithms` /
  :func:`list_workloads` — the valid names.

The CLI, the experiment harnesses, and the trace pipeline all route
through this module; scripts that import internals keep working, but
this is the surface that stays stable.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, normalize_plan
from repro.runner.spec import RunSpec, resolve_cluster, resolve_model
from repro.schedulers.base import (
    DEFAULT_ITERATIONS,
    SCHEDULER_NAMES,
    ScheduleResult,
)

__all__ = [
    "CollectiveResult",
    "SimulationConfig",
    "config_from_payload",
    "list_algorithms",
    "list_schedulers",
    "list_workloads",
    "resolve_cluster",
    "resolve_model",
    "run_collective",
    "run_simulation",
]

#: Operations :func:`run_collective` accepts; ``rs_ag`` is DeAR's
#: decoupled OP1+OP2 pair, and the personalized exchanges back the
#: workload DAGs' dispatch/combine and embedding-exchange nodes.
COLLECTIVE_OPS = (
    "all_reduce", "reduce_scatter", "all_gather", "rs_ag",
    "all_to_all", "all_to_allv",
)


def list_schedulers() -> tuple[str, ...]:
    """Registry names accepted by :attr:`SimulationConfig.scheduler`."""
    return SCHEDULER_NAMES


def list_algorithms() -> tuple[str, ...]:
    """Collective algorithm families accepted everywhere."""
    from repro.collectives.communicator import Communicator

    return Communicator.ALGORITHMS


def list_workloads() -> tuple[str, ...]:
    """Registered comm-compute DAG generators (``workload=`` names)."""
    from repro.workloads import WORKLOAD_NAMES

    return WORKLOAD_NAMES


#: The public name of the run description: one frozen value holding
#: the scheduler and its options, the model, the cluster, batch size,
#: algorithm, iterations, fault plan, per-rank compute scales, tuning
#: table and workload.
SimulationConfig = RunSpec

#: Fields :func:`config_from_payload` accepts.
_PAYLOAD_KEYS = frozenset((
    "scheduler", "model", "cluster", "batch_size", "algorithm",
    "iterations", "iteration_compute", "faults", "options", "workload",
    "compute_scales",
))

#: Option names the wire refuses: the named :meth:`RunSpec.create`
#: parameters, which an option would collide with (or silently
#: override), and the ``fastpath`` run switch, which stays off the wire
#: like the engine choice it selects.
_RESERVED_OPTIONS = frozenset(
    name for name, parameter in inspect.signature(RunSpec.create).parameters.items()
    if parameter.kind is not inspect.Parameter.VAR_KEYWORD
) | {"fastpath"}


def config_from_payload(payload: dict) -> RunSpec:
    """Build a :class:`RunSpec` from a JSON-shaped dict.

    The wire protocol of ``dear-repro serve``: ``model`` and
    ``cluster`` are registry names (``"resnet50"``, ``"10gbe"``),
    ``faults`` is a :meth:`FaultPlan.canonical_payload` dict or absent,
    ``compute_scales`` a list of per-rank compute multipliers or
    absent, ``options`` a plain dict of scheduler options, ``workload``
    a registered DAG name (:func:`list_workloads`) or absent.  Unknown
    fields are rejected (a typo must not silently change which
    experiment runs), as are non-registry model/cluster objects —
    everything must round-trip through JSON.  Options are
    :meth:`RunSpec.create`'s to check; the wire only keeps them off
    ``create``'s own parameters and off the ``fastpath`` run switch.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"config payload must be an object, got {type(payload).__name__}")
    unknown = set(payload) - _PAYLOAD_KEYS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    missing = [key for key in ("scheduler", "model", "cluster") if key not in payload]
    if missing:
        raise ValueError(f"config payload missing required fields: {missing}")
    if not isinstance(payload["model"], str) or not isinstance(payload["cluster"], str):
        raise ValueError("model and cluster must be registry names on the wire")
    options = payload.get("options")
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ValueError(f"options must be an object, got {type(options).__name__}")
    reserved = sorted(set(options) & _RESERVED_OPTIONS)
    if reserved:
        raise ValueError(f"options may not set fields or run switches: {reserved}")
    faults = payload.get("faults")
    return RunSpec.create(
        payload["scheduler"],
        payload["model"],
        payload["cluster"],
        batch_size=_wire_number(payload, "batch_size", None, integer=True, above=0),
        algorithm=payload.get("algorithm", "ring"),
        iterations=_wire_number(
            payload, "iterations", DEFAULT_ITERATIONS, integer=True, above=2
        ),
        iteration_compute=_wire_number(
            payload, "iteration_compute", None, integer=False, above=0
        ),
        faults=None if faults is None else FaultPlan.from_payload(faults),
        compute_scales=_wire_scales(payload.get("compute_scales")),
        workload=payload.get("workload"),
        **options,
    )


def _wire_scales(value) -> Optional[list[float]]:
    """``compute_scales`` checked to be absent or a list of JSON numbers.

    Length, finiteness and sign are :meth:`RunSpec.create`'s checks.
    """
    if value is None:
        return None
    if not isinstance(value, list) or any(
        isinstance(scale, bool) or not isinstance(scale, (int, float))
        for scale in value
    ):
        raise ValueError(f"compute_scales must be a list of numbers, got {value!r}")
    try:
        return [float(scale) for scale in value]
    except OverflowError:
        raise ValueError(f"compute_scales out of float range: {value!r}") from None


def _wire_number(payload: dict, key: str, default, integer: bool, above: float):
    """``payload[key]`` checked to be a finite number ``> above``.

    An absent key yields ``default``; ``None`` is accepted only where
    ``default`` is ``None``.  JSON booleans are not numbers here.
    """
    value = payload.get(key, default)
    if value is None and default is None:
        return None
    kinds = int if integer else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or (isinstance(value, float) and not math.isfinite(value))
        or value <= above
    ):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{key} must be {kind} > {above:g}, got {value!r}")
    return value


def run_simulation(config: RunSpec, cached: bool = False,
                   trace: bool = False) -> ScheduleResult:
    """Execute one run description; the single timing-level entry point.

    With ``cached=True`` the run goes through the content-addressed
    result cache (:func:`~repro.runner.cache.run_cached`) and comes
    back tracer-less, like any cached result.  ``trace=True`` records
    the run's Perfetto spans into ``result.tracer`` (otherwise
    ``None``); a cached result holds no spans, so it cannot be combined
    with ``cached=True``.
    """
    if cached and trace:
        raise ValueError("cached results carry no trace; pass cached=False")
    if cached:
        from repro.runner.cache import run_cached

        return run_cached(config)
    return config.run(trace=trace)


@dataclass
class CollectiveResult:
    """Outcome of one data-level collective run.

    ``buffers`` holds one array per initial rank (dead ranks keep their
    pre-collective contents); ``fault_summary`` is None for healthy
    runs and the :meth:`ResilientCommunicator.fault_summary` dict for
    faulty ones.
    """

    op: str
    algorithm: str
    world_size: int
    buffers: list
    wire_bytes: int
    messages: int
    survivors: list[int]
    fault_summary: Optional[dict] = None


def run_collective(
    op: str,
    world_size: int,
    nelems: int = 1024,
    algorithm: str = "ring",
    gpus_per_node: Optional[int] = None,
    average: bool = False,
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
    buffers: Optional[Sequence[np.ndarray]] = None,
) -> CollectiveResult:
    """Run one collective over real numpy buffers; the data-level entry point.

    Buffers default to deterministic ``default_rng(seed)`` uniforms of
    ``nelems`` float64 each.  A plan with data-level faults routes the
    run through :class:`~repro.faults.resilient.ResilientCommunicator`
    (retry, rebuild, degrade); otherwise the plain
    :class:`~repro.collectives.communicator.Communicator` runs it.
    """
    if op not in COLLECTIVE_OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {COLLECTIVE_OPS}")
    if buffers is None:
        rng = np.random.default_rng(seed)
        buffers = [rng.uniform(-1.0, 1.0, nelems) for _ in range(world_size)]
    else:
        buffers = [np.asarray(buf, dtype=np.float64).copy() for buf in buffers]
        if len(buffers) != world_size:
            raise ValueError(
                f"expected {world_size} buffers, got {len(buffers)}"
            )
    faults = normalize_plan(faults)
    if faults is not None and faults.has_data_faults:
        if op in ("all_to_all", "all_to_allv"):
            raise ValueError(
                f"{op!r} has no fault-tolerant execution path: personalized "
                "exchanges carry unique per-pair data, so a lost rank's "
                "chunks cannot be reconstructed from survivors"
            )
        from repro.faults.resilient import ResilientCommunicator

        comm = ResilientCommunicator(
            world_size, faults, algorithm=algorithm, gpus_per_node=gpus_per_node
        )
        if op == "reduce_scatter":
            comm.reduce_scatter(buffers)
        else:
            getattr(comm, op)(buffers, average=average)
        stats = comm.stats
        return CollectiveResult(
            op=op,
            algorithm=comm.algorithm,
            world_size=world_size,
            buffers=list(buffers),
            wire_bytes=stats.bytes,
            messages=stats.messages,
            survivors=list(comm.survivors),
            fault_summary=comm.fault_summary(),
        )
    from repro.collectives.communicator import Communicator

    comm = Communicator(world_size, algorithm=algorithm, gpus_per_node=gpus_per_node)
    if op == "all_reduce":
        comm.all_reduce(buffers, average=average)
    elif op == "reduce_scatter":
        comm.reduce_scatter(buffers)
    elif op == "all_gather":
        comm.all_gather(buffers, average=average)
    elif op == "all_to_all":
        buffers = comm.all_to_all(buffers)
    elif op == "all_to_allv":
        # The facade's deterministic default: each rank splits its
        # buffer as evenly as counts allow (np.array_split sizes).
        counts = [
            [len(chunk) for chunk in np.array_split(buf, world_size)]
            for buf in buffers
        ]
        buffers = comm.all_to_allv(buffers, counts)
    else:  # rs_ag: DeAR's decoupled pair
        comm.reduce_scatter(buffers)
        comm.all_gather(buffers, average=average)
    stats = comm.stats
    return CollectiveResult(
        op=op,
        algorithm=algorithm,
        world_size=world_size,
        buffers=list(buffers),
        wire_bytes=stats.bytes,
        messages=stats.messages,
        survivors=list(range(world_size)),
    )

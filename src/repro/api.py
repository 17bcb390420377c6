"""The stable public facade of the reproduction.

Everything a caller needs lives behind four entry points:

- :class:`SimulationConfig` — one frozen value describing a timing-level
  run (scheduler, model, cluster, batch size, algorithm, iterations,
  fault plan, fast-path override, scheduler options).  Build it with
  :meth:`SimulationConfig.create`, which accepts registry names
  (``"resnet50"``, ``"10gbe"``) as well as resolved spec objects.
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

import dataclasses
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.faults.plan import FaultPlan, normalize_plan
from repro.models.layers import ModelSpec
from repro.models.zoo import get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.fabric import ClusterSpec
from repro.network.presets import paper_testbed
from repro.schedulers.base import (
    DEFAULT_ITERATIONS,
    SCHEDULER_NAMES,
    ScheduleResult,
    simulate,
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


def resolve_model(model) -> ModelSpec:
    """A :class:`ModelSpec` from a spec object or a zoo name."""
    if isinstance(model, ModelSpec):
        return model
    return get_model(model)


def resolve_cluster(cluster) -> ClusterSpec:
    """A :class:`ClusterSpec` from a spec object or a testbed name."""
    if isinstance(cluster, ClusterSpec):
        return cluster
    return paper_testbed(cluster)


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


def _freeze_options(options: dict) -> tuple[tuple[str, Any], ...]:
    frozen = []
    for key in sorted(options):
        value = options[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines one timing-level run, in one place.

    Consolidates what used to be spread across per-scheduler constructor
    kwargs and ``simulate`` call sites: the world (``cluster``), the
    workload (``model`` / ``batch_size``), the collective
    ``algorithm``, the scheduler and its ``options``, the fault
    ``plan``, and the engine selection (``fastpath``: None = defer to
    ``DEAR_FASTPATH``, True/False = force).

    The config is frozen and hashable; :meth:`replace` derives
    variants, :meth:`to_spec` converts to the cacheable
    :class:`~repro.runner.spec.RunSpec` (``fastpath`` is deliberately
    dropped there — both engines produce bit-identical results, so the
    cache must not key on it).
    """

    scheduler: str
    model: ModelSpec = field(repr=False)
    cluster: ClusterSpec = field(repr=False)
    batch_size: Optional[int] = None
    algorithm: str = "ring"
    iterations: int = DEFAULT_ITERATIONS
    iteration_compute: Optional[float] = None
    faults: Optional[FaultPlan] = None
    fastpath: Optional[bool] = None
    options: tuple[tuple[str, Any], ...] = ()
    #: Autotuner selection table consulted when ``algorithm == "auto"``,
    #: as the canonical payload tuple (see
    #: :meth:`repro.network.autotuner.SelectionTable.payload_tuple`).
    #: None + ``"auto"`` = plain ring, bit-identically.
    tuned_table: Optional[tuple] = None
    #: Registered comm-compute DAG name run instead of the layer-wise
    #: schedule (see :func:`list_workloads`); None = classic layer-wise.
    workload: Optional[str] = None

    @classmethod
    def create(
        cls,
        scheduler: str,
        model,
        cluster,
        batch_size: Optional[int] = None,
        algorithm: str = "ring",
        iterations: int = DEFAULT_ITERATIONS,
        iteration_compute: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        fastpath: Optional[bool] = None,
        tuned_table=None,
        workload: Optional[str] = None,
        **options,
    ) -> "SimulationConfig":
        """Build a config, resolving registry names and freezing options.

        ``tuned_table`` accepts a
        :class:`~repro.network.autotuner.SelectionTable`, its payload
        tuple, or None; with ``algorithm="auto"`` and no explicit table
        the process-registered table (if any) is snapshotted in.
        ``workload`` names a registered comm-compute DAG
        (:func:`list_workloads`) derived from the model's timing profile
        — e.g. ``"moe"``, ``"dlrm"``, ``"llm3d"``.
        """
        if scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; known: {list(SCHEDULER_NAMES)}"
            )
        if workload is not None and workload not in list_workloads():
            raise ValueError(
                f"unknown workload {workload!r}; known: {list(list_workloads())}"
            )
        cluster = resolve_cluster(cluster)
        if tuned_table is not None and not isinstance(tuned_table, tuple):
            tuned_table = tuned_table.payload_tuple()
        if tuned_table is None and algorithm == "auto":
            from repro.network.autotuner import table_for

            registered = table_for(cluster)
            if registered is not None:
                tuned_table = registered.payload_tuple()
        return cls(
            scheduler=scheduler,
            model=resolve_model(model),
            cluster=cluster,
            batch_size=batch_size,
            algorithm=algorithm,
            iterations=iterations,
            iteration_compute=iteration_compute,
            faults=normalize_plan(faults),
            fastpath=fastpath,
            options=_freeze_options(options),
            tuned_table=tuned_table,
            workload=workload,
        )

    def replace(self, **changes) -> "SimulationConfig":
        """A copy with the given fields changed (options re-frozen)."""
        if "options" in changes and isinstance(changes["options"], dict):
            changes["options"] = _freeze_options(changes["options"])
        if "faults" in changes:
            changes["faults"] = normalize_plan(changes["faults"])
        return dataclasses.replace(self, **changes)

    def to_spec(self):
        """The cacheable :class:`~repro.runner.spec.RunSpec` equivalent."""
        from repro.runner.spec import RunSpec

        return RunSpec(
            scheduler=self.scheduler,
            model=self.model,
            cluster=self.cluster,
            batch_size=self.batch_size,
            algorithm=self.algorithm,
            iterations=self.iterations,
            iteration_compute=self.iteration_compute,
            options=self.options,
            faults=self.faults,
            tuned_table=self.tuned_table,
            workload=self.workload,
        )

    @property
    def label(self) -> str:
        """Human-readable key, e.g. for report rows."""
        return f"{self.scheduler}/{self.model.name}/{self.cluster.name}"


#: Fields :func:`config_from_payload` accepts.  ``fastpath`` is
#: deliberately not part of the wire protocol: both engines produce
#: bit-identical results and the cache ignores the flag, so a remote
#: caller has nothing to gain from forcing it.
_PAYLOAD_KEYS = frozenset((
    "scheduler", "model", "cluster", "batch_size", "algorithm",
    "iterations", "iteration_compute", "faults", "options", "workload",
))


def config_from_payload(payload: dict) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a JSON-shaped dict.

    The wire protocol of ``dear-repro serve``: ``model`` and
    ``cluster`` are registry names (``"resnet50"``, ``"10gbe"``),
    ``faults`` is a :meth:`FaultPlan.canonical_payload` dict or absent,
    ``options`` a plain dict of scheduler options, ``workload`` a
    registered DAG name (:func:`list_workloads`) or absent.  Unknown
    fields are rejected (a typo must not silently change which experiment runs),
    as are non-registry model/cluster objects — everything must
    round-trip through JSON.
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
    shadowed = sorted(set(options) & _SIMULATE_PARAMETERS)
    if shadowed:
        raise ValueError(f"options may not set simulate() parameters: {shadowed}")
    algorithm = payload.get("algorithm", "ring")
    if not isinstance(algorithm, str) or algorithm not in CollectiveTimeModel.ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"known: {list(CollectiveTimeModel.ALGORITHMS)}"
        )
    workload = payload.get("workload")
    if workload is not None and not isinstance(workload, str):
        raise ValueError(f"workload must be a registry name, got {workload!r}")
    faults = payload.get("faults")
    return SimulationConfig.create(
        payload["scheduler"],
        payload["model"],
        payload["cluster"],
        batch_size=_wire_number(payload, "batch_size", None, integer=True, above=0),
        algorithm=algorithm,
        iterations=_wire_number(
            payload, "iterations", DEFAULT_ITERATIONS, integer=True, above=2
        ),
        iteration_compute=_wire_number(
            payload, "iteration_compute", None, integer=False, above=0
        ),
        faults=None if faults is None else FaultPlan.from_payload(faults),
        workload=workload,
        **options,
    )


#: Named ``simulate()`` parameters: a wire option with one of these
#: names would collide with (or silently override) a config field.
_SIMULATE_PARAMETERS = frozenset(
    name for name, parameter in inspect.signature(simulate).parameters.items()
    if parameter.kind is not inspect.Parameter.VAR_KEYWORD
)


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


def run_simulation(config: SimulationConfig, cached: bool = False,
                   trace: bool = False) -> ScheduleResult:
    """Execute one config; the single timing-level entry point.

    With ``cached=True`` the run goes through the content-addressed
    result cache (and comes back tracer-less, like any cached result);
    note the cache ignores ``fastpath`` by design.  ``trace=True``
    records the run's Perfetto spans into ``result.tracer`` (otherwise
    ``None``); a cached result holds no spans, so it cannot be combined
    with ``cached=True``.
    """
    if cached and trace:
        raise ValueError("cached results carry no trace; pass cached=False")
    if cached:
        from repro.runner.cache import run_cached

        return run_cached(config.to_spec())
    table = None
    if config.tuned_table is not None:
        from repro.network.autotuner import SelectionTable

        table = SelectionTable.from_payload_tuple(config.tuned_table)
    elif config.algorithm == "auto":
        # create() snapshots any registered table; a config without one
        # means "untuned" and must stay plain ring here too.
        from repro.network.autotuner import NO_TABLE

        table = NO_TABLE
    return simulate(
        config.scheduler,
        config.model,
        config.cluster,
        batch_size=config.batch_size,
        algorithm=config.algorithm,
        iterations=config.iterations,
        iteration_compute=config.iteration_compute,
        faults=config.faults,
        fastpath=config.fastpath,
        tuned_table=table,
        workload=config.workload,
        trace=trace,
        **dict(config.options),
    )


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

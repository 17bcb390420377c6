"""Content-addressed run specifications.

A :class:`RunSpec` captures *everything* that determines the outcome of
one ``simulate(...)`` call — scheduler, full model description, full
cluster description, batch size, collective algorithm, iteration count,
and every scheduler option — as a frozen, picklable value.  Its
canonical-JSON form hashes to a stable fingerprint, which is the key
the on-disk result cache and the fan-out executor are built on: two
specs with the same fingerprint are the same experiment, no matter
which process, machine, or session produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

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
    get_scheduler,
    simulate,
)
from repro.schedulers.multirank import (
    _check_heterogeneous,
    _policy_scheduler,
    simulate_heterogeneous,
)

__all__ = ["RunSpec"]


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


def _freeze_options(options: dict) -> tuple[tuple[str, Any], ...]:
    """Sorted, hashable view of a scheduler-options dict."""
    frozen = []
    for key in sorted(options):
        value = options[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation, ready to execute or cache.

    The one run description of the package, public as
    :class:`repro.api.SimulationConfig`.  Build it via
    :meth:`RunSpec.create`, which accepts registry names ("resnet50",
    "10gbe") as well as resolved spec objects; :meth:`replace` derives
    variants.
    """

    scheduler: str
    model: ModelSpec = field(repr=False)
    cluster: ClusterSpec = field(repr=False)
    batch_size: Optional[int] = None
    algorithm: str = "ring"
    iterations: int = DEFAULT_ITERATIONS
    iteration_compute: Optional[float] = None
    options: tuple[tuple[str, Any], ...] = ()
    #: Timing-level fault plan (None = healthy).  Part of the identity:
    #: a faulty run must never be answered from a healthy run's cache
    #: entry, so the plan participates in the fingerprint.
    faults: Optional[FaultPlan] = None
    #: Per-rank compute-time multipliers.  ``None`` (the default) runs
    #: the representative single-rank engine; a tuple routes the spec
    #: through :func:`repro.schedulers.multirank.simulate_heterogeneous`
    #: with ``scheduler`` as the policy name — the straggler grids run
    #: through the same cache and fan-out executor as everything else.
    compute_scales: Optional[tuple[float, ...]] = None
    #: Canonical payload tuple of the autotuner selection table consulted
    #: when ``algorithm == "auto"``
    #: (:meth:`repro.network.autotuner.SelectionTable.payload_tuple`).
    #: Embedded in the spec — not read from ambient process state — so
    #: pool workers and the content-addressed cache see the same tuning
    #: as the submitting process.  ``None`` + ``"auto"`` = plain ring.
    tuned_table: Optional[tuple] = None
    #: Registered comm-compute DAG name
    #: (:data:`repro.workloads.WORKLOAD_NAMES`) run instead of the
    #: layer-wise schedule.  Only the *name* enters the identity —
    #: generators are deterministic functions of (timing, cluster),
    #: both of which are already in the fingerprint.
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
        compute_scales: Optional[tuple[float, ...]] = None,
        tuned_table=None,
        workload: Optional[str] = None,
        **options,
    ) -> "RunSpec":
        """Build a spec, resolving registry names and freezing options.

        Mirrors the ``simulate(...)`` signature and validates every
        field a run would otherwise reject only once started: the
        scheduler name (a :data:`~repro.schedulers.multirank.POLICIES`
        name when ``compute_scales`` is set), the collective algorithm,
        ``iterations >= 3``, the workload name, one finite, non-negative
        compute scale per rank (positive on rank 0 of a workload DAG
        run that does not collapse), and the options.

        ``tuned_table`` accepts a
        :class:`~repro.network.autotuner.SelectionTable`, its payload
        tuple, or None.  ``algorithm="auto"`` with no explicit table
        snapshots the process-registered table (if any) into the spec,
        so the fingerprint — and the cached result — reflect the tuning
        actually used.  ``options`` are the scheduler's constructor
        arguments (with ``compute_scales``, the policy's
        ``fusion_buffer_bytes``), plus ``fastpath=False`` to run on the
        event kernel; the scheduler the run would build is built here,
        so an unknown option or a rejected value raises ``ValueError``.
        """
        if scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; known: {list(SCHEDULER_NAMES)}"
            )
        if algorithm not in CollectiveTimeModel.ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"known: {list(CollectiveTimeModel.ALGORITHMS)}"
            )
        if iterations < 3:
            raise ValueError(
                f"need >= 3 iterations to reach steady state, got {iterations}"
            )
        if workload is not None:
            from repro.workloads import WORKLOAD_NAMES

            if workload not in WORKLOAD_NAMES:
                raise ValueError(
                    f"unknown workload {workload!r}; "
                    f"expected one of {WORKLOAD_NAMES}"
                )
        model = resolve_model(model)
        cluster = resolve_cluster(cluster)
        faults = normalize_plan(faults)
        if compute_scales is not None:
            compute_scales, _ = _check_heterogeneous(
                scheduler, cluster, compute_scales, iterations, faults, workload
            )
        # ``fastpath`` is the one run switch; the rest build the scheduler.
        build = get_scheduler if compute_scales is None else _policy_scheduler
        try:
            build(scheduler, **{k: v for k, v in options.items() if k != "fastpath"})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad options for {scheduler!r}: {exc}") from None
        if tuned_table is not None and not isinstance(tuned_table, tuple):
            tuned_table = tuned_table.payload_tuple()
        if tuned_table is None and algorithm == "auto":
            from repro.network.autotuner import table_for

            registered = table_for(cluster)
            if registered is not None:
                tuned_table = registered.payload_tuple()
        return cls(
            scheduler=scheduler,
            model=model,
            cluster=cluster,
            batch_size=batch_size,
            algorithm=algorithm,
            iterations=iterations,
            iteration_compute=iteration_compute,
            options=_freeze_options(options),
            faults=faults,
            compute_scales=compute_scales,
            tuned_table=tuned_table,
            workload=workload,
        )

    def replace(self, **changes) -> "RunSpec":
        """A copy with the given fields changed, built by :meth:`create`.

        The result is validated and normalised exactly as if it had been
        created with those fields: ``options`` (a dict or the frozen
        tuple) replaces all options, ``compute_scales`` are checked
        against the cluster and stored as floats, an empty fault plan
        becomes None.
        """
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        unknown = set(changes) - set(fields)
        if unknown:
            raise TypeError(f"unknown RunSpec fields: {sorted(unknown)}")
        fields.update(changes)
        options = dict(fields.pop("options"))
        return self.create(**fields, **options)

    def to_spec(self) -> "RunSpec":
        """The spec itself: the public run description *is* the spec."""
        return self

    # -- identity ------------------------------------------------------------

    def canonical_payload(self) -> dict:
        """JSON-ready dict of every outcome-determining input.

        Underscore-prefixed dataclass fields are dropped recursively:
        they are lazy caches (e.g. ``ModelSpec._tensor_cache``) whose
        fill state must not perturb the fingerprint.  The ``"model"``
        entry is shared with every spec over the same model object:
        treat the payload as read-only.
        """
        payload = self._own_payload()
        payload["model"] = _model_payload(self.model)
        payload["cluster"] = _cluster_payload(self.cluster)
        return payload

    def _own_payload(self) -> dict:
        """:meth:`canonical_payload` without the model and the cluster."""
        payload = {
            "scheduler": self.scheduler,
            "batch_size": self.batch_size,
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "iteration_compute": self.iteration_compute,
            # Both engines give bit-identical results, so the engine
            # choice is not part of the identity.
            "options": [
                [key, value] for key, value in self.options if key != "fastpath"
            ],
        }
        # Only present when faulty, so healthy fingerprints (and the
        # cache entries keyed on them) survive the field's introduction.
        if self.faults is not None:
            payload["faults"] = self.faults.canonical_payload()
        # Same survival rule for heterogeneity: single-rank fingerprints
        # predate the field and must not change.
        if self.compute_scales is not None:
            payload["compute_scales"] = list(self.compute_scales)
        # And for tuning: untuned fingerprints predate the field.
        if self.tuned_table is not None:
            payload["tuned_table"] = _public_fields(self.tuned_table)
        # And for workloads: layer-wise fingerprints predate the field.
        if self.workload is not None:
            payload["workload"] = self.workload
        return payload

    def canonical_json(self) -> str:
        """Deterministic serialisation: sorted keys, no whitespace.

        Byte-identical to ``json.dumps(self.canonical_payload(),
        sort_keys=True, separators=(",", ":"), default=_jsonify)``, but
        the object is assembled key by key from memoised texts of the
        model and the cluster — most of the bytes and most of the
        encoding work — so only the spec's own fields are serialised
        per spec.
        """
        texts = {key: _dumps(value) for key, value in self._own_payload().items()}
        texts["model"] = _model_json(self.model)
        texts["cluster"] = _cluster_json(self.cluster)
        return "{" + ",".join(
            _dumps(key) + ":" + texts[key] for key in sorted(texts)
        ) + "}"

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON; stable across processes.

        Computed on first read and memoised in the instance ``__dict__``
        (the frozen ``__setattr__`` only guards fields; every field is
        immutable, so the digest cannot go stale).  Deliberately a plain
        ``property``, not a ``functools.cached_property``: profilers wrap
        its ``fget`` to time identity work.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            self.__dict__["_fingerprint"] = digest
        return digest

    @property
    def label(self) -> str:
        """Human-readable key, e.g. for bench metric names."""
        return f"{self.scheduler}/{self.model.name}/{self.cluster.name}"

    # -- execution -----------------------------------------------------------

    def selection_table(self):
        """The selection table this run's cost model consults.

        Rebuilt from the embedded payload — never the ambient process
        registry, whose contents are not part of the fingerprint.  An
        ``"auto"`` spec without a snapshot pins the always-miss table
        (plain ring, bit-identically) for the same reason; any other
        algorithm consults no table.
        """
        if self.tuned_table is not None:
            from repro.network.autotuner import SelectionTable

            return SelectionTable.from_payload_tuple(self.tuned_table)
        if self.algorithm == "auto":
            from repro.network.autotuner import NO_TABLE

            return NO_TABLE
        return None

    def run(self, trace: bool = False) -> ScheduleResult:
        """Execute the simulation this spec describes.

        Specs with ``compute_scales`` return a
        :class:`~repro.schedulers.multirank.HeterogeneousResult`, which
        exposes the same ``iteration_time`` / ``iteration_times`` /
        ``extras`` surface the runner and reporters consume.
        ``trace=True`` records the run's Perfetto spans into
        ``result.tracer`` (``None`` otherwise).
        """
        kwargs = dict(
            batch_size=self.batch_size,
            algorithm=self.algorithm,
            iterations=self.iterations,
            iteration_compute=self.iteration_compute,
            faults=self.faults,
            tuned_table=self.selection_table(),
            workload=self.workload,
            trace=trace,
            **dict(self.options),
        )
        if self.compute_scales is not None:
            return simulate_heterogeneous(
                self.scheduler, self.model, self.cluster, self.compute_scales,
                **kwargs,
            )
        return simulate(self.scheduler, self.model, self.cluster, **kwargs)


def _model_payload(model: ModelSpec) -> dict:
    """Public-field payload of ``model``, built once per model object.

    ``dataclasses.asdict`` over a zoo model walks tens of kilobytes of
    layer data, so the result is kept in the model's underscore lazy
    cache (excluded from the payload itself).  ``ModelSpec`` is frozen
    and its layers and tensors are tuples of frozen dataclasses, so the
    cached payload cannot go stale.
    """
    payload = model._tensor_cache.get("payload")
    if payload is None:
        payload = _public_fields(dataclasses.asdict(model))
        model._tensor_cache["payload"] = payload
    return payload


def _model_json(model: ModelSpec) -> str:
    """Canonical JSON text of :func:`_model_payload`, cached beside it."""
    text = model._tensor_cache.get("json")
    if text is None:
        text = _dumps(_model_payload(model))
        model._tensor_cache["json"] = text
    return text


def _cluster_payload(cluster: ClusterSpec) -> dict:
    return _public_fields(dataclasses.asdict(cluster))


#: Canonical JSON text per cluster, keyed by ``repr``.  Clusters are
#: rebuilt per request (``paper_testbed``), so an identity cache would
#: never hit; ``==`` is no key either, since ``1 == 1.0`` and
#: ``0.0 == -0.0`` while their JSON differs.  A ``ClusterSpec`` is a
#: frozen dataclass of str/int/float/tuple fields, all in its repr, so
#: equal reprs mean equal JSON.
_CLUSTER_JSON: dict[str, str] = {}

#: Distinct clusters remembered before the memo starts over.
_CLUSTER_JSON_LIMIT = 256


def _cluster_json(cluster: ClusterSpec) -> str:
    """Canonical JSON text of :func:`_cluster_payload`, memoised."""
    key = repr(cluster)
    text = _CLUSTER_JSON.get(key)
    if text is None:
        if len(_CLUSTER_JSON) >= _CLUSTER_JSON_LIMIT:
            _CLUSTER_JSON.clear()
        text = _CLUSTER_JSON[key] = _dumps(_cluster_payload(cluster))
    return text


def _public_fields(value):
    """Recursively drop dict keys starting with an underscore."""
    if isinstance(value, dict):
        return {
            key: _public_fields(item)
            for key, item in value.items()
            if not (isinstance(key, str) and key.startswith("_"))
        }
    if isinstance(value, (list, tuple)):
        return [_public_fields(item) for item in value]
    return value


def _jsonify(value):
    """Fallback encoder for option values (tuples are handled natively)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{value!r} is not canonically serialisable")


def _dumps(value) -> str:
    """The canonical encoding of one value: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_jsonify)

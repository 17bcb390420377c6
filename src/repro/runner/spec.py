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
from repro.network.fabric import ClusterSpec
from repro.network.presets import paper_testbed
from repro.schedulers.base import DEFAULT_ITERATIONS, ScheduleResult, simulate

__all__ = ["RunSpec"]


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

    Build via :meth:`RunSpec.create`, which accepts registry names
    ("resnet50", "10gbe") as well as resolved spec objects.
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
        """Mirror of the ``simulate(...)`` signature.

        ``tuned_table`` accepts a
        :class:`~repro.network.autotuner.SelectionTable`, its payload
        tuple, or None.  ``algorithm="auto"`` with no explicit table
        snapshots the process-registered table (if any) into the spec,
        so the fingerprint — and the cached result — reflect the tuning
        actually used.
        """
        if not isinstance(model, ModelSpec):
            model = get_model(model)
        if not isinstance(cluster, ClusterSpec):
            cluster = paper_testbed(cluster)
        if tuned_table is not None and not isinstance(tuned_table, tuple):
            tuned_table = tuned_table.payload_tuple()
        if tuned_table is None and algorithm == "auto":
            from repro.network.autotuner import table_for

            registered = table_for(cluster)
            if registered is not None:
                tuned_table = registered.payload_tuple()
        if workload is not None:
            from repro.workloads import WORKLOAD_NAMES

            if workload not in WORKLOAD_NAMES:
                raise ValueError(
                    f"unknown workload {workload!r}; "
                    f"expected one of {WORKLOAD_NAMES}"
                )
        return cls(
            scheduler=scheduler,
            model=model,
            cluster=cluster,
            batch_size=batch_size,
            algorithm=algorithm,
            iterations=iterations,
            iteration_compute=iteration_compute,
            options=_freeze_options(options),
            faults=normalize_plan(faults),
            compute_scales=(
                None if compute_scales is None
                else tuple(float(scale) for scale in compute_scales)
            ),
            tuned_table=tuned_table,
            workload=workload,
        )

    # -- identity ------------------------------------------------------------

    def canonical_payload(self) -> dict:
        """JSON-ready dict of every outcome-determining input.

        Underscore-prefixed dataclass fields are dropped recursively:
        they are lazy caches (e.g. ``ModelSpec._tensor_cache``) whose
        fill state must not perturb the fingerprint.  The ``"model"``
        entry is shared with every spec over the same model object:
        treat the payload as read-only.
        """
        payload = {
            "scheduler": self.scheduler,
            "model": _model_payload(self.model),
            "cluster": _public_fields(dataclasses.asdict(self.cluster)),
            "batch_size": self.batch_size,
            "algorithm": self.algorithm,
            "iterations": self.iterations,
            "iteration_compute": self.iteration_compute,
            "options": [[key, value] for key, value in self.options],
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
        """Deterministic serialisation: sorted keys, no whitespace."""
        return json.dumps(
            self.canonical_payload(),
            sort_keys=True,
            separators=(",", ":"),
            default=_jsonify,
        )

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

    def run(self) -> ScheduleResult:
        """Execute the simulation this spec describes.

        Specs with ``compute_scales`` return a
        :class:`~repro.schedulers.multirank.HeterogeneousResult`, which
        exposes the same ``iteration_time`` / ``iteration_times`` /
        ``extras`` surface the runner and reporters consume.
        """
        table = None
        if self.tuned_table is not None:
            from repro.network.autotuner import SelectionTable

            table = SelectionTable.from_payload_tuple(self.tuned_table)
        elif self.algorithm == "auto":
            # The spec was snapshotted without a table: pin plain-ring
            # behaviour even if the executing process registered one
            # since (the fingerprint says "untuned").
            from repro.network.autotuner import NO_TABLE

            table = NO_TABLE
        return self._execute(table)

    def _execute(self, table) -> ScheduleResult:
        if self.compute_scales is not None:
            from repro.schedulers.multirank import simulate_heterogeneous

            return simulate_heterogeneous(
                self.scheduler,
                self.model,
                self.cluster,
                self.compute_scales,
                batch_size=self.batch_size,
                algorithm=self.algorithm,
                iterations=self.iterations,
                iteration_compute=self.iteration_compute,
                faults=self.faults,
                tuned_table=table,
                workload=self.workload,
                **dict(self.options),
            )
        return simulate(
            self.scheduler,
            self.model,
            self.cluster,
            batch_size=self.batch_size,
            algorithm=self.algorithm,
            iterations=self.iterations,
            iteration_compute=self.iteration_compute,
            faults=self.faults,
            tuned_table=table,
            workload=self.workload,
            **dict(self.options),
        )


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

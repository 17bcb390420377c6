"""Seeded fault plans: the single description of what goes wrong.

A :class:`FaultPlan` is a frozen, hashable value describing every fault
a run should experience, split across the repo's two execution paths:

- **data-level** faults exercise the real numpy collectives:
  probabilistic message drop / duplication / delay on the in-process
  transport, plus explicit rank deaths
  (:class:`RankFailure`) — consumed by
  :class:`repro.faults.transport.FaultyTransport` and recovered from by
  :class:`repro.faults.resilient.ResilientCommunicator`;
- **timing-level** faults perturb the simulated timeline: link
  degradation windows (:class:`LinkFault`, per-link alpha/beta
  multipliers over a time interval) and compute stragglers
  (:class:`StragglerFault`) — consumed by
  :class:`repro.faults.timing.TimingFaultInjector` inside the
  scheduler engine.

Like :class:`~repro.runner.spec.RunSpec`, a plan has a canonical JSON
payload so it can participate in run fingerprints and cache keys; all
randomness derives from ``seed``, so a plan is a *deterministic*
description — two runs of the same plan inject byte-identical faults.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

__all__ = [
    "FaultPlan",
    "LinkFault",
    "RankFailure",
    "StragglerFault",
    "normalize_plan",
]

#: Which cluster link a :class:`LinkFault` degrades.
LINK_SCOPES = ("inter", "intra", "both")

#: Default number of injected message faults before a plan goes quiet.
#: A finite budget plus a bounded retry policy is what guarantees
#: faulty collectives terminate (see docs/FAULTS.md).
DEFAULT_FAULT_BUDGET = 32


@dataclass(frozen=True)
class RankFailure:
    """Permanent death of one rank at a data-level collective boundary.

    The rank is alive for its first ``after_collectives`` completed
    collectives and dead from then on (``0`` = dead from the start).
    """

    rank: int
    after_collectives: int = 0

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.after_collectives < 0:
            raise ValueError(
                f"after_collectives must be >= 0, got {self.after_collectives}"
            )


def _check_window(start: float, end: float) -> None:
    """A timing window ``[start, end)``: a finite ``start >= 0`` and a
    later ``end``, which may be infinite but not NaN."""
    if not (math.isfinite(start) and start >= 0):
        raise ValueError(f"window start must be finite and >= 0, got {start}")
    if math.isnan(end):
        raise ValueError("window end must be a number, got nan")
    if end <= start:
        raise ValueError(f"window must be non-empty, got [{start}, {end})")


def _check_factor(name: str, factor: float) -> None:
    """A slowdown factor: finite and positive (NaN fails both)."""
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"{name} must be finite and positive, got {factor}")


@dataclass(frozen=True)
class LinkFault:
    """One link-degradation window in the timing domain.

    During ``[start, end)`` the selected link's latency is multiplied
    by ``alpha_factor`` and its per-byte time by ``beta_factor``
    (equivalently: bandwidth divided by ``beta_factor``).  Overlapping
    windows compose multiplicatively.  A collective starting inside the
    window is charged the degraded time for its whole duration — the
    factors are sampled at job start.
    """

    start: float
    end: float
    alpha_factor: float = 1.0
    beta_factor: float = 1.0
    link: str = "inter"

    def __post_init__(self):
        _check_window(self.start, self.end)
        for name in ("alpha_factor", "beta_factor"):
            _check_factor(name, getattr(self, name))
        if self.link not in LINK_SCOPES:
            raise ValueError(
                f"unknown link scope {self.link!r}; expected one of {LINK_SCOPES}"
            )

    def active(self, now: float) -> bool:
        """Whether the window covers simulated time ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class StragglerFault:
    """A compute slowdown window in the timing domain.

    Compute jobs *starting* inside ``[start, end)`` take
    ``compute_factor`` times as long; overlapping windows compose
    multiplicatively.
    """

    start: float
    end: float
    compute_factor: float = 1.5

    def __post_init__(self):
        _check_window(self.start, self.end)
        _check_factor("compute_factor", self.compute_factor)

    def active(self, now: float) -> bool:
        """Whether the window covers simulated time ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, as a frozen value.

    ``drop_prob`` / ``dup_prob`` / ``delay_prob`` are per-message
    probabilities on the data-level transport (their sum must be <= 1);
    each injected message fault consumes one unit of ``fault_budget``,
    after which the transport delivers cleanly — together with the
    bounded retry policy this guarantees termination.
    """

    seed: int = 0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    fault_budget: int = DEFAULT_FAULT_BUDGET
    rank_failures: tuple[RankFailure, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = field(default=())

    def __post_init__(self):
        # Accept lists for ergonomic construction; store tuples so the
        # plan stays hashable.
        for name in ("rank_failures", "link_faults", "stragglers"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        for name in ("drop_prob", "dup_prob", "delay_prob"):
            prob = getattr(self, name)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if self.drop_prob + self.dup_prob + self.delay_prob > 1.0 + 1e-12:
            raise ValueError("drop/dup/delay probabilities must sum to <= 1")
        if self.fault_budget < 0:
            raise ValueError(
                f"fault_budget must be >= 0, got {self.fault_budget}"
            )

    # -- classification ------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        """Whether any probabilistic message fault can fire."""
        return self.fault_budget > 0 and (
            self.drop_prob > 0 or self.dup_prob > 0 or self.delay_prob > 0
        )

    @property
    def has_data_faults(self) -> bool:
        """Whether the plan perturbs the data-level collectives."""
        return self.has_message_faults or bool(self.rank_failures)

    @property
    def has_timing_faults(self) -> bool:
        """Whether the plan perturbs the simulated timeline."""
        return bool(self.link_faults) or bool(self.stragglers)

    @property
    def is_empty(self) -> bool:
        """A plan that injects nothing at all (the healthy baseline)."""
        return not (self.has_data_faults or self.has_timing_faults)

    # -- timing-domain queries ------------------------------------------------

    def compute_factor(self, now: float) -> float:
        """Combined compute slowdown for a job starting at ``now``."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.active(now):
                factor *= straggler.compute_factor
        return factor

    def link_factors(self, now: float) -> tuple[float, float, float, float]:
        """Per-link degradation at ``now``.

        Returns ``(inter_alpha, inter_beta, intra_alpha, intra_beta)``
        multiplicative factors — ``(1, 1, 1, 1)`` means healthy.  Used
        as the cache key for degraded cost models, so collectives
        starting in the same combination of windows share one model.
        """
        inter_alpha = inter_beta = intra_alpha = intra_beta = 1.0
        for fault in self.link_faults:
            if not fault.active(now):
                continue
            if fault.link in ("inter", "both"):
                inter_alpha *= fault.alpha_factor
                inter_beta *= fault.beta_factor
            if fault.link in ("intra", "both"):
                intra_alpha *= fault.alpha_factor
                intra_beta *= fault.beta_factor
        return inter_alpha, inter_beta, intra_alpha, intra_beta

    # -- identity --------------------------------------------------------------

    def canonical_payload(self) -> dict:
        """JSON-ready dict, the schema documented in docs/FAULTS.md."""
        return {
            "seed": self.seed,
            "drop_prob": self.drop_prob,
            "dup_prob": self.dup_prob,
            "delay_prob": self.delay_prob,
            "fault_budget": self.fault_budget,
            "rank_failures": [
                {"rank": f.rank, "after_collectives": f.after_collectives}
                for f in self.rank_failures
            ],
            "link_faults": [
                {
                    "start": f.start,
                    "end": f.end,
                    "alpha_factor": f.alpha_factor,
                    "beta_factor": f.beta_factor,
                    "link": f.link,
                }
                for f in self.link_faults
            ],
            "stragglers": [
                {
                    "start": f.start,
                    "end": f.end,
                    "compute_factor": f.compute_factor,
                }
                for f in self.stragglers
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        """Inverse of :meth:`canonical_payload` (round-trip safe).

        Any malformed payload — wrong shape, unknown or missing fields,
        a value of the wrong JSON type — raises :class:`ValueError`.
        """
        data = _checked_fields(cls, payload, "fault-plan")
        for name, entry_cls in (
            ("rank_failures", RankFailure),
            ("link_faults", LinkFault),
            ("stragglers", StragglerFault),
        ):
            entries = data.get(name, ())
            if not isinstance(entries, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {type(entries).__name__}")
            data[name] = tuple(
                entry_cls(**_checked_fields(entry_cls, entry, name))
                for entry in entries
            )
        return cls(**data)

    def label(self) -> str:
        """Compact human-readable summary for reports and extras."""
        parts = [f"seed={self.seed}"]
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:g}")
        if self.dup_prob:
            parts.append(f"dup={self.dup_prob:g}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob:g}")
        if self.rank_failures:
            parts.append(f"deaths={len(self.rank_failures)}")
        if self.link_faults:
            parts.append(f"link_faults={len(self.link_faults)}")
        if self.stragglers:
            parts.append(f"stragglers={len(self.stragglers)}")
        return "faults(" + ", ".join(parts) + ")"


#: JSON types accepted for a plan field, by its annotation.  Bools are
#: JSON's own type, never a number.
_WIRE_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _checked_fields(cls, payload, where: str) -> dict:
    """``payload`` as ``cls`` keyword arguments, or :class:`ValueError`."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, got {type(payload).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")
    missing = [
        name for name, f in known.items()
        if name not in payload
        and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{where} missing required fields: {missing}")
    for name, value in payload.items():
        expected = _WIRE_TYPES.get(known[name].type)
        if expected is not None and (
            isinstance(value, bool) or not isinstance(value, expected)
        ):
            raise ValueError(f"{where} field {name!r} must be {known[name].type}, "
                             f"got {value!r}")
    return dict(payload)


def normalize_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Collapse an empty plan to ``None``.

    The engine takes ``None`` as "no fault machinery at all", which is
    what guarantees an empty plan reproduces pre-fault behaviour
    bit-for-bit (pinned by the differential suite): the healthy path
    does not merely inject zero faults, it never runs the injector.
    """
    if plan is not None and plan.is_empty:
        return None
    return plan

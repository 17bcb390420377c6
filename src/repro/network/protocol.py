"""Protocol tiers, channel striping, and chunked pipelined rounds.

The alpha-beta model of :mod:`repro.network.cost_model` prices every
collective as if the fabric ran one NCCL *Simple*-protocol channel.
Real NCCL ("Demystifying NCCL", arXiv:2507.04786) picks among three
protocol tiers with different latency/bandwidth trade-offs, stripes the
buffer across multiple channels, and pipelines chunked rounds:

- **Simple** — full-buffer transfers with memory-fence synchronisation:
  the highest per-message latency but the full link bandwidth.  This is
  the tier the calibrated presets describe, so its factors are all 1.0
  and the protocol-aware model degenerates to the plain one.
- **LL** (low latency) — 8-byte atomic writes carrying 4 bytes of data
  plus a 4-byte validity flag: no fences (a fraction of Simple's
  latency) but a 2x wire tax and a reduced issue rate, netting out
  around a quarter of the link bandwidth.
- **LL128** — 128-byte lines carrying 120 payload bytes: most of the
  bandwidth (~95% x 120/128) at roughly half of Simple's latency.

**Channel striping.**  A link's calibrated ``bandwidth`` is what NCCL
achieves at its preferred channel count (:attr:`LinkSpec.channels`);
fewer channels cannot saturate the link (bandwidth scales ~linearly up
to the calibrated count) but launch fewer kernels/QPs, so the per-call
latency shrinks.  Striping therefore trades alpha against beta exactly
like the protocol tiers do, and at the calibrated channel count the
effective (alpha, beta) equal the link's — the parity anchor the
differential tests pin.

**Chunked pipelined rounds.**  ``ring_chunks > 1`` splits each ring
round's payload into pipelined sub-chunks: ``(P-1 + k-1)`` stages of
``d/(P*k)`` bytes instead of ``P-1`` rounds of ``d/P``.

This module only turns a (protocol, channels) choice into effective
(alpha, beta) pairs (:func:`resolve_links`); the round formulas live in
:mod:`repro.network.cost_model`, whose one formula table both the
scalar :class:`~repro.network.cost_model.CollectiveTimeModel` and the
vectorized :func:`collective_times` price through.  The tune harness
and the selection-table builder evaluate a whole size sweep in one
:func:`collective_times` pass (counted by the
``network.cost_model.evals`` telemetry counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.network.fabric import ClusterSpec, LinkSpec
from repro.telemetry.registry import default_registry

__all__ = [
    "ProtocolSpec",
    "SIMPLE",
    "LL",
    "LL128",
    "PROTOCOLS",
    "CHANNEL_ALPHA_TAX",
    "resolve_protocol",
    "channel_latency_factor",
    "channel_bandwidth_factor",
    "effective_alpha_beta",
    "governing_link",
    "resolve_links",
    "collective_times",
    "collective_time",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One NCCL-style protocol tier in the alpha-beta model.

    Attributes:
        name: tier name ("simple", "ll", "ll128").
        latency_factor: multiplies the link's calibrated per-message
            alpha (LL's flag-based handshake skips Simple's fences).
        bandwidth_factor: fraction of the link bandwidth the tier's
            issue rate sustains, *before* the wire tax.
        wire_overhead: bytes-on-the-wire per payload byte (LL sends a
            4-byte flag with every 4 data bytes; LL128 sends 128-byte
            lines carrying 120 payload bytes).
    """

    name: str
    latency_factor: float
    bandwidth_factor: float
    wire_overhead: float = 1.0

    def __post_init__(self):
        if self.latency_factor <= 0:
            raise ValueError(f"latency_factor must be positive, got {self.latency_factor}")
        if not 0 < self.bandwidth_factor <= 1:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.wire_overhead < 1:
            raise ValueError(f"wire_overhead must be >= 1, got {self.wire_overhead}")

    @property
    def beta_factor(self) -> float:
        """Combined per-payload-byte multiplier vs. the Simple tier."""
        return self.wire_overhead / self.bandwidth_factor


#: The calibrated baseline: presets are measured under this tier, so
#: every factor is exactly 1.0 and Simple prices match the plain model.
SIMPLE = ProtocolSpec("simple", latency_factor=1.0, bandwidth_factor=1.0)

#: 4B data + 4B flag per 8B atomic, no fences: ~1/4 of the latency,
#: ~1/4 of the effective bandwidth (2x wire tax at half the issue rate).
LL = ProtocolSpec("ll", latency_factor=0.25, bandwidth_factor=0.5, wire_overhead=2.0)

#: 120 payload bytes per 128-byte line: ~half the latency at ~88% of
#: the link bandwidth.
LL128 = ProtocolSpec(
    "ll128", latency_factor=0.5, bandwidth_factor=0.9375, wire_overhead=128.0 / 120.0
)

PROTOCOLS: dict[str, ProtocolSpec] = {spec.name: spec for spec in (SIMPLE, LL, LL128)}

#: Per-channel launch cost as a fraction of the link alpha: each channel
#: beyond (below) the calibrated count adds (saves) this fraction,
#: floored so pathological counts cannot drive alpha negative.
CHANNEL_ALPHA_TAX = 0.25

#: Floor of the channel latency factor (one channel on a many-channel
#: link still pays at least half the calibrated launch latency).
_CHANNEL_LATENCY_FLOOR = 0.5


def resolve_protocol(protocol: Union[str, ProtocolSpec]) -> ProtocolSpec:
    """A :class:`ProtocolSpec` from a tier name or a spec object."""
    if isinstance(protocol, ProtocolSpec):
        return protocol
    key = str(protocol).lower()
    if key not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {sorted(PROTOCOLS)}"
        )
    return PROTOCOLS[key]


def channel_latency_factor(
    channels: int, base_channels: int, tax: float = CHANNEL_ALPHA_TAX
) -> float:
    """Alpha multiplier of running ``channels`` vs. the calibrated count.

    Exactly 1.0 at the calibrated count (the parity anchor); each extra
    channel adds ``tax / base_channels`` of launch latency, each removed
    channel saves it, floored at ``0.5``.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if base_channels < 1:
        raise ValueError(f"base_channels must be >= 1, got {base_channels}")
    if channels == base_channels:
        return 1.0
    return max(
        _CHANNEL_LATENCY_FLOOR, 1.0 + tax * (channels - base_channels) / base_channels
    )


def channel_bandwidth_factor(channels: int, base_channels: int) -> float:
    """Fraction of the calibrated link bandwidth ``channels`` sustain.

    Linear up to the calibrated count (one QP/CTA cannot saturate a fat
    link), saturating at 1.0: extra channels past the calibrated count
    buy no bandwidth, only launch latency.
    """
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if base_channels < 1:
        raise ValueError(f"base_channels must be >= 1, got {base_channels}")
    if channels >= base_channels:
        return 1.0
    return channels / base_channels


def governing_link(cluster: ClusterSpec) -> LinkSpec:
    """The link whose protocol capabilities govern a flat collective.

    A flat ring is paced by its bottleneck hop — the inter-node network
    on any multi-node cluster, the intra-node bus otherwise — so that
    link's protocol set and channel count bound the selection space.
    """
    return cluster.inter_link if cluster.multi_node else cluster.intra_link


def effective_alpha_beta(
    link_alpha: float,
    link_beta: float,
    protocol: Union[str, ProtocolSpec],
    channels: int,
    base_channels: int,
) -> tuple[float, float]:
    """(alpha, beta) of one hop under a protocol tier and channel count.

    At ``(SIMPLE, base_channels)`` both factors are exactly 1.0, so the
    result is bit-identical to the calibrated link numbers.
    """
    spec = resolve_protocol(protocol)
    alpha = (
        link_alpha
        * spec.latency_factor
        * channel_latency_factor(channels, base_channels)
    )
    beta = (
        link_beta
        * spec.beta_factor
        / channel_bandwidth_factor(channels, base_channels)
    )
    return alpha, beta


def resolve_links(
    cluster: ClusterSpec,
    protocol: Union[str, ProtocolSpec, None] = None,
    channels: Optional[int] = None,
    enforce_capability: bool = True,
) -> tuple[ProtocolSpec, tuple]:
    """The protocol tier and the (alpha, beta) pairs a collective runs on.

    Returns ``(spec, (flat, intra, inter))``: ``flat`` paces the flat
    algorithms under the tier and channel count; the two-level ones run
    their inter-node phase under the tier (``inter``) and their
    intra-node phase at the calibrated baseline (``intra``).
    ``protocol=None`` means the calibrated Simple tier at the governing
    link's calibrated channel count, where ``flat`` is the cluster's
    plain flat-ring pair bit-for-bit.

    With ``enforce_capability`` (default), a protocol outside the
    governing link's capability set raises ``ValueError`` — a 10GbE
    socket transport has no LL/LL128 tiers to select.
    """
    link = governing_link(cluster)
    spec = SIMPLE if protocol is None else resolve_protocol(protocol)
    if enforce_capability and spec.name not in link.protocols:
        raise ValueError(
            f"protocol {spec.name!r} not supported by link {link.name!r} "
            f"(capabilities: {link.protocols})"
        )
    channels = link.channels if channels is None else int(channels)
    flat = effective_alpha_beta(*cluster.flat_alpha_beta(), spec, channels, link.channels)
    inter = effective_alpha_beta(
        cluster.inter_link.alpha, cluster.inter_link.beta,
        spec, channels, cluster.inter_link.channels,
    )
    intra = (cluster.intra_link.alpha, cluster.intra_link.beta)
    return spec, (flat, intra, inter)


_OPS = ("reduce_scatter", "all_gather", "all_reduce", "all_to_all")


def collective_times(
    op: str,
    sizes,
    cluster: ClusterSpec,
    algorithm: str = "ring",
    protocol: Union[str, ProtocolSpec, None] = None,
    channels: Optional[int] = None,
    ring_chunks: int = 1,
    gamma: float = 0.0,
    startup_overhead: float = 0.0,
    enforce_capability: bool = True,
) -> np.ndarray:
    """Protocol-aware collective times over a numpy vector of sizes.

    One pass evaluates the whole sweep (no Python loop per size) through
    the same formula table as :class:`~repro.network.cost_model.CollectiveTimeModel`
    (:func:`~repro.network.cost_model.collective_price`); the
    ``network.cost_model.evals`` counter records the evaluation count.
    ``protocol=None`` means the calibrated Simple tier at the link's
    calibrated channel count — the plain alpha-beta model.  See
    :func:`resolve_links` for ``enforce_capability``.
    """
    # Late import: the cost model resolves its links through this module.
    from repro.network.cost_model import collective_price

    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {_OPS}")
    if ring_chunks < 1:
        raise ValueError(f"ring_chunks must be >= 1, got {ring_chunks}")
    d = np.asarray(sizes, dtype=float)
    if np.any(d < 0):
        raise ValueError("message sizes must be non-negative")
    spec, links = resolve_links(cluster, protocol, channels, enforce_capability)
    t = collective_price(op, algorithm, d, cluster, links, gamma, ring_chunks)
    # Empty messages are free; non-empty ones pay the software overhead
    # once per collective (the scalar model's fused all-reduce also
    # charges a single overhead: RS + AG - one of the two).
    t = np.where(d > 0, t + startup_overhead, 0.0)
    default_registry().counter(
        "network.cost_model.evals", "vectorized cost-model size evaluations"
    ).inc(d.size, op=op, algorithm=algorithm, protocol=spec.name)
    return t


def collective_time(
    op: str,
    nbytes: float,
    cluster: ClusterSpec,
    algorithm: str = "ring",
    protocol: Union[str, ProtocolSpec, None] = None,
    channels: Optional[int] = None,
    ring_chunks: int = 1,
    gamma: float = 0.0,
    startup_overhead: float = 0.0,
) -> float:
    """Scalar convenience wrapper around :func:`collective_times`."""
    return float(
        collective_times(
            op,
            np.array([nbytes], dtype=float),
            cluster,
            algorithm=algorithm,
            protocol=protocol,
            channels=channels,
            ring_chunks=ring_chunks,
            gamma=gamma,
            startup_overhead=startup_overhead,
        )[0]
    )

"""Per-layer compute timing profiles.

The schedulers need, for every learnable layer, the feed-forward and
backpropagation execution time on one GPU.  The authors measured these
on GTX 2080Ti hardware we do not have, so the profiles are synthesised
as follows (documented as a substitution in DESIGN.md):

1. **Total iteration compute time** ``T = t_ff + t_bp`` per model is
   back-derived from the paper's own Table II: given the model size,
   the 10GbE bandwidth, and Eq. 6, each reported S^max pins down T
   (e.g. ResNet-50's S^max = 61.6 at BS 64 implies T = 0.220 s).
   For DenseNet-201 the reported S^max = 64 only lower-bounds T; we use
   0.260 s (~123 images/s on a single 2080Ti, consistent with public
   benchmarks).
2. **FF/BP split**: the paper assumes feed-forward takes one third of
   the compute and backpropagation two thirds (§II-C, §VI-F:
   "backpropagation computing tasks ... typically take two times slower
   than feed-forward"), so ``t_bp = 2 * t_ff`` per layer.
3. **Per-layer distribution**: each layer receives a small fixed kernel
   launch floor plus a share of the remaining time proportional to its
   analytic FLOP count.
4. **Batch-size scaling** (Fig. 11): compute scales affinely in the
   per-GPU batch size with a 10% fixed-overhead fraction,
   ``T(bs) = T_ref * (0.1 + 0.9 * bs / bs_ref)``, modelling kernel
   launch and memory-bound tails that do not shrink with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.models.layers import ModelSpec

__all__ = [
    "CALIBRATED_ITERATION_COMPUTE",
    "ComputeProfile",
    "TimingModel",
    "build_profile",
    "profile_times",
]

#: Single-GPU compute time per iteration (t_ff + t_bp, seconds) at the
#: Table I default batch size, back-derived from Table II (see module
#: docstring).
CALIBRATED_ITERATION_COMPUTE: dict[str, float] = {
    "resnet50": 0.2200,
    "densenet201": 0.2600,
    "inception_v4": 0.3394,
    "bert_base": 0.2807,
    "bert_large": 0.4068,
}

#: Per-layer kernel-launch floors (seconds): even a tiny BN kernel costs
#: a few microseconds to launch and synchronise.
_FF_FLOOR = 5e-6
_BP_FLOOR = 10e-6

#: Fraction of compute time that does not scale with batch size.
_FIXED_OVERHEAD_FRACTION = 0.10

#: Default FF share of the iteration compute (paper: "around one third").
_FF_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class ComputeProfile:
    """Per-layer FF/BP times for one model at one batch size.

    ``ff_times[i]`` / ``bp_times[i]`` are the execution times of layer
    ``i`` (feed-forward order) for a whole mini-batch, in seconds.
    """

    model: ModelSpec
    batch_size: int
    ff_times: tuple[float, ...]
    bp_times: tuple[float, ...]

    def __post_init__(self):
        if len(self.ff_times) != self.model.num_layers:
            raise ValueError("ff_times length must equal the layer count")
        if len(self.bp_times) != self.model.num_layers:
            raise ValueError("bp_times length must equal the layer count")

    @property
    def total_ff(self) -> float:
        """Feed-forward time of one iteration (t_ff)."""
        return sum(self.ff_times)

    @property
    def total_bp(self) -> float:
        """Backpropagation time of one iteration (t_bp)."""
        return sum(self.bp_times)

    @property
    def iteration_compute(self) -> float:
        """t_ff + t_bp: the single-GPU iteration time (no communication)."""
        return self.total_ff + self.total_bp

    @property
    def single_gpu_throughput(self) -> float:
        """Samples/s of one GPU running this model alone."""
        return self.batch_size / self.iteration_compute


def batch_scale(batch_size: int, reference_batch_size: int) -> float:
    """Affine compute scaling factor for a non-default batch size."""
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    ratio = batch_size / reference_batch_size
    return _FIXED_OVERHEAD_FRACTION + (1.0 - _FIXED_OVERHEAD_FRACTION) * ratio


def profile_times(
    model: ModelSpec,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
    ff_fraction: float = _FF_FRACTION,
    scales: Sequence[float] = (1.0,),
) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer FF and BP times of ``model`` at each compute scale.

    Returns two ``(len(scales), layers)`` matrices: row ``i`` holds the
    profile :func:`build_profile` gives at ``compute_scale=scales[i]``.
    Each layer gets a launch floor plus a FLOP-proportional share of
    what the floors leave, ``floor + (remaining * flops) / flop_sum``,
    the same float operations in the same order on every element, so a
    row does not depend on the other rows.  A row whose floors alone
    reach its total (a tiny batch) is spread evenly; an overflow gives
    ``inf``, as Python's float arithmetic does.
    """
    if batch_size is None:
        batch_size = model.default_batch_size
    if iteration_compute is None:
        try:
            iteration_compute = CALIBRATED_ITERATION_COMPUTE[model.name]
        except KeyError:
            raise KeyError(
                f"no calibrated compute time for model {model.name!r}; "
                "pass iteration_compute explicitly"
            ) from None
    if not 0.0 < ff_fraction < 1.0:
        raise ValueError(f"ff_fraction must be in (0, 1), got {ff_fraction}")

    base = iteration_compute * batch_scale(batch_size, model.default_batch_size)
    flops = [layer.flops for layer in model.layers]
    weights = np.array(flops, dtype=float)
    weight_sum = float(sum(flops))
    with np.errstate(all="ignore"):
        totals = base * np.asarray(scales, dtype=float)
        total_ff = totals * ff_fraction
        total_bp = totals - total_ff
        return (
            _split(total_ff, weights, weight_sum, _FF_FLOOR),
            _split(total_bp, weights, weight_sum, _BP_FLOOR),
        )


def _split(totals: np.ndarray, weights: np.ndarray, weight_sum: float,
           floor: float) -> np.ndarray:
    """Split each of ``totals`` into per-layer times, one row per total."""
    count = len(weights)
    floor_total = floor * count
    if weight_sum > 0:
        times = floor + ((totals - floor_total)[:, None] * weights) / weight_sum
        even = floor_total >= totals
    else:
        times = np.empty((len(totals), count))
        even = slice(None)
    # Degenerate rows (the floors reach the total): spread evenly.
    times[even] = (totals[even] / count)[:, None]
    return times


def build_profile(
    model: ModelSpec,
    batch_size: Optional[int] = None,
    iteration_compute: Optional[float] = None,
    ff_fraction: float = _FF_FRACTION,
    compute_scale: float = 1.0,
) -> ComputeProfile:
    """Build the calibrated timing profile for ``model``.

    The one-row case of :func:`profile_times`.

    Args:
        model: the architecture.
        batch_size: per-GPU mini-batch size; defaults to Table I's.
        iteration_compute: override the calibrated single-GPU iteration
            compute time (seconds, at the *default* batch size); by
            default looked up in :data:`CALIBRATED_ITERATION_COMPUTE`.
        ff_fraction: share of compute spent in feed-forward.
        compute_scale: multiply all times (straggler/faster-GPU studies).
    """
    if batch_size is None:
        batch_size = model.default_batch_size
    ff_times, bp_times = profile_times(
        model, batch_size, iteration_compute, ff_fraction, (compute_scale,)
    )
    return ComputeProfile(
        model=model, batch_size=batch_size,
        ff_times=tuple(ff_times[0].tolist()),
        bp_times=tuple(bp_times[0].tolist()),
    )


class TimingModel:
    """Convenience accessor bundling a model with its profile.

    Exposes per-layer and per-tensor lookups the schedulers use, and
    the aggregate quantities the analytical models (Eq. 6-9) need.
    """

    def __init__(self, profile: ComputeProfile):
        self.profile = profile
        self.model = profile.model

    @classmethod
    def for_model(cls, model: ModelSpec, batch_size: Optional[int] = None,
                  **kwargs) -> "TimingModel":
        """Build the calibrated timing model (see :func:`build_profile`)."""
        return cls(build_profile(model, batch_size=batch_size, **kwargs))

    @property
    def batch_size(self) -> int:
        return self.profile.batch_size

    @property
    def t_ff(self) -> float:
        """Total feed-forward time per iteration (paper's t_ff)."""
        return self.profile.total_ff

    @property
    def t_bp(self) -> float:
        """Total backpropagation time per iteration (paper's t_bp)."""
        return self.profile.total_bp

    def ff_time(self, layer_index: int) -> float:
        """Feed-forward time of one layer."""
        return self.profile.ff_times[layer_index]

    def bp_time(self, layer_index: int) -> float:
        """Backpropagation time of one layer."""
        return self.profile.bp_times[layer_index]

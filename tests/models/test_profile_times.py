"""``profile_times`` against the scalar per-layer split it replaced.

:func:`~repro.models.profiles.profile_times` builds every rank class's
FF and BP times as one ``(classes, layers)`` numpy pass.  The oracle
below is the scalar builder it replaced, one Python float at a time;
each row must equal it byte for byte, whatever the model, batch size,
compute override or scale — duplicates, signed zeros, subnormals and
1e±300 included.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.models.profiles import (
    _BP_FLOOR,
    _FF_FLOOR,
    _FF_FRACTION,
    CALIBRATED_ITERATION_COMPUTE,
    TimingModel,
    batch_scale,
    build_profile,
    profile_times,
)
from repro.models.zoo import MODEL_NAMES, get_model
from tests.conftest import build_tiny_model

#: Models without a calibrated compute time need an override.
_UNCALIBRATED = ("vgg16", "gpt2_small")

_SPECIAL_SCALES = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, 1.0, 1.25)


def _distribute(total, weights, floor):
    """The scalar split: a floor each plus a FLOP share of the rest."""
    count = len(weights)
    floor_total = floor * count
    if floor_total >= total:
        return tuple(total / count for _ in range(count))
    remaining = total - floor_total
    weight_sum = sum(weights)
    if weight_sum <= 0:
        return tuple(total / count for _ in range(count))
    return tuple(floor + remaining * w / weight_sum for w in weights)


def _scalar_profile(model, batch_size, iteration_compute, scale):
    """One scale's (ff_times, bp_times), one Python float at a time."""
    if batch_size is None:
        batch_size = model.default_batch_size
    if iteration_compute is None:
        iteration_compute = CALIBRATED_ITERATION_COMPUTE[model.name]
    total = (
        iteration_compute
        * batch_scale(batch_size, model.default_batch_size)
        * scale
    )
    total_ff = total * _FF_FRACTION
    total_bp = total - total_ff
    weights = [layer.flops for layer in model.layers]
    return (
        _distribute(total_ff, weights, _FF_FLOOR),
        _distribute(total_bp, weights, _BP_FLOOR),
    )


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


_MODELS = st.sampled_from(MODEL_NAMES + _UNCALIBRATED)
_SCALES = st.lists(
    st.one_of(
        st.sampled_from(_SPECIAL_SCALES),
        st.floats(1.1, 2.0),
        st.floats(0.0, 1e300),
    ),
    min_size=1, max_size=12,
).map(lambda drawn: drawn + drawn[: len(drawn) // 2])  # duplicates


@st.composite
def _cases(draw):
    name = draw(_MODELS)
    compute = draw(st.one_of(
        st.none() if name not in _UNCALIBRATED else st.nothing(),
        st.floats(1e-7, 2.0),
        st.sampled_from((1e-6, 1.0, 1e300)),
    ))
    batch = draw(st.one_of(st.none(), st.integers(1, 512)))
    return get_model(name), batch, compute, draw(_SCALES)


@settings(deadline=None, max_examples=60)
@given(case=_cases())
@example(case=(get_model("resnet50"), None, None, list(_SPECIAL_SCALES)))
@example(case=(get_model("bert_large"), 1, 1e300, [1e300, 2.0, 1e-300]))
def test_rows_equal_the_scalar_split(case):
    model, batch, compute, scales = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow must not warn
        ff, bp = profile_times(model, batch, compute, _FF_FRACTION, scales)
    assert ff.shape == bp.shape == (len(scales), model.num_layers)
    for row, scale in enumerate(scales):
        want_ff, want_bp = _scalar_profile(model, batch, compute, scale)
        assert ff[row].tobytes() == _bytes(want_ff), (row, scale)
        assert bp[row].tobytes() == _bytes(want_bp), (row, scale)
        # A class's t_ff is Python's sum over its row, as the timing
        # model of that one scale computes it.
        timing = TimingModel.for_model(
            model, batch_size=batch, iteration_compute=compute,
            compute_scale=scale,
        )
        t_ff = sum(ff[row].tolist())
        assert t_ff == timing.t_ff or math.isnan(t_ff) and math.isnan(timing.t_ff)


@pytest.mark.parametrize("scale", [0.0, -0.0, 5e-324, 1e-300])
def test_degenerate_rows_are_spread_evenly(scale):
    """Rows whose launch floors reach the total take ``total / count``."""
    model = get_model("densenet201")
    ff, bp = profile_times(model, scales=[1.0, scale])
    count = model.num_layers
    total = CALIBRATED_ITERATION_COMPUTE["densenet201"] * scale
    total_ff = total * _FF_FRACTION
    assert ff[1].tobytes() == np.full(count, total_ff / count).tobytes()
    assert bp[1].tobytes() == np.full(count, (total - total_ff) / count).tobytes()
    assert np.all(ff[0] > _FF_FLOOR)  # the other row is not degenerate


def test_a_tiny_override_is_degenerate_in_every_row():
    model = build_tiny_model()
    ff, _ = profile_times(model, iteration_compute=1e-6, scales=[1.0, 2.0])
    assert np.all(ff == ff[:, :1])


def test_overflow_gives_inf_without_a_warning():
    model = get_model("bert_large")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ff, bp = profile_times(model, iteration_compute=1e300, scales=[1e300])
    want_ff, want_bp = _scalar_profile(model, None, 1e300, 1e300)
    assert ff[0].tobytes() == _bytes(want_ff)
    assert bp[0].tobytes() == _bytes(want_bp)
    assert np.isinf(ff).all()


def test_build_profile_is_the_one_row_case():
    model = get_model("inception_v4")
    profile = build_profile(model, batch_size=96, compute_scale=1.3)
    ff, bp = profile_times(model, 96, None, _FF_FRACTION, [1.3])
    assert profile.ff_times == tuple(ff[0].tolist())
    assert profile.bp_times == tuple(bp[0].tolist())
    assert all(type(value) is float for value in profile.ff_times)


def test_arguments_are_validated_as_build_profile_does():
    with pytest.raises(KeyError, match="no calibrated compute time"):
        profile_times(get_model("vgg16"))
    with pytest.raises(ValueError, match="ff_fraction"):
        profile_times(get_model("resnet50"), ff_fraction=1.0)
    with pytest.raises(ValueError, match="batch size"):
        profile_times(get_model("resnet50"), batch_size=0)

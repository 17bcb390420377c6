"""Buffer plans built from cut indices == the greedy tensor loop.

``buffer_size_groups`` finds its group ends with a bisection over the
model's byte prefix sums (``buffer_cuts``) and fills each group's byte
count and layer facts in from the model's tensor table.
:func:`greedy_plan` keeps the loop it replaced — append tensors while
the open group fits, close it on overflow — as the oracle.  The
properties below compare every group's tensors, bytes and layer facts,
the forward order and the layer cover on the zoo and the extra models,
for buffers from 1 B to 1e10 B and at exact-fit boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fusion import (
    FusionGroup,
    FusionPlan,
    buffer_cuts,
    buffer_size_groups,
)
from repro.models.extra import build_gpt2_small, build_vgg16
from repro.models.zoo import MODEL_NAMES, get_model

MODELS = {name: get_model(name) for name in MODEL_NAMES}
MODELS["vgg16"] = build_vgg16()
MODELS["gpt2_small"] = build_gpt2_small()


def greedy_plan(model, buffer_bytes: float) -> FusionPlan:
    """The greedy loop (the oracle); its groups derive every fact from
    their tensors."""
    runs, current, current_bytes = [], [], 0
    for tensor in model.tensors_backward_order():
        if current and current_bytes + tensor.nbytes > buffer_bytes:
            runs.append(current)
            current, current_bytes = [], 0
        current.append(tensor)
        current_bytes += tensor.nbytes
    runs.append(current)
    groups = [FusionGroup(index, tuple(run)) for index, run in enumerate(runs)]
    return FusionPlan(model, groups, policy=f"buffer:{buffer_bytes:g}")


def _facts(group: FusionGroup) -> tuple:
    return (
        group.index, group.tensors, group.nbytes, type(group.nbytes),
        group.layer_indices, group.first_layer, group.last_layer,
    )


def _assert_same_plan(model, buffer_bytes: float) -> None:
    got = buffer_size_groups(model, buffer_bytes)
    want = greedy_plan(model, buffer_bytes)
    assert got.policy == want.policy
    assert [_facts(g) for g in got] == [_facts(g) for g in want]
    assert ([g.index for g in got.groups_forward_order()]
            == [g.index for g in want.groups_forward_order()])
    assert got.forward_cover == want.forward_cover
    assert got.backward_cover == want.backward_cover
    assert got.ready_positions == want.ready_positions
    assert buffer_cuts(model, buffer_bytes) == tuple(
        np.cumsum([len(g.tensors) for g in want]).tolist()
    )


def _exact_fits(model) -> st.SearchStrategy:
    """Bytes of a run of consecutive tensors, give or take up to a byte
    (a fractional buffer fits a run exactly when its floor does)."""
    sizes = [tensor.nbytes for tensor in model.tensors_backward_order()]
    return st.builds(
        lambda start, length, delta: float(
            sum(sizes[start:start + length]) + delta
        ),
        st.integers(0, len(sizes) - 1),
        st.integers(1, 40),
        st.sampled_from([-1, -0.5, 0, 0.5, 1]),
    ).filter(lambda buffer: buffer > 0)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cut_plans_match_the_greedy_loop(name, data):
    model = MODELS[name]
    buffer_bytes = data.draw(st.one_of(
        st.floats(1.0, 1e10, allow_nan=False),
        st.integers(1, 10**10).map(float),
        _exact_fits(model),
    ))
    _assert_same_plan(model, buffer_bytes)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_extreme_buffers_match_the_greedy_loop(name):
    model = MODELS[name]
    total = sum(tensor.nbytes for tensor in model.tensors_backward_order())
    for buffer_bytes in (1.0, 0.5, total - 1.0, float(total), total + 0.5,
                         1e10, float("inf")):
        _assert_same_plan(model, buffer_bytes)


def test_non_positive_buffer_rejected():
    with pytest.raises(ValueError):
        buffer_cuts(MODELS["resnet50"], 0.0)


class TestForwardOrderTies:
    """``groups_forward_order`` sorts on ``(first_layer, last_layer)``
    stably; it is not the reversed group list."""

    SIZES = np.geomspace(1e6, 100e6, 256)

    def test_single_layer_groups_of_one_layer_keep_backprop_order(self):
        reversed_plans = 0
        for name in MODEL_NAMES:
            for buffer_bytes in self.SIZES:
                plan = buffer_size_groups(MODELS[name], float(buffer_bytes))
                order = plan.groups_forward_order()
                for before, after in zip(order, order[1:]):
                    key = (before.first_layer, before.last_layer)
                    assert key <= (after.first_layer, after.last_layer)
                    if key == (after.first_layer, after.last_layer):
                        # A tie: both hold parts of one layer only, and
                        # the earlier group in backpropagation order leads.
                        assert before.first_layer == before.last_layer
                        assert before.index < after.index
                reversed_plans += order == list(reversed(plan.groups))
        assert len(MODEL_NAMES) * len(self.SIZES) - reversed_plans == 613

    def test_a_split_layer_is_not_reversed(self):
        model = MODELS["bert_large"]
        plan = next(
            plan for plan in (
                buffer_size_groups(model, float(size)) for size in self.SIZES
            )
            if plan.groups_forward_order() != list(reversed(plan.groups))
        )
        order = [g.index for g in plan.groups_forward_order()]
        assert sorted(order) == list(range(len(plan)))
        assert order != sorted(order, reverse=True)

"""Tensor fusion controller (paper §IV).

Fusion partitions the model's gradient tensors — in *backpropagation
order*, the order they become ready — into contiguous groups.  Each
group is communicated once: one reduce-scatter during backprop and one
all-gather during feed-forward in DeAR, or one all-reduce in the
baselines.

Policies:

- :func:`no_fusion_groups` — one group per tensor (DeAR w/o TF, WFBP);
- :func:`buffer_size_groups` — close a group when adding the next
  tensor would exceed a byte threshold (DeAR-FB / DeAR-BO with the
  BO-chosen threshold; PyTorch-DDP's 25 MB buckets; Horovod's fusion
  buffer);
- :func:`layer_count_groups` — a fixed number of consecutive learnable
  layers per group (DeAR-NL, four layers in the paper);
- :func:`mg_wfbp_groups` — merge tensors whose gradients become ready
  within one startup latency of each other (the MG-WFBP criterion:
  merging is profitable when the saved startup exceeds the wait).

All policies preserve order and produce an exact partition, which
:class:`FusionPlan` validates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

from repro.models.layers import ModelSpec, TensorSpec

__all__ = [
    "FusionGroup",
    "FusionPlan",
    "no_fusion_groups",
    "buffer_size_groups",
    "buffer_cuts",
    "layer_count_groups",
    "mg_wfbp_groups",
    "plan_for_policy",
]


@dataclass(frozen=True)
class FusionGroup:
    """One fused communication unit.

    Attributes:
        index: group position in backpropagation order (0 = first
            group to become ready, i.e. the tensors of the last layers).
        tensors: member tensors, in backpropagation order.
    """

    index: int
    tensors: tuple[TensorSpec, ...]

    def __post_init__(self):
        if not self.tensors:
            raise ValueError(f"fusion group {self.index} is empty")

    # The group is immutable, so each derived fact is computed once
    # (buffer_size_groups fills them in from the model's tensor table).

    @cached_property
    def num_elements(self) -> int:
        return sum(t.num_elements for t in self.tensors)

    @cached_property
    def nbytes(self) -> int:
        """Fused gradient payload in bytes."""
        return sum(t.nbytes for t in self.tensors)

    @cached_property
    def layer_indices(self) -> tuple[int, ...]:
        """Sorted indices of the layers contributing tensors."""
        return tuple(sorted({t.layer_index for t in self.tensors}))

    @cached_property
    def first_layer(self) -> int:
        """Smallest (earliest feed-forward) layer index in the group."""
        return min(t.layer_index for t in self.tensors)

    @cached_property
    def last_layer(self) -> int:
        """Largest (latest feed-forward) layer index in the group."""
        return max(t.layer_index for t in self.tensors)


class FusionPlan:
    """A validated partition of a model's tensors into fusion groups.

    Groups are indexed in backpropagation order.  The plan provides the
    lookups the schedulers need: which groups cover a layer (for
    gating), and the groups in feed-forward order (the order DeAR
    issues all-gathers).
    """

    def __init__(self, model: ModelSpec, groups: Sequence[FusionGroup], policy: str = ""):
        self.model = model
        self.groups = tuple(groups)
        self.policy = policy
        self._validate()

    def _validate(self) -> None:
        expected = [t.name for t in self.model.tensors_backward_order()]
        actual = [t.name for g in self.groups for t in g.tensors]
        if actual != expected:
            raise ValueError(
                f"fusion plan ({self.policy!r}) is not an order-preserving "
                f"partition of the model's tensors: {len(actual)} placed "
                f"vs {len(expected)} expected"
            )
        for position, group in enumerate(self.groups):
            if group.index != position:
                raise ValueError(
                    f"group at position {position} has index {group.index}"
                )

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, index: int) -> FusionGroup:
        return self.groups[index]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def total_bytes(self) -> int:
        return sum(g.nbytes for g in self.groups)

    @property
    def max_group_bytes(self) -> int:
        return max(g.nbytes for g in self.groups)

    def groups_for_layer(self, layer_index: int) -> list[FusionGroup]:
        """Groups containing at least one tensor of the given layer."""
        return [group for group in self.groups if layer_index in group.layer_indices]

    def groups_forward_order(self) -> list[FusionGroup]:
        """Groups ordered by ``(first_layer, last_layer)`` (all-gather
        issue order).

        This is not always the reversed group list: groups that hold
        parts of one shared layer and nothing else tie on the key, and
        the stable sort keeps them in backpropagation order.
        """
        return sorted(self.groups, key=lambda g: (g.first_layer, g.last_layer))

    # Static gate positions, computed once per plan.

    @cached_property
    def ready_positions(self) -> tuple[int, ...]:
        """Each group's position in a backward pass (last layer first)
        of its last-ready gradient: what ``bp.done_of(layers)`` gates on."""
        last = self.model.num_layers - 1
        return tuple(last - group.first_layer for group in self.groups)

    @cached_property
    def forward_cover(self) -> tuple[tuple[int, ...], ...]:
        """Per layer, the ascending positions in
        :meth:`groups_forward_order` of the groups covering it."""
        return self._cover(self.groups_forward_order())

    @cached_property
    def backward_cover(self) -> tuple[tuple[int, ...], ...]:
        """As :attr:`forward_cover`, by group index."""
        return self._cover(self.groups)

    def _cover(self, order: Sequence[FusionGroup]) -> tuple[tuple[int, ...], ...]:
        cover: list[list[int]] = [[] for _ in range(self.model.num_layers)]
        for position, group in enumerate(order):
            for layer in group.layer_indices:
                cover[layer].append(position)
        return tuple(map(tuple, cover))


def _build_groups(tensor_runs: Sequence[Sequence[TensorSpec]]) -> list[FusionGroup]:
    return [
        FusionGroup(index=index, tensors=tuple(run))
        for index, run in enumerate(tensor_runs)
        if run
    ]


def _backward_table(model: ModelSpec) -> tuple[list[TensorSpec], list[int], list[int]]:
    """Backpropagation-order tensors, the bytes before each (and the
    total) and their layer indices, built once per model."""
    table = model._tensor_cache.get("bwd_table")
    if table is None:
        tensors = model.tensors_backward_order()
        prefix = [0, *accumulate(tensor.nbytes for tensor in tensors)]
        layers = [tensor.layer_index for tensor in tensors]
        table = model._tensor_cache["bwd_table"] = (tensors, prefix, layers)
    return table


def no_fusion_groups(model: ModelSpec) -> FusionPlan:
    """One communication per tensor (paper Fig. 2(b), 'DeAR w/o TF')."""
    runs = [[tensor] for tensor in model.tensors_backward_order()]
    return FusionPlan(model, _build_groups(runs), policy="none")


def buffer_cuts(model: ModelSpec, buffer_bytes: float) -> tuple[int, ...]:
    """Each :func:`buffer_size_groups` group's end (exclusive), in
    backpropagation-order tensor positions: the longest run of at least
    one tensor that fits ``buffer_bytes``, or (integer bytes) its floor.
    """
    if buffer_bytes <= 0:
        raise ValueError(f"buffer size must be positive, got {buffer_bytes}")
    _, prefix, _ = _backward_table(model)
    fits = math.floor(buffer_bytes) if buffer_bytes < prefix[-1] else prefix[-1]
    cuts: list[int] = []
    start = 0
    while start < len(prefix) - 1:
        start = max(bisect_right(prefix, prefix[start] + fits, start + 1) - 1, start + 1)
        cuts.append(start)
    return tuple(cuts)


def buffer_size_groups(model: ModelSpec, buffer_bytes: float) -> FusionPlan:
    """Greedy buffer-threshold grouping (paper §IV-B).

    Tensors are taken in backpropagation order and appended to the open
    group while the group stays within ``buffer_bytes``; a tensor that
    would overflow closes the group and starts the next (a tensor
    larger than the buffer gets a group of its own — DeAR never
    partitions tensors).  The groups are cut at :func:`buffer_cuts`.
    """
    tensors, prefix, layers = _backward_table(model)
    groups = []
    start = 0
    for index, end in enumerate(buffer_cuts(model, buffer_bytes)):
        group = FusionGroup(index, tuple(tensors[start:end]))
        # Backpropagation order visits layers from the last to the first.
        group.__dict__.update(
            nbytes=prefix[end] - prefix[start], first_layer=layers[end - 1],
            last_layer=layers[start], layer_indices=tuple(sorted(set(layers[start:end]))))
        groups.append(group)
        start = end
    return FusionPlan(model, groups, policy=f"buffer:{buffer_bytes:g}")


def layer_count_groups(model: ModelSpec, layers_per_group: int = 4) -> FusionPlan:
    """A fixed number of consecutive learnable layers per group (DeAR-NL)."""
    if layers_per_group < 1:
        raise ValueError(f"layers_per_group must be >= 1, got {layers_per_group}")
    runs: list[list[TensorSpec]] = []
    current: list[TensorSpec] = []
    layers_in_group: set[int] = set()
    for tensor in model.tensors_backward_order():
        if tensor.layer_index not in layers_in_group and len(layers_in_group) == layers_per_group:
            runs.append(current)
            current = []
            layers_in_group = set()
        current.append(tensor)
        layers_in_group.add(tensor.layer_index)
    if current:
        runs.append(current)
    return FusionPlan(
        model, _build_groups(runs), policy=f"layers:{layers_per_group}"
    )


def mg_wfbp_groups(
    model: ModelSpec,
    ready_times: Sequence[float],
    startup_time: float,
) -> FusionPlan:
    """MG-WFBP-style merged-gradient grouping (Shi et al., INFOCOM'19).

    ``ready_times[i]`` is the instant (within the backward pass) at
    which tensor ``i`` — backpropagation order — becomes ready.  The
    merging criterion: if the next tensor becomes ready within one
    communication ``startup_time`` of the current group's last tensor,
    starting a separate collective would pay more startup than the wait
    costs, so the tensors are merged.
    """
    tensors = model.tensors_backward_order()
    if len(ready_times) != len(tensors):
        raise ValueError(
            f"need one ready time per tensor: {len(ready_times)} vs {len(tensors)}"
        )
    if startup_time < 0:
        raise ValueError(f"startup_time must be non-negative, got {startup_time}")
    runs: list[list[TensorSpec]] = []
    current: list[TensorSpec] = []
    last_ready = None
    for tensor, ready in zip(tensors, ready_times):
        if current and last_ready is not None and ready - last_ready > startup_time:
            runs.append(current)
            current = []
        current.append(tensor)
        last_ready = ready
    if current:
        runs.append(current)
    return FusionPlan(model, _build_groups(runs), policy="mg-wfbp")


def plan_for_policy(
    model: ModelSpec,
    policy: str,
    buffer_bytes: Optional[float] = None,
    layers_per_group: int = 4,
    ready_times: Optional[Sequence[float]] = None,
    startup_time: Optional[float] = None,
) -> FusionPlan:
    """Dispatch by policy name: ``"none"``, ``"buffer"``, ``"layers"``, ``"mg"``."""
    if policy == "none":
        return no_fusion_groups(model)
    if policy == "buffer":
        if buffer_bytes is None:
            raise ValueError("policy 'buffer' requires buffer_bytes")
        return buffer_size_groups(model, buffer_bytes)
    if policy == "layers":
        return layer_count_groups(model, layers_per_group)
    if policy == "mg":
        if ready_times is None or startup_time is None:
            raise ValueError("policy 'mg' requires ready_times and startup_time")
        return mg_wfbp_groups(model, ready_times, startup_time)
    raise ValueError(f"unknown fusion policy {policy!r}")

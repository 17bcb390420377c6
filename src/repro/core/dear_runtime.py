"""The DeAR runtime: hook-driven decoupled gradient aggregation.

This is the live (data-level) counterpart of the timing model in
:mod:`repro.schedulers.dear`.  It coordinates a set of in-process ranks
(each owning a model replica and a wrapped optimiser) through one
training iteration, exactly following §III-B:

- **BackPipe** — each parameter's gradient hook stages the gradient
  into its fusion group's flat buffer; the moment *every* rank has
  staged a group, the group's **reduce-scatter** (OP1) executes.
- **Synchronisation** — ``synchronize(rank)`` marks the rank's backward
  pass complete; once all ranks synchronised, all OP1 operations are
  guaranteed done (the §III-B sync point between OP1 and OP2).
- **FeedPipe** — each module's pre-forward hook asks the runtime to
  *ensure* the groups covering that module: the group's **all-gather**
  (OP2) runs on first demand, gradients are averaged and written back,
  and the rank's deferred optimiser update for those parameters is
  applied just-in-time, before the layer's forward consumes them.

Value-exactness: the decoupled path produces parameter trajectories
bit-identical to fused all-reduce S-SGD (tested in
``tests/core/test_runtime.py::TestDistOptimEquivalence::test_bit_identical_to_fused_allreduce``),
which is the paper's correctness claim for the decoupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.collectives.communicator import Communicator
from repro.training.modules import Module, Parameter
from repro.training.parallel import group_parameters_backward

__all__ = ["DeARRuntime"]


@dataclass
class _GroupEpochState:
    """Aggregation state of one fusion group in one iteration (epoch)."""

    buffers: list[Optional[np.ndarray]]
    staged: int = 0
    rs_done: bool = False
    ag_done: bool = False
    applied: set = field(default_factory=set)


class DeARRuntime:
    """Coordinates decoupled all-reduce across in-process ranks.

    Create one runtime, then one :class:`~repro.core.dist_optimizer.DistOptim`
    per rank against it.  The runtime learns the model structure from
    the first registered rank and requires all ranks to register
    structurally identical replicas.

    Args:
        world_size: number of ranks.
        algorithm: collective family (``"ring"`` etc.).
        buffer_bytes: fusion buffer threshold (``None`` = per-tensor).
        average: divide aggregated gradients by ``world_size`` (S-SGD).
        gpus_per_node: for the hierarchical algorithm only.
    """

    def __init__(
        self,
        world_size: int,
        algorithm: str = "ring",
        buffer_bytes: Optional[float] = 25e6,
        average: bool = True,
        gpus_per_node: Optional[int] = None,
    ):
        self.world_size = world_size
        self.average = average
        self.buffer_bytes = buffer_bytes
        self.comm = Communicator(
            world_size, algorithm=algorithm, gpus_per_node=gpus_per_node
        )
        self._optims: list = [None] * world_size
        self._registered = 0
        # Filled at first registration:
        self._groups_by_rank: list[list[list[Parameter]]] = []
        self._group_of_param: list[dict[int, int]] = []
        self._offsets: list[list[tuple[int, int]]] = []  # per group: (offset, size) per member
        # epoch -> group index -> state
        self._states: dict[int, dict[int, _GroupEpochState]] = {}
        self._push_epoch: list[int] = [0] * world_size
        self._synced: dict[int, set] = {}
        self.reduce_scatters = 0
        self.all_gathers = 0

    # -- registration --------------------------------------------------------------

    def register(self, optim) -> int:
        """Attach one rank's DistOptim; returns the assigned rank id."""
        if self._registered >= self.world_size:
            raise RuntimeError(
                f"all {self.world_size} ranks already registered"
            )
        rank = self._registered
        self._optims[rank] = optim
        self._registered += 1

        params = list(optim.model.parameters())
        groups = group_parameters_backward(params, self.buffer_bytes)
        if rank == 0:
            self._group_shapes = [
                [tuple(p.data.shape) for p in group] for group in groups
            ]
            self._offsets = []
            for group in groups:
                offsets = []
                cursor = 0
                for param in group:
                    offsets.append((cursor, param.data.size))
                    cursor += param.data.size
                self._offsets.append(offsets)
        else:
            shapes = [[tuple(p.data.shape) for p in group] for group in groups]
            if shapes != self._group_shapes:
                raise ValueError(
                    f"rank {rank}'s model structure differs from rank 0's"
                )
        self._groups_by_rank.append(groups)
        mapping = {}
        for group_index, group in enumerate(groups):
            for member, param in enumerate(group):
                mapping[id(param)] = (group_index, member)
        self._group_of_param.append(mapping)
        return rank

    @property
    def num_groups(self) -> int:
        return len(self._offsets)

    def _state(self, epoch: int, group_index: int) -> _GroupEpochState:
        by_group = self._states.setdefault(epoch, {})
        if group_index not in by_group:
            total = sum(size for _, size in self._offsets[group_index])
            by_group[group_index] = _GroupEpochState(
                buffers=[np.zeros(total) for _ in range(self.world_size)]
            )
        return by_group[group_index]

    # -- BackPipe ---------------------------------------------------------------------

    def on_grad_ready(self, rank: int, param: Parameter) -> None:
        """Gradient hook entry: stage the gradient; fire OP1 when complete.

        Called once per parameter per backward pass, in backward order.
        """
        epoch = self._push_epoch[rank]
        group_index, member = self._group_of_param[rank][id(param)]
        state = self._state(epoch, group_index)
        offset, size = self._offsets[group_index][member]
        state.buffers[rank][offset : offset + size] = param.grad.reshape(-1)
        state.staged += 1
        members = len(self._offsets[group_index])
        if state.staged == members * self.world_size:
            self.comm.reduce_scatter(state.buffers)
            state.rs_done = True
            self.reduce_scatters += 1

    # -- synchronisation point -----------------------------------------------------------

    def synchronize(self, rank: int) -> None:
        """End-of-backward barrier for one rank (§III-B sync point).

        When the last rank arrives, every group must have completed its
        reduce-scatter — a structural invariant this method asserts.
        """
        epoch = self._push_epoch[rank]
        synced = self._synced.setdefault(epoch, set())
        if rank in synced:
            return
        synced.add(rank)
        if len(synced) == self.world_size:
            for group_index in range(self.num_groups):
                state = self._states.get(epoch, {}).get(group_index)
                if state is None or not state.rs_done:
                    raise RuntimeError(
                        f"epoch {epoch}: group {group_index} missing gradients at "
                        "the synchronisation point (did a backward pass skip "
                        "parameters?)"
                    )

    def end_iteration(self, rank: int) -> None:
        """Called by DistOptim.step(): close the rank's push epoch."""
        self.synchronize(rank)
        self._push_epoch[rank] += 1

    # -- FeedPipe ----------------------------------------------------------------------

    def _run_all_gather(self, epoch: int, group_index: int) -> None:
        state = self._states[epoch][group_index]
        if state.ag_done:
            return
        if not state.rs_done:
            raise RuntimeError(
                f"epoch {epoch}: all-gather of group {group_index} requested "
                "before its reduce-scatter completed"
            )
        self.comm.all_gather(state.buffers, average=self.average)
        state.ag_done = True
        self.all_gathers += 1

    def _apply_group(self, rank: int, epoch: int, group_index: int) -> None:
        """Write aggregated gradients back and step this rank's params."""
        state = self._states.get(epoch, {}).get(group_index)
        if state is None:
            return
        self._run_all_gather(epoch, group_index)
        if rank in state.applied:
            return
        group = self._groups_by_rank[rank][group_index]
        for member, param in enumerate(group):
            offset, size = self._offsets[group_index][member]
            param.grad = state.buffers[rank][offset : offset + size].reshape(
                param.data.shape
            ).copy()
            self._optims[rank].inner.step_parameter(param)
            # The aggregated gradient is consumed by the update; clear it
            # so the next backward pass accumulates from scratch (this
            # apply runs *inside* the next iteration's forward, after the
            # user's zero_grad()).
            param.grad = None
        state.applied.add(rank)
        if len(state.applied) == self.world_size:
            del self._states[epoch][group_index]  # bound memory

    def ensure_module(self, rank: int, module: Module) -> None:
        """Pre-forward hook entry: finish OP2 + update for this layer.

        Applies the most recent *pending* epoch (the iteration whose
        step() deferred its updates), if any.
        """
        epoch = self._push_epoch[rank] - 1
        if epoch < 0 or epoch not in self._states:
            return
        for param in module._parameters.values():
            entry = self._group_of_param[rank].get(id(param))
            if entry is not None:
                self._apply_group(rank, epoch, entry[0])

    def flush(self, rank: int) -> None:
        """Complete every pending group for this rank (pre-validation)."""
        epoch = self._push_epoch[rank] - 1
        if epoch < 0:
            return
        for group_index in range(self.num_groups):
            if group_index in self._states.get(epoch, {}):
                self._apply_group(rank, epoch, group_index)
        if not self._states.get(epoch):
            self._states.pop(epoch, None)

    # -- run-time re-fusion (the §IV-B dynamic tuning loop) ---------------------

    def refuse(self, buffer_bytes: Optional[float]) -> None:
        """Rebuild the fusion groups with a new buffer threshold.

        This is the runtime half of the paper's BO loop: after a
        measurement trial, the tuner suggests a new buffer size and the
        fusion controller regroups the tensors.  Must be called at a
        quiescent step boundary — every rank flushed (``synchronize``)
        and no aggregation state pending — because in-flight groups
        still reference the old layout.
        """
        if self._registered != self.world_size:
            raise RuntimeError("cannot re-fuse before all ranks registered")
        if any(self._states.get(epoch) for epoch in self._states):
            raise RuntimeError(
                "cannot re-fuse with pending aggregation state; call "
                "synchronize() on every rank first"
            )
        if len(set(self._push_epoch)) != 1:
            raise RuntimeError(
                "cannot re-fuse while ranks are at different iterations"
            )
        self.buffer_bytes = buffer_bytes
        self._states.clear()
        self._groups_by_rank = []
        self._group_of_param = []
        for rank in range(self.world_size):
            params = list(self._optims[rank].model.parameters())
            groups = group_parameters_backward(params, buffer_bytes)
            if rank == 0:
                self._offsets = []
                for group in groups:
                    offsets = []
                    cursor = 0
                    for param in group:
                        offsets.append((cursor, param.data.size))
                        cursor += param.data.size
                    self._offsets.append(offsets)
            self._groups_by_rank.append(groups)
            mapping = {}
            for group_index, group in enumerate(groups):
                for member, param in enumerate(group):
                    mapping[id(param)] = (group_index, member)
            self._group_of_param.append(mapping)

"""Step-based schedule IR: chunked send/recv/reduce ops with verification.

A :class:`Schedule` is a sequence of lockstep :class:`Step`\\ s over a
:class:`ChunkSpec` chunk layout.  Within one step every send reads the
*pre-step* buffer state and every receive lands afterwards — the
send-all-then-recv-all round structure of a classic ring, so an IR step
prices as one alpha-beta round and executes faithfully through the
in-process :class:`~repro.collectives.transport.Transport`.

Three consumers share the IR:

- :func:`verify_schedule` — a set-algebra checker: each (rank, chunk)
  cell carries the frozenset of contributing ranks; reduce receives
  must be disjoint unions (double-counting is an error), copy receives
  overwrite, and the postcondition is checked per collective kind.
- :func:`repro.collectives.synthesis.executor.run_schedule` — executes
  the ops against real numpy buffers.
- :func:`schedule_times` — prices a schedule on declared links with
  per-step contention: intra-class ops contend per source *rank*,
  inter-class ops contend per source *node* (the shared NIC), and a
  step costs the max over contention groups.  On ring/two-level-ring
  schedules this reproduces the closed-form preset formulas of
  :mod:`repro.network.cost_model` exactly, including the hierarchical
  ``beta * g`` NIC-sharing factor.

Ops are stored columnar (one numpy array per field per step) so a
1024-rank ring schedule is a few MB, not a million Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.collectives.synthesis.topology import Topology
from repro.collectives.transport import chunk_offsets

__all__ = [
    "ChunkSpec",
    "Step",
    "Schedule",
    "ScheduleError",
    "verify_schedule",
    "schedule_times",
]

#: Collective kinds a schedule can implement.
SCHEDULE_OPS = ("reduce_scatter", "all_gather", "all_reduce")


class ScheduleError(ValueError):
    """A schedule violates the IR contract or its collective's semantics."""


@dataclass(frozen=True)
class ChunkSpec:
    """Nested chunk layout of the flattened buffer.

    ``factors`` gives the split at each nesting level: ``(C,)`` splits
    the buffer into ``C`` near-equal chunks (:func:`chunk_offsets`
    sizing); ``(C1, C2)`` first splits into ``C1`` parts and then each
    part into ``C2`` — the layout two-level schedules need, which does
    NOT coincide with a flat ``C1*C2`` split for uneven lengths.
    Global chunk index is row-major over the levels.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.factors) <= 2:
            raise ValueError(f"1 or 2 nesting levels supported, got {self.factors}")
        if any(f < 1 for f in self.factors):
            raise ValueError(f"chunk factors must be >= 1, got {self.factors}")

    @property
    def count(self) -> int:
        total = 1
        for f in self.factors:
            total *= f
        return total

    def offsets(self, length: int) -> list[int]:
        """Boundaries of the ``count`` chunks over ``length`` elements."""
        top = chunk_offsets(length, self.factors[0])
        if len(self.factors) == 1:
            return top
        inner = self.factors[1]
        out = [0]
        for part in range(self.factors[0]):
            part_len = top[part + 1] - top[part]
            sub = chunk_offsets(part_len, inner)
            out.extend(top[part] + bound for bound in sub[1:])
        return out


class Step:
    """One lockstep round: parallel op arrays (columnar storage).

    Op ``i`` sends chunks ``[lo[i], hi[i])`` from rank ``src[i]`` to
    rank ``dst[i]``; the receive reduces (``+=``) when ``red[i]`` and
    overwrites otherwise.  All sends of a step logically precede all
    receives (they read pre-step state).
    """

    __slots__ = ("src", "dst", "lo", "hi", "red")

    def __init__(self, src, dst, lo, hi, red):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        self.red = np.asarray(red, dtype=bool)
        n = self.src.size
        if not (self.dst.size == self.lo.size == self.hi.size == self.red.size == n):
            raise ValueError("step op arrays must share one length")

    @property
    def num_ops(self) -> int:
        return int(self.src.size)

    @classmethod
    def merge(cls, steps: Sequence["Step"]) -> "Step":
        """Concurrent sub-steps fused into one lockstep round."""
        return cls(
            np.concatenate([s.src for s in steps]),
            np.concatenate([s.dst for s in steps]),
            np.concatenate([s.lo for s in steps]),
            np.concatenate([s.hi for s in steps]),
            np.concatenate([s.red for s in steps]),
        )


@dataclass
class Schedule:
    """A synthesized collective schedule over a declared topology.

    Attributes:
        op: one of :data:`SCHEDULE_OPS`.
        objective: ``"latency"`` or ``"bandwidth"`` (what it optimizes).
        topology: the declared topology it was synthesized for.
        chunks: chunk layout of the flattened buffer.
        steps: the lockstep rounds.
        owner: chunk index -> rank that holds the fully reduced chunk
            after the reduce-scatter phase (the RS postcondition and the
            AG precondition).
        rs_steps: for ``all_reduce`` schedules, how many leading steps
            form the reduce-scatter half; equals ``len(steps)`` for a
            pure RS and 0 for a pure AG.
        meta: synthesizer annotations (declared step bounds, structure).
    """

    op: str
    objective: str
    topology: Topology
    chunks: ChunkSpec
    steps: tuple[Step, ...]
    owner: np.ndarray
    rs_steps: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in SCHEDULE_OPS:
            raise ValueError(f"unknown op {self.op!r}; expected one of {SCHEDULE_OPS}")
        self.owner = np.asarray(self.owner, dtype=np.int64)
        if self.owner.size != self.chunks.count:
            raise ValueError(
                f"owner map covers {self.owner.size} chunks, layout has "
                f"{self.chunks.count}"
            )
        self._profile = None

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def num_ops(self) -> int:
        return sum(step.num_ops for step in self.steps)

    def describe(self) -> str:
        return (
            f"{self.op}/{self.objective} on {self.topology.describe()}: "
            f"{self.num_steps} steps, {self.num_ops} ops, "
            f"{self.chunks.count} chunks"
        )

    # -- pricing profile -----------------------------------------------------

    def cost_profile(self) -> list[tuple]:
        """Grouped per-step cost envelope for :func:`schedule_times`.

        Each entry is ``(count, intra, inter)`` where ``intra`` /
        ``inter`` are ``None`` (no ops of that class in the step) or
        ``(frac, reduce_frac)``: the busiest contention group's payload
        fraction of the full buffer and the busiest receiver's reduced
        fraction.  Chunks are treated as equal ``1/count`` fractions —
        the same idealization the closed-form preset formulas make.
        """
        if self._profile is not None:
            return self._profile
        node_of = np.asarray(self.topology.node_of, dtype=np.int64)
        nodes = self.topology.nodes
        world = self.topology.world_size
        per_chunk = 1.0 / self.chunks.count
        grouped: dict[tuple, int] = {}
        order: list[tuple] = []
        for step in self.steps:
            frac = (step.hi - step.lo) * per_chunk
            inter_mask = node_of[step.src] != node_of[step.dst]
            entry = []
            for mask, by_node in ((~inter_mask, False), (inter_mask, True)):
                if not mask.any():
                    entry.append(None)
                    continue
                if by_node:
                    send_group = node_of[step.src[mask]]
                    send_bins = nodes
                else:
                    send_group = step.src[mask]
                    send_bins = world
                busiest = float(
                    np.bincount(send_group, weights=frac[mask],
                                minlength=send_bins).max()
                )
                red_mask = mask & step.red
                if red_mask.any():
                    busiest_red = float(
                        np.bincount(step.dst[red_mask], weights=frac[red_mask],
                                    minlength=world).max()
                    )
                else:
                    busiest_red = 0.0
                entry.append((busiest, busiest_red))
            key = tuple(entry)
            if key in grouped:
                grouped[key] += 1
            else:
                grouped[key] = 1
                order.append(key)
        self._profile = [(grouped[key], key[0], key[1]) for key in order]
        return self._profile


def schedule_times(
    schedule: Schedule,
    sizes,
    intra_ab: tuple[float, float],
    inter_ab: tuple[float, float],
    gamma: float = 0.0,
) -> np.ndarray:
    """Alpha-beta time of a schedule over a numpy vector of sizes.

    Per step, intra-class ops pay ``alpha_intra + bytes * beta_intra``
    at the busiest source rank, inter-class ops pay the same on the
    inter link at the busiest source *node* (concurrent flows out of
    one node share its NIC); the step costs the max of the two and the
    schedule sums its steps.  Identical-envelope steps are grouped, so
    a (P-1)-step ring prices as one multiply.
    """
    d = np.asarray(sizes, dtype=float)
    total = np.zeros_like(d)
    for count, intra, inter in schedule.cost_profile():
        step = None
        for ab, env in ((intra_ab, intra), (inter_ab, inter)):
            if env is None:
                continue
            t = ab[0] + d * (env[0] * ab[1] + env[1] * gamma)
            step = t if step is None else np.maximum(step, t)
        if step is not None:
            total = total + count * step
    return total


# -- verification -------------------------------------------------------------


def _check_bounds(schedule: Schedule) -> None:
    world = schedule.topology.world_size
    count = schedule.chunks.count
    for index, step in enumerate(schedule.steps):
        if step.num_ops == 0:
            raise ScheduleError(f"step {index} is empty")
        if ((step.src < 0) | (step.src >= world)).any() or (
            (step.dst < 0) | (step.dst >= world)
        ).any():
            raise ScheduleError(f"step {index}: rank out of range [0, {world})")
        if (step.src == step.dst).any():
            raise ScheduleError(f"step {index}: self-send")
        if ((step.lo < 0) | (step.hi > count) | (step.lo >= step.hi)).any():
            raise ScheduleError(
                f"step {index}: chunk range outside [0, {count}) or empty"
            )


def _run_reduce_algebra(schedule: Schedule, steps: Sequence[Step]) -> list[list[frozenset]]:
    """Contribution-set semantics of a reduce-scatter phase.

    Every (rank, chunk) cell starts as ``{rank}`` (each rank's own
    data); a reduce receive requires the incoming contribution set to
    be disjoint from the cell's (else some rank's gradient would be
    summed twice) and unions them; a copy receive overwrites.
    """
    world = schedule.topology.world_size
    count = schedule.chunks.count
    state = [[frozenset((rank,)) for _ in range(count)] for rank in range(world)]
    for index, step in enumerate(steps):
        writes: dict[tuple[int, int], frozenset] = {}
        for src, dst, lo, hi, red in zip(
            step.src.tolist(), step.dst.tolist(), step.lo.tolist(),
            step.hi.tolist(), step.red.tolist(),
        ):
            for chunk in range(lo, hi):
                cell = (dst, chunk)
                if cell in writes:
                    raise ScheduleError(
                        f"step {index}: two receives land on rank {dst} "
                        f"chunk {chunk}"
                    )
                payload = state[src][chunk]
                if red:
                    held = state[dst][chunk]
                    overlap = held & payload
                    if overlap:
                        raise ScheduleError(
                            f"step {index}: reduce at rank {dst} chunk {chunk} "
                            f"double-counts contributions {sorted(overlap)}"
                        )
                    writes[cell] = held | payload
                else:
                    writes[cell] = payload
        for (dst, chunk), value in writes.items():
            state[dst][chunk] = value
    return state


def _run_gather_algebra(
    schedule: Schedule, steps: Sequence[Step], start: list[list[bool]]
) -> list[list[bool]]:
    """Availability semantics of an all-gather phase.

    A cell is True when the rank holds the final (fully reduced) value
    of that chunk.  Sends require the source cell True (forwarding
    scratch would gather garbage); reduce receives are forbidden — an
    all-gather is pure data movement.
    """
    state = [row[:] for row in start]
    for index, step in enumerate(steps):
        if step.red.any():
            raise ScheduleError(f"step {index}: reduce op in an all-gather phase")
        writes: dict[tuple[int, int], bool] = {}
        for src, dst, lo, hi in zip(
            step.src.tolist(), step.dst.tolist(), step.lo.tolist(), step.hi.tolist()
        ):
            for chunk in range(lo, hi):
                if not state[src][chunk]:
                    raise ScheduleError(
                        f"step {index}: rank {src} forwards chunk {chunk} "
                        f"before holding its final value"
                    )
                cell = (dst, chunk)
                if cell in writes:
                    raise ScheduleError(
                        f"step {index}: two receives land on rank {dst} "
                        f"chunk {chunk}"
                    )
                writes[cell] = True
        for (dst, chunk), value in writes.items():
            state[dst][chunk] = value
    return state


def verify_schedule(schedule: Schedule) -> None:
    """Prove the schedule implements its collective; raise on any flaw.

    Intended for tests and smoke checks on small worlds — verification
    is O(steps x ops x chunks-per-op) in Python and is NOT run at
    synthesis time.
    """
    _check_bounds(schedule)
    world = schedule.topology.world_size
    count = schedule.chunks.count
    full = frozenset(range(world))
    owner = schedule.owner.tolist()

    rs_part = schedule.steps[: schedule.rs_steps]
    ag_part = schedule.steps[schedule.rs_steps :]
    if schedule.op == "reduce_scatter" and ag_part:
        raise ScheduleError("reduce_scatter schedule has trailing all-gather steps")
    if schedule.op == "all_gather" and rs_part:
        raise ScheduleError("all_gather schedule has leading reduce-scatter steps")

    if schedule.op in ("reduce_scatter", "all_reduce"):
        state = _run_reduce_algebra(schedule, rs_part)
        for chunk in range(count):
            held = state[owner[chunk]][chunk]
            if held != full:
                raise ScheduleError(
                    f"after reduce-scatter, owner rank {owner[chunk]} of chunk "
                    f"{chunk} holds contributions from {sorted(held)}, "
                    f"not all {world} ranks"
                )
    if schedule.op in ("all_gather", "all_reduce"):
        start = [[False] * count for _ in range(world)]
        for chunk in range(count):
            start[owner[chunk]][chunk] = True
        state = _run_gather_algebra(schedule, ag_part, start)
        for rank in range(world):
            missing = [chunk for chunk in range(count) if not state[rank][chunk]]
            if missing:
                raise ScheduleError(
                    f"after all-gather, rank {rank} is missing chunks {missing}"
                )

"""Message-log golden of the data-level collectives.

``message_log_golden.json`` records, for every algorithm family x op
over small worlds, what the collective did on the wire and what it left
in the buffers:

- ``buffers`` — SHA-256 of every rank's final buffer bytes (scratch
  regions included, so partial sums must match bit for bit too);
- ``sends`` — the global ``(src, dst, nbytes)`` send order;
- ``stats`` — every :class:`~repro.collectives.transport.TransportStats`
  field.

The ``chaos`` section records :class:`ResilientCommunicator` recovery on
ring and halving-doubling under seeded drop/dup/delay storms, with and
without a mid-run rank death.

The golden was recorded from the hand-written ring, binomial-tree,
recursive halving-doubling and two-level ring modules that the step IR
(:func:`~repro.collectives.synthesis.algorithm_schedule`) replaced, so it
is the lasting record of their behaviour.  Ring, halving-doubling and
tree must match the global send order; hierarchical runs its concurrent
per-node rings as one lockstep step, so only each channel's sequence is
pinned for it.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.synthesis import algorithm_schedule, run_schedule
from repro.collectives.transport import Transport
from repro.faults.plan import FaultPlan, RankFailure
from repro.faults.resilient import ResilientCommunicator

GOLDEN = Path(__file__).with_name("message_log_golden.json")

ALGORITHMS = ("ring", "halving_doubling", "tree", "hierarchical")
OPS = ("reduce_scatter", "all_gather", "all_reduce")
WORLDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16)
#: One length that splits unevenly, one shorter than most chunk counts.
LENGTHS = (37, 5)

CHAOS_WORLD = 8
CHAOS_SEEDS = range(20)
CHAOS_ALGORITHMS = ("ring", "halving_doubling")


class LoggingTransport(Transport):
    """A transport that also keeps the global send order."""

    def __init__(self, world_size: int):
        super().__init__(world_size)
        self.log: list[tuple[int, int, int]] = []

    def send(self, src, dst, payload):
        super().send(src, dst, payload)
        self.log.append((src, dst, int(np.asarray(payload).nbytes)))


def _digest(buffers) -> str:
    return hashlib.sha256(b"".join(buf.tobytes() for buf in buffers)).hexdigest()


def case_keys():
    """``(key, algorithm, op, world, gpus_per_node, length)`` per case."""
    for algorithm in ALGORITHMS:
        for world in WORLDS:
            if algorithm == "hierarchical":
                shapes = [g for g in range(1, world + 1) if world % g == 0]
            else:
                shapes = [None]
            for g in shapes:
                shape = f"{world}" if g is None else f"{world // g}x{g}"
                for op in OPS:
                    for length in LENGTHS:
                        key = f"{algorithm}/{op}/{shape}/n{length}"
                        yield key, algorithm, op, world, g, length


def record_case(run, algorithm, op, world, gpus_per_node, length) -> dict:
    """Run one case through ``run(algorithm, op, transport, buffers, g)``."""
    rng = np.random.default_rng((world, length))
    buffers = [rng.normal(size=length) for _ in range(world)]
    transport = LoggingTransport(world)
    try:
        run(algorithm, op, transport, buffers, gpus_per_node)
    except ValueError:
        return {"error": "ValueError", "sends": [list(e) for e in transport.log]}
    stats = transport.stats
    return {
        "buffers": _digest(buffers),
        "sends": [list(entry) for entry in transport.log],
        "stats": {
            "messages": stats.messages,
            "bytes": stats.bytes,
            "per_rank_messages": [stats.per_rank_messages[r] for r in range(world)],
            "per_rank_bytes": [stats.per_rank_bytes[r] for r in range(world)],
        },
    }


def chaos_keys():
    for algorithm in CHAOS_ALGORITHMS:
        for death in (False, True):
            for seed in CHAOS_SEEDS:
                key = f"{algorithm}/{'death' if death else 'storm'}/seed{seed}"
                yield key, algorithm, seed, death


def record_chaos(algorithm, seed, death) -> dict:
    """A warm-up all-reduce then an RS+AG pair under a seeded storm."""
    plan = FaultPlan(
        seed=seed, drop_prob=0.05, dup_prob=0.05, delay_prob=0.05,
        fault_budget=40,
        rank_failures=(RankFailure(3, after_collectives=1),) if death else (),
    )
    rng = np.random.default_rng((seed, CHAOS_WORLD))
    buffers = [rng.uniform(-1.0, 1.0, 64) for _ in range(CHAOS_WORLD)]
    comm = ResilientCommunicator(CHAOS_WORLD, plan, algorithm=algorithm)
    comm.all_reduce(buffers)
    comm.rs_ag(buffers)
    return {"buffers": _digest(buffers), "summary": comm.fault_summary()}


def _run_on_schedule(algorithm, op, transport, buffers, gpus_per_node):
    schedule = algorithm_schedule(algorithm, op, transport.world_size, gpus_per_node)
    run_schedule(transport, buffers, schedule)


def _channels(sends) -> dict:
    channels = defaultdict(list)
    for src, dst, nbytes in sends:
        channels[(src, dst)].append(nbytes)
    return dict(channels)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(key for key, *_ in case_keys())
    assert sorted(golden["chaos"]) == sorted(key for key, *_ in chaos_keys())


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clean_transport_matches_golden(golden, algorithm, op):
    checked = 0
    for key, alg, case_op, world, g, length in case_keys():
        if (alg, case_op) != (algorithm, op):
            continue
        want = golden["cases"][key]
        got = record_case(_run_on_schedule, alg, case_op, world, g, length)
        assert got.get("error") == want.get("error"), key
        assert got.get("buffers") == want.get("buffers"), key
        assert got.get("stats") == want.get("stats"), key
        if algorithm == "hierarchical":
            assert _channels(got["sends"]) == _channels(want["sends"]), key
        else:
            assert got["sends"] == want["sends"], key
        checked += 1
    assert checked


@pytest.mark.parametrize("algorithm", CHAOS_ALGORITHMS)
def test_resilient_storms_match_golden(golden, algorithm):
    for key, alg, seed, death in chaos_keys():
        if alg == algorithm:
            assert record_chaos(alg, seed, death) == golden["chaos"][key], key

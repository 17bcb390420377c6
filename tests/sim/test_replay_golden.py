"""Golden replays: every vectorized replay is bit-stable across refactors.

``replay_golden.json`` pins, per case, a sha256 over the ``float.hex``
start and end times of every recorded job (every rank's, for a
multi-rank recording) and a sha256 over the exported Chrome-trace
bytes.  The cases cover the three ways a recording is replayed, plus
the Bayesian-optimisation tuning loops that replay one trial at a time:

- single-rank: every fast-path scheduler x zoo model x {10GbE, 100GbIB}
  x {healthy, straggler + link-fault plan};
- rank axis: the five multi-rank policies at 64 ranks (never collapsed)
  x {skewed compute scales, skewed and faulted};
- config axis: one three-config batched group of each kind (single-rank
  and multi-rank);
- tuning: DeAR-BO and Horovod-BO on ResNet-50 x {10GbE, 100GbIB} —
  ``bo_history``, the chosen ``buffer_bytes`` and the iteration times.

Regenerate (only on a deliberate change to simulated timelines) with::

    PYTHONPATH=src python -m tests.sim.test_replay_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.profiles import TimingModel
from repro.models.zoo import MODEL_NAMES, get_model
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe, paper_testbed
from repro.runner.batched import replay_fast_batch, replay_multirank_batch
from repro.schedulers.base import get_scheduler
from repro.schedulers.engine import FastIterationContext
from repro.schedulers.multirank import POLICIES, record_heterogeneous_fast
from repro.sim.trace import Tracer
from tests.conftest import build_tiny_model

GOLDEN_PATH = Path(__file__).with_name("replay_golden.json")

#: (label, registry name, options) of every fast-path scheduler; DeAR
#: under each fusion that records a single schedule.
SCHEDULERS = (
    ("serial", "serial", {}),
    ("wfbp", "wfbp", {}),
    ("ddp", "ddp", {}),
    ("horovod", "horovod", {}),
    ("mg_wfbp", "mg_wfbp", {}),
    ("dear-none", "dear", {"fusion": "none"}),
    ("dear-layers", "dear", {"fusion": "layers"}),
    ("dear-buffer", "dear", {"fusion": "buffer"}),
    ("zero", "zero", {}),
)
FABRICS = ("10gbe", "100gbib")
FAULTED = FaultPlan(
    stragglers=(StragglerFault(0.02, 0.4, compute_factor=1.7),),
    link_faults=(LinkFault(0.04, 0.5, alpha_factor=2.0, beta_factor=3.0,
                           link="both"),),
)
PLANS = {"healthy": None, "faulted": FAULTED}
ITERATIONS = 3

#: 64 ranks on eight 8-GPU nodes; scales are seeded, so never uniform.
#: A small model keeps the 64-rank traces cheap to export.
MULTIRANK_CLUSTER = cluster_10gbe(nodes=8, gpus_per_node=8)
MULTIRANK_MODEL = build_tiny_model(num_blocks=8)
MULTIRANK_COMPUTE = 0.05

#: BO-tuned schedulers: every trial runs through Scheduler.run.
TUNERS = ("dear", "horovod")


def _skewed_scales(world: int, seed: int = 7) -> tuple[float, ...]:
    rng = np.random.default_rng(seed)
    return tuple(float(scale) for scale in rng.uniform(1.0, 1.4, size=world))


def _hex_digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(float(value).hex().encode())
        digest.update(b",")
    return digest.hexdigest()


def _digest(timeline, tracer) -> dict:
    times = hashlib.sha256()
    for array in (timeline._starts, timeline._ends):
        for value in np.asarray(array).ravel().tolist():
            times.update(float(value).hex().encode())
            times.update(b",")
        times.update(b";")
    return {
        "final": float(timeline.final_time).hex(),
        "times": times.hexdigest(),
        "trace": hashlib.sha256(tracer.to_chrome_trace().encode()).hexdigest(),
    }


def _record_single(scheduler, options, model, fabric, plan):
    timing = TimingModel.for_model(get_model(model))
    cost = CollectiveTimeModel(paper_testbed(fabric))
    # Traced from the start, so the replay emits the spans whose Chrome
    # trace the golden pins.
    ctx = FastIterationContext(timing, cost, tracer=Tracer(),
                               faults=PLANS[plan])
    get_scheduler(scheduler, **options)._schedule_onto(ctx, ITERATIONS, None)
    return ctx


def _record_multi(policy, plan, scales=None):
    return record_heterogeneous_fast(
        policy, MULTIRANK_MODEL, MULTIRANK_CLUSTER,
        scales or _skewed_scales(MULTIRANK_CLUSTER.world_size),
        iteration_compute=MULTIRANK_COMPUTE, iterations=ITERATIONS,
        faults=PLANS[plan], trace=True,
    )


def _solo(ctx) -> dict:
    ctx.run()
    return _digest(ctx._timeline, ctx.tracer)


def _batched(contexts, replay) -> list[dict]:
    replay([ctx._timeline for ctx in contexts],
           [ctx.tracer for ctx in contexts])
    out = []
    for ctx in contexts:
        ctx.finish()
        out.append(_digest(ctx._timeline, ctx.tracer))
    return out


def _tuned(scheduler: str, fabric: str) -> dict:
    timing = TimingModel.for_model(get_model("resnet50"))
    cost = CollectiveTimeModel(paper_testbed(fabric))
    result = get_scheduler(scheduler, fusion="bo").run(
        timing, cost, iterations=ITERATIONS
    )
    history = result.extras["bo_history"]
    return {
        "buffer_bytes": float(result.extras["buffer_bytes"]).hex(),
        "history": _hex_digest(value for trial in history for value in trial),
        "iteration_times": _hex_digest(result.iteration_times),
        "trials": len(history),
    }


def single_cases() -> list[tuple[str, tuple]]:
    return [
        (f"single/{label}/{model}/{fabric}/{plan}",
         (scheduler, options, model, fabric, plan))
        for label, scheduler, options in SCHEDULERS
        for model in MODEL_NAMES
        for fabric in FABRICS
        for plan in PLANS
    ]


def multi_cases() -> list[tuple[str, tuple]]:
    return [
        (f"multirank/{policy}/64/{plan}", (policy, plan))
        for policy in POLICIES
        for plan in PLANS
    ]


def tuned_cases() -> list[tuple[str, tuple]]:
    return [
        (f"bo/{scheduler}/resnet50/{fabric}", (scheduler, fabric))
        for scheduler in TUNERS
        for fabric in FABRICS
    ]


def batched_single() -> dict:
    """DeAR on resnet50: two fabrics and a faulted config in one group."""
    contexts = [
        _record_single("dear", {"fusion": "buffer"}, "resnet50", fabric, plan)
        for fabric, plan in (("10gbe", "healthy"), ("100gbib", "healthy"),
                             ("10gbe", "faulted"))
    ]
    digests = _batched(contexts, replay_fast_batch)
    return {f"batched/single/{i}": digest for i, digest in enumerate(digests)}


def batched_multi() -> dict:
    """WFBP at 64 ranks: two scale vectors and a faulted config."""
    world = MULTIRANK_CLUSTER.world_size
    contexts = [
        _record_multi("wfbp", plan, _skewed_scales(world, seed))
        for seed, plan in ((7, "healthy"), (8, "healthy"), (7, "faulted"))
    ]
    digests = _batched(contexts, replay_multirank_batch)
    return {f"batched/multirank/{i}": digest for i, digest in enumerate(digests)}


def current_digests() -> dict:
    out = {}
    for case, args in single_cases():
        out[case] = _solo(_record_single(*args))
    for case, args in multi_cases():
        out[case] = _solo(_record_multi(*args))
    for case, args in tuned_cases():
        out[case] = _tuned(*args)
    out.update(batched_single())
    out.update(batched_multi())
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


SINGLE_CASES = dict(single_cases())
MULTI_CASES = dict(multi_cases())
TUNED_CASES = dict(tuned_cases())


@pytest.mark.parametrize("case", SINGLE_CASES)
def test_single_rank_replay(golden, case):
    assert _solo(_record_single(*SINGLE_CASES[case])) == golden[case]


@pytest.mark.parametrize("case", MULTI_CASES)
def test_rank_axis_replay(golden, case):
    assert _solo(_record_multi(*MULTI_CASES[case])) == golden[case]


@pytest.mark.parametrize("case", TUNED_CASES)
def test_bo_tuning(golden, case):
    assert _tuned(*TUNED_CASES[case]) == golden[case]


def test_config_axis_single_rank_group(golden):
    for case, digest in batched_single().items():
        assert digest == golden[case], case


def test_config_axis_multirank_group(golden):
    for case, digest in batched_multi().items():
        assert digest == golden[case], case


def test_golden_covers_every_case(golden):
    expected = {
        case for case, _ in single_cases() + multi_cases() + tuned_cases()
    }
    expected |= {f"batched/single/{i}" for i in range(3)}
    expected |= {f"batched/multirank/{i}" for i in range(3)}
    assert set(golden) == expected


if __name__ == "__main__":
    digests = current_digests()
    GOLDEN_PATH.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(case)}: {json.dumps(digest, sort_keys=True)}"
            for case, digest in sorted(digests.items())
        ) + "\n}\n"
    )
    print(f"wrote {len(digests)} cases to {GOLDEN_PATH}")

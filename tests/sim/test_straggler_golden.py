"""Golden 1024-rank straggler runs: exact iteration times and fault totals.

``straggler_golden.json`` pins, per case, the exact ``iteration_times``
of a 1024-rank ResNet-50 run on 10GbE and, for a faulted run, the
``timing_faults`` extras: ``straggler_seconds``,
``degraded_link_seconds`` (both exact) and the ``events`` count.  The
cases are the five multi-rank policies x {1, 16, 256} slowed ranks
(seeded; a quarter as many distinct scales as slowed ranks, so several
ranks share one) x {healthy, straggler + link-fault plan} — the shape
of the ``straggler_1024`` benchmark workload, on the multi-rank fast
path.

Regenerate (only on a deliberate change to simulated timelines) with::

    PYTHONPATH=src python -m tests.sim.test_straggler_golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.zoo import get_model
from repro.network.presets import cluster_10gbe
from repro.schedulers.multirank import POLICIES, simulate_heterogeneous

GOLDEN_PATH = Path(__file__).with_name("straggler_golden.json")

CLUSTER = cluster_10gbe(nodes=256, gpus_per_node=4)
MODEL = get_model("resnet50")
SLOW_COUNTS = (1, 16, 256)
FAULTED = FaultPlan(
    stragglers=(StragglerFault(0.02, 0.2, compute_factor=1.6),),
    link_faults=(LinkFault(0.05, 0.25, beta_factor=2.5),),
)
PLANS = {"healthy": None, "faulted": FAULTED}


def _scales(slow: int) -> tuple[float, ...]:
    rng = random.Random(f"straggler-golden:{slow}")
    levels = [round(rng.uniform(1.1, 3.0), 12) for _ in range(max(1, slow // 4))]
    scales = [1.0] * CLUSTER.world_size
    for rank in rng.sample(range(CLUSTER.world_size), slow):
        scales[rank] = rng.choice(levels)
    return tuple(scales)


def _run(policy: str, slow: int, plan: str) -> dict:
    result = simulate_heterogeneous(
        policy, MODEL, CLUSTER, _scales(slow), faults=PLANS[plan]
    )
    assert result.extras["engine"] == "multirank-fastpath", result.extras
    out = {"iteration_times": list(result.iteration_times)}
    summary = result.extras.get("timing_faults")
    if summary is not None:
        out["timing_faults"] = {
            "straggler_seconds": summary["straggler_seconds"],
            "degraded_link_seconds": summary["degraded_link_seconds"],
            "events": summary["events"],
        }
    return out


def cases() -> dict[str, tuple]:
    return {
        f"{policy}/{slow}/{plan}": (policy, slow, plan)
        for policy in POLICIES
        for slow in SLOW_COUNTS
        for plan in PLANS
    }


CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_straggler_run(golden, case):
    assert _run(*CASES[case]) == golden[case]


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


if __name__ == "__main__":
    results = {case: _run(*args) for case, args in CASES.items()}
    GOLDEN_PATH.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(case)}: {json.dumps(value, sort_keys=True)}"
            for case, value in sorted(results.items())
        ) + "\n}\n"
    )
    print(f"wrote {len(results)} cases to {GOLDEN_PATH}")

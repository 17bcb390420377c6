"""DAG differential suite: every engine replays workloads bit-identically.

The single-rank fast path, the rank-axis multirank replay, and the
config-axis batched runner must reproduce the event kernel on
non-all-reduce workload DAGs exactly as they do on the layer-wise
schedule: identical timestamps (same IEEE float operations in the same
order), hence byte-identical exported Perfetto traces — not merely
equivalent within tolerance.
"""

from __future__ import annotations

import pytest

from repro.models.profiles import TimingModel
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_10gbe
from repro.runner.batched import run_batched
from repro.runner.spec import RunSpec
from repro.schedulers.base import get_scheduler
from repro.schedulers.multirank import POLICIES, _Run
from repro.workloads import WORKLOAD_NAMES
from tests.conftest import build_tiny_model

ITERATIONS = 4

#: Every registered scheduler that supports the vectorized replay.
FAST_SCHEDULERS = (
    "serial", "wfbp", "ddp", "horovod", "mg_wfbp", "bytescheduler", "dear",
    "zero",
)

#: The non-layer-wise DAGs.
DAG_WORKLOADS = ("moe", "dlrm", "llm3d")

SMALL_CLUSTER = cluster_10gbe(nodes=2, gpus_per_node=2)  # 4 ranks, fast tests


@pytest.fixture(scope="module")
def timing():
    return TimingModel.for_model(build_tiny_model(), iteration_compute=0.03)


@pytest.fixture(scope="module")
def cost():
    return CollectiveTimeModel(cluster_10gbe())


def _run_both(scheduler_name, timing, cost, workload, **options):
    fast = get_scheduler(scheduler_name, **options).run(
        timing, cost, iterations=ITERATIONS, workload=workload, fastpath=True,
        trace=True,
    )
    slow = get_scheduler(scheduler_name, **options).run(
        timing, cost, iterations=ITERATIONS, workload=workload, fastpath=False,
        trace=True,
    )
    return fast, slow


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("scheduler", FAST_SCHEDULERS)
class TestSingleRankDifferential:
    def test_bit_identical_timestamps(self, scheduler, workload, timing, cost):
        fast, slow = _run_both(scheduler, timing, cost, workload)
        assert fast.iteration_times == slow.iteration_times
        assert fast.exposed_comm == slow.exposed_comm

    def test_byte_identical_perfetto_trace(self, scheduler, workload, timing,
                                           cost):
        fast, slow = _run_both(scheduler, timing, cost, workload)
        assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


@pytest.mark.parametrize("workload", DAG_WORKLOADS)
def test_bytescheduler_differential(workload, timing, cost):
    """ByteScheduler's FIFO DAG schedule, every sync split into many
    partitions, credit channels unused: bit-identical on both engines."""
    fast, slow = _run_both(
        "bytescheduler", timing, cost, workload, partition_bytes=100e3,
        negotiate=False, credit=2,
    )
    assert fast.iteration_times == slow.iteration_times
    assert fast.exposed_comm == slow.exposed_comm
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()
    assert fast.extras == slow.extras
    assert fast.extras["workload"] == workload


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("policy", POLICIES)
def test_multirank_differential(policy, workload, monkeypatch):
    model = build_tiny_model()
    scales = [1.0, 1.15, 1.0, 1.4]
    fast, slow = (
        _Run(
            policy, model, SMALL_CLUSTER, scales, iterations=ITERATIONS,
            iteration_compute=0.03, workload=workload, collapse=False,
        ).simulate(fastpath=fastpath, trace=True)
        for fastpath in (True, False)
    )
    assert fast.extras["engine"] == "multirank-fastpath"
    assert slow.extras["engine"] == "multirank-event"
    assert fast.iteration_times == slow.iteration_times
    assert fast.tracer.to_chrome_trace() == slow.tracer.to_chrome_trace()


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_batched_matches_direct(workload, tiny_model):
    specs = [
        RunSpec.create(scheduler, tiny_model, SMALL_CLUSTER,
                       iterations=ITERATIONS, workload=workload,
                       **({"fusion": "buffer"} if scheduler == "dear" else {}))
        for scheduler in ("wfbp", "dear", "zero")
    ]
    batched = run_batched(specs)
    for spec, entry in zip(specs, batched):
        assert entry is not None, spec.scheduler
        assert entry[0].iteration_times == spec.run().iteration_times


def test_workload_tag_in_extras(timing, cost):
    result = get_scheduler("wfbp").run(
        timing, cost, iterations=ITERATIONS, workload="moe"
    )
    assert result.extras["workload"] == "moe"
    plain = get_scheduler("wfbp").run(timing, cost, iterations=ITERATIONS)
    assert "workload" not in plain.extras

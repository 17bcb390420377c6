"""Golden fingerprints: spec identity is byte-stable across refactors.

The on-disk result cache is keyed by :attr:`RunSpec.fingerprint`, so a
fingerprint that drifts silently turns every existing cache entry into a
miss.  ``fingerprints_golden.json`` pins the fingerprint of every zoo
model x fabric x option shape that changes the canonical payload's
layout: plain, DeAR buffer fusion, ByteScheduler credit, a fault plan,
per-rank compute scales, ``algorithm="auto"`` with a tuned table, and a
named workload DAG.

Regenerate (only on a deliberate identity change, e.g. a cache-schema
bump) with::

    PYTHONPATH=src python -m tests.runner.test_fingerprint_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.models.zoo import MODEL_NAMES
from repro.network.autotuner import Selection, SelectionTable
from repro.runner.spec import RunSpec

GOLDEN_PATH = Path(__file__).with_name("fingerprints_golden.json")

FABRICS = ("10gbe", "100gbib", "nvlink")

#: Fixed, hand-written table: its payload is part of the identity, so it
#: must not depend on what the autotuner would pick today.
_TUNED_TABLE = SelectionTable(
    link_name="golden-link",
    world_size=64,
    entries={
        "all_reduce": {
            12: Selection("synth_lat", "simple", 2),
            20: Selection("ring", "simple", 2),
        },
        "reduce_scatter": {16: Selection("ring", "ll", 4)},
    },
)

_FAULTS = FaultPlan(
    seed=7,
    link_faults=(LinkFault(0.1, 0.4, alpha_factor=2.0, beta_factor=3.0),),
    stragglers=(StragglerFault(0.05, 0.2, compute_factor=1.5),),
)

#: shape name -> (scheduler, RunSpec.create keyword arguments)
SHAPES = {
    "plain": ("wfbp", {}),
    "dear_buffer": ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    "bytescheduler_credit": ("bytescheduler", {"credit": 4}),
    "faults": ("horovod", {"faults": _FAULTS, "buffer_bytes": 25e6}),
    "compute_scales": ("dear", {
        "fusion_buffer_bytes": 25e6,
        "compute_scales": (1.0,) * 63 + (1.5,),
    }),
    "auto_tuned": ("wfbp", {"algorithm": "auto", "tuned_table": _TUNED_TABLE}),
    "workload_moe": ("dear", {"fusion": "none", "workload": "moe"}),
}


def golden_specs() -> list[tuple[str, RunSpec]]:
    """Every (label, spec) the golden list pins, in file order."""
    specs = []
    for model in MODEL_NAMES:
        for fabric in FABRICS:
            for shape, (scheduler, kwargs) in SHAPES.items():
                spec = RunSpec.create(scheduler, model, fabric, **kwargs)
                specs.append((f"{model}/{fabric}/{shape}", spec))
    return specs


def current_fingerprints() -> list[dict]:
    return [
        {"label": label, "fingerprint": spec.fingerprint}
        for label, spec in golden_specs()
    ]


def test_fingerprints_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = current_fingerprints()
    assert [row["label"] for row in current] == [row["label"] for row in golden]
    drifted = [
        row["label"]
        for row, pinned in zip(current, golden)
        if row["fingerprint"] != pinned["fingerprint"]
    ]
    assert not drifted, f"fingerprints drifted for {drifted}"


def test_each_shape_runs():
    """A pinned fingerprint keys a cache entry only if its spec can run.

    On the 100 Gb/s InfiniBand testbed: the hand-written table selects
    the LL protocol, which the 10GbE link does not offer.
    """
    for shape, (scheduler, kwargs) in SHAPES.items():
        result = RunSpec.create(scheduler, "resnet50", "100gbib", **kwargs).run()
        assert result.iteration_time > 0, shape


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(current_fingerprints(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")

"""Every way of running one spec gives the same result and fingerprint.

Five routes lead to a simulation: ``spec.run()``, ``run_simulation``
uncached and cached, ``run_many`` through the batched runner, and a
served ``/v1/simulate`` reply.  They share one run description
(:class:`~repro.runner.spec.RunSpec`), so they must agree exactly on
the result payload and on the fingerprint.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SimulationConfig, run_simulation
from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.runner.cache import ResultCache, result_to_dict
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.serve import ServeClient, SimulationServer

ITERATIONS = 4

FAULTS = FaultPlan(
    stragglers=(StragglerFault(start=0.0, end=5.0, compute_factor=1.5),),
    link_faults=(LinkFault(0.0, 5.0, alpha_factor=2.0, beta_factor=2.0),),
)

#: name -> (wire payload, keyword arguments of RunSpec.create).
CASES = {
    "healthy": ({}, {}),
    "faulted": ({"faults": FAULTS.canonical_payload()}, {"faults": FAULTS}),
    "auto": ({"algorithm": "auto"}, {"algorithm": "auto"}),
    "heterogeneous": (
        {"compute_scales": [1.5] + [1.0] * 63},
        {"compute_scales": (1.5,) + (1.0,) * 63},
    ),
}


def _canonical(result) -> dict:
    """The result payload as it crosses the wire."""
    return json.loads(json.dumps(result_to_dict(result)))


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry-points")
    server = SimulationServer(
        port=0, cache=ResultCache(root=root / "serve-cache"), jobs=1,
        batch_window=0.02,
    ).start()
    yield ServeClient(server.url, timeout=120.0)
    server.shutdown()


def test_public_name_is_the_spec():
    assert SimulationConfig is RunSpec


@pytest.mark.parametrize("case", sorted(CASES))
def test_all_routes_agree(case, client, tmp_path):
    wire, kwargs = CASES[case]
    spec = RunSpec.create("wfbp", "resnet50", "10gbe", iterations=ITERATIONS,
                          **kwargs)
    direct = spec.run()
    routes = {
        "run_simulation": run_simulation(spec),
        "run_simulation(cached=True)": run_simulation(spec, cached=True),
        "run_many": run_many(
            [spec], jobs=1, cache=ResultCache(root=tmp_path / "run-many")
        )[0],
    }
    expected = _canonical(direct)
    for route, result in routes.items():
        assert _canonical(result) == expected, route
    served = client.simulate({
        "scheduler": "wfbp", "model": "resnet50", "cluster": "10gbe",
        "iterations": ITERATIONS, **wire,
    })
    assert served["result"] == expected
    assert served["fingerprint"] == spec.fingerprint
    assert served["label"] == spec.label
    if case == "heterogeneous":
        assert direct.extras["engine"] == "multirank-fastpath"

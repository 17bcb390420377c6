"""Golden collective prices: every pricing path is bit-stable across refactors.

``pricing_golden.json`` pins, as ``float.hex`` strings, the price of
every public :class:`CollectiveTimeModel` method (the five collective
kinds, ``send_recv``, ``negotiation`` and ``subgroup_time`` for each
kind) for each algorithm family — the presets, the synthesized
schedules, ``auto`` without a table and ``auto`` with the committed
100GbIB table — plus the ``ll128``/one-channel/four-chunk protocol mode
where the link runs LL128, over the preset fabrics, a single-node
NVLink box, two (gamma, startup_overhead) settings and sizes from 0 B
to 1 GiB.  It also pins the :func:`collective_times` vectors of every
op x algorithm.  A call that raises is pinned by its exception type.

Regenerate (only on a deliberate pricing change) with::

    PYTHONPATH=src python -m tests.network.test_pricing_golden
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.network import autotuner
from repro.network.autotuner import SelectionTable
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_nvlink, paper_testbed
from repro.network.protocol import collective_times, governing_link

GOLDEN_PATH = Path(__file__).with_name("pricing_golden.json")
TUNED_TABLES = Path(__file__).parents[2] / "benchmarks" / "tuned_tables.json"

CLUSTERS = {
    "10gbe": paper_testbed("10gbe"),
    "100gbib": paper_testbed("100gbib"),
    "nvlink": paper_testbed("nvlink"),
    "nvlink_1node": cluster_nvlink(nodes=1, gpus_per_node=8),
}
SIZES = (0, 1, 4096, 10**6, 25 * 10**6, 2**30)
COSTS = ((0.0, 0.0), (1e-10, 1e-3))
PRESETS = ("ring", "halving_doubling", "tree", "hierarchical", "synth_lat", "synth_bw")
OPS = ("reduce_scatter", "all_gather", "all_reduce", "all_to_all")
KINDS = ("send_recv", "all_reduce", "reduce_scatter", "all_gather", "all_to_all",
         "all_to_allv")
PEERS = (1, 8)
#: Protocol mode: one LL128 channel with four pipelined ring chunks.
PROTOCOL_MODE = {"protocol": "ll128", "channels": 1, "ring_chunks": 4}


def _hex(price) -> str:
    try:
        return float(price()).hex()
    except ValueError as error:
        return f"error:{type(error).__name__}"


@contextmanager
def _no_ambient_tables():
    saved = dict(autotuner._TABLES)
    autotuner.clear_tables()
    try:
        yield
    finally:
        autotuner.clear_tables()
        autotuner._TABLES.update(saved)


def _model_configs(cluster):
    """(label, CollectiveTimeModel keyword arguments) for one cluster."""
    table = SelectionTable.from_payload(
        json.loads(TUNED_TABLES.read_text())["fabrics"]["100gbib"]["table"]
    )
    configs = [(algorithm, {"algorithm": algorithm}) for algorithm in PRESETS]
    configs.append(("auto", {"algorithm": "auto"}))
    configs.append(("auto_ib_table", {"algorithm": "auto", "table": table}))
    if "ll128" in governing_link(cluster).protocols:
        configs += [
            (f"{algorithm}/ll128/c1/k4", {"algorithm": algorithm, **PROTOCOL_MODE})
            for algorithm in PRESETS
        ]
    return configs


def _model_prices(model) -> dict:
    prices = {
        method: [_hex(lambda: getattr(model, method)(n)) for n in SIZES]
        for method in ("reduce_scatter", "all_gather", "all_reduce", "all_to_all",
                       "all_to_allv", "send_recv", "negotiation")
    }
    prices["negotiation_default"] = _hex(model.negotiation)
    for kind in KINDS:
        for peers in PEERS:
            prices[f"subgroup/{kind}/{peers}"] = [
                _hex(lambda: model.subgroup_time(kind, n, peers)) for n in SIZES
            ]
    prices["trace_algorithm"] = model.trace_algorithm
    prices["describe"] = model.describe()
    return prices


def _vector_prices(op, cluster, algorithm, gamma, overhead, **mode) -> list[str]:
    try:
        times = collective_times(
            op, np.array(SIZES, dtype=float), cluster, algorithm=algorithm,
            gamma=gamma, startup_overhead=overhead, **mode,
        )
    except ValueError as error:
        return [f"error:{type(error).__name__}"]
    return [float(t).hex() for t in times]


def current_prices() -> dict:
    out = {}
    with _no_ambient_tables():
        for fabric, cluster in CLUSTERS.items():
            for gamma, overhead in COSTS:
                cost = f"g{gamma:g}/o{overhead:g}"
                for label, kwargs in _model_configs(cluster):
                    model = CollectiveTimeModel(
                        cluster, gamma=gamma, startup_overhead=overhead, **kwargs
                    )
                    out[f"model/{fabric}/{cost}/{label}"] = _model_prices(model)
                modes = [("plain", {})]
                if "ll128" in governing_link(cluster).protocols:
                    modes.append(("ll128/c1/k4", PROTOCOL_MODE))
                for mode_label, mode in modes:
                    for algorithm in PRESETS:
                        for op in OPS:
                            out[f"times/{fabric}/{cost}/{mode_label}/{algorithm}/{op}"] = (
                                _vector_prices(op, cluster, algorithm, gamma, overhead,
                                               **mode)
                            )
    return out


def test_prices_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = current_prices()
    assert list(current) == list(golden)
    drifted = [label for label in golden if current[label] != golden[label]]
    assert not drifted, f"prices drifted for {drifted[:10]} ({len(drifted)} total)"


if __name__ == "__main__":
    rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in current_prices().items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")

"""Cluster fabric and collective-communication cost models.

The paper analyses communication with the classic alpha–beta cost model
(its Eq. 3–5): a point-to-point message of ``d`` elements costs
``alpha + d * beta`` where ``alpha`` is the per-message latency and
``beta`` the per-element transmission time.  This package provides:

- :mod:`repro.network.fabric` — link and cluster topology descriptions;
- :mod:`repro.network.cost_model` — one collective time formula per
  (algorithm, op) (ring, double binary tree, recursive
  halving-doubling, hierarchical two-level ring, synthesized
  schedules), each taking a scalar size or a numpy size vector, one
  table dispatching to them, and the :class:`CollectiveTimeModel`
  facade used by the schedulers;
- :mod:`repro.network.presets` — calibrated 10GbE / 100GbIB / NVLink
  numbers matching the paper's testbed (§VI-A), including the paper's
  own spot checks (1 MB all-reduce ≈ 4.5 ms on 64 GPUs / 10GbE);
- :mod:`repro.network.protocol` — NCCL protocol tiers (Simple/LL/LL128)
  and multi-channel striping resolved into effective alpha/beta, and
  :func:`collective_times`, which prices size sweeps through the same
  formula table as the model (opt-in; defaults are bit-identical to the
  plain model);
- :mod:`repro.network.autotuner` — per-(op, size, topology) selection of
  (algorithm, protocol, channels), memoized into size-bucketed tables
  that ``CollectiveTimeModel(algorithm="auto")`` consults.
"""

from repro.network.autotuner import (
    Selection,
    SelectionTable,
    build_selection_table,
    clear_tables,
    ensure_table,
    register_table,
    table_for,
)
from repro.network.cost_model import (
    CollectiveTimeModel,
    hierarchical_all_reduce_time,
    negotiation_time,
    recursive_doubling_all_gather_time,
    recursive_halving_reduce_scatter_time,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
    tree_all_reduce_time,
    tree_broadcast_time,
    tree_reduce_time,
)
from repro.network.fabric import ClusterSpec, LinkSpec
from repro.network.protocol import (
    LL,
    LL128,
    PROTOCOLS,
    SIMPLE,
    ProtocolSpec,
    collective_time,
    collective_times,
)
from repro.network.presets import (
    ETHERNET_10G,
    ETHERNET_25G,
    INFINIBAND_100G,
    NVLINK,
    PCIE_3,
    cluster_10gbe,
    cluster_100gbib,
    paper_testbed,
)

__all__ = [
    "ClusterSpec",
    "CollectiveTimeModel",
    "ETHERNET_10G",
    "ETHERNET_25G",
    "INFINIBAND_100G",
    "LL",
    "LL128",
    "LinkSpec",
    "NVLINK",
    "PCIE_3",
    "PROTOCOLS",
    "ProtocolSpec",
    "SIMPLE",
    "Selection",
    "SelectionTable",
    "build_selection_table",
    "clear_tables",
    "cluster_100gbib",
    "cluster_10gbe",
    "collective_time",
    "collective_times",
    "ensure_table",
    "register_table",
    "table_for",
    "hierarchical_all_reduce_time",
    "negotiation_time",
    "paper_testbed",
    "recursive_doubling_all_gather_time",
    "recursive_halving_reduce_scatter_time",
    "ring_all_gather_time",
    "ring_all_reduce_time",
    "ring_reduce_scatter_time",
    "tree_all_reduce_time",
    "tree_broadcast_time",
    "tree_reduce_time",
]

"""Workload generators: model + cluster -> comm-compute DAG.

Each generator maps a calibrated :class:`~repro.models.TimingModel` and
a :class:`~repro.network.fabric.ClusterSpec` to one iteration's
:class:`~repro.workloads.ir.Workload`.  ``layerwise`` is the layer-wise
FF/BP shape as a DAG; it does *not* reproduce the classic ``schedule()``
timings (see :func:`layerwise`).  The others exercise the collectives
the paper's benchmark suite never reaches:

- ``moe``: Mixture-of-Experts expert parallelism.  Each transformer
  block routes tokens through an ``all_to_all`` dispatch/combine pair
  in the forward pass and again (reversed) in the backward pass, so
  four all-to-alls per block sit on the critical path; only the dense
  (attention + router) gradients are data-parallel syncs — expert
  weights live with their ranks.
- ``dlrm``: recommendation-model hybrid parallelism.  The embedding
  tables are model-parallel sharded, exchanged with ``all_to_allv``
  (lookups skew toward hot shards, so the synchronous exchange is
  priced at the busiest rank); only the dense MLP towers sync.
- ``llm3d``: tensor/pipeline/data 3D-parallel LLM stage.  One
  pipeline stage's iteration: per microbatch, a ``send_recv``
  activation hand-off, the stage's compute slice, and a
  tensor-parallel ``all_reduce`` over the ``tp`` subgroup; gradient
  syncs span only the ``dp`` data-parallel subgroup.

Proportions (compute split across blocks, dense-vs-sparse gradient
fractions, activation payloads) are fixed model constants chosen to
keep the generated DAGs deterministic functions of ``(timing,
cluster)`` — the content-addressed result cache keys on the workload
*name*, so a generator must never consult anything else.
"""

from __future__ import annotations

from repro.models.profiles import TimingModel
from repro.network.fabric import ClusterSpec
from repro.workloads.ir import Workload, WorkloadNode

__all__ = ["WORKLOAD_NAMES", "build_workload", "layerwise", "moe", "dlrm", "llm3d"]


def layerwise(timing: TimingModel, cluster: ClusterSpec) -> Workload:
    """The layer-wise DAG: FF chain, BP chain, one gradient sync per layer.

    Forward layers in order, backward layers in reverse, layer ``l``'s
    gradients ready after its BP step, and next iteration's FF layer
    ``l`` consuming the synced result (DeAR's FeedPipe gate).  The
    shape matches the schedulers' classic ``schedule()`` paths, but the
    timings do not: the DAG syncs once per layer where the classic
    schedules sync once per tensor, ``execute_zero`` gathers once per
    iteration (classic ZeRO twice), the DAG ByteScheduler launches FIFO
    with no priority queue, DeAR-NL degenerates to DeAR without tensor
    fusion, and Horovod sizes its negotiation per layer rather than per
    tensor.
    """
    model = timing.model
    nodes: list[WorkloadNode] = []
    ff_index: dict[int, int] = {}
    sync_index: dict[int, int] = {}
    for layer in range(model.num_layers):
        deps = (ff_index[layer - 1],) if layer else ()
        ff_index[layer] = len(nodes)
        nodes.append(WorkloadNode(
            name=f"ff{layer}", op="compute", duration=timing.ff_time(layer),
            deps=deps, category="ff",
        ))
    prev_bp = None
    for layer in reversed(range(model.num_layers)):
        deps = (ff_index[model.num_layers - 1],) if prev_bp is None else (prev_bp,)
        prev_bp = len(nodes)
        nodes.append(WorkloadNode(
            name=f"bp{layer}", op="compute", duration=timing.bp_time(layer),
            deps=deps, category="bp",
        ))
        sync_index[layer] = len(nodes)
        nodes.append(WorkloadNode(
            name=f"sync{layer}", op="all_reduce",
            nbytes=float(model.layers[layer].nbytes),
            deps=(prev_bp,), sync=True,
        ))
    # Next iteration's FF layer l consumes layer l's synced gradients.
    for layer, index in ff_index.items():
        nodes[index] = WorkloadNode(
            name=nodes[index].name, op="compute",
            duration=nodes[index].duration, deps=nodes[index].deps,
            carry_deps=(sync_index[layer],), category="ff",
        )
    return Workload(name="layerwise", nodes=tuple(nodes))


#: MoE shape constants (deterministic generator parameters).
_MOE_BLOCKS = 8
_MOE_DENSE_FRACTION = 0.5       # attention + router params sync via DP
_MOE_ATTN_COMPUTE = 0.5         # attention share of a block's compute

def moe(timing: TimingModel, cluster: ClusterSpec) -> Workload:
    """Expert-parallel MoE: all-to-all dispatch/combine per block."""
    model = timing.model
    blocks = _MOE_BLOCKS
    ff_block = timing.t_ff / blocks
    bp_block = timing.t_bp / blocks
    # Token activations shuffled per dispatch: the dense fraction of one
    # block's parameter bytes is a reasonable stand-in payload.
    a2a_bytes = float(model.gradient_bytes) * _MOE_DENSE_FRACTION / blocks
    sync_bytes = float(model.gradient_bytes) * _MOE_DENSE_FRACTION / blocks
    nodes: list[WorkloadNode] = []
    attn_f: dict[int, int] = {}
    prev = None

    def add(node: WorkloadNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    for b in range(blocks):
        attn_f[b] = prev = add(WorkloadNode(
            name=f"attn_f{b}", op="compute",
            duration=ff_block * _MOE_ATTN_COMPUTE,
            deps=() if prev is None else (prev,), category="ff",
        ))
        prev = add(WorkloadNode(
            name=f"dispatch_f{b}", op="all_to_all", nbytes=a2a_bytes,
            deps=(prev,),
        ))
        prev = add(WorkloadNode(
            name=f"expert_f{b}", op="compute",
            duration=ff_block * (1.0 - _MOE_ATTN_COMPUTE),
            deps=(prev,), category="ff",
        ))
        prev = add(WorkloadNode(
            name=f"combine_f{b}", op="all_to_all", nbytes=a2a_bytes,
            deps=(prev,),
        ))
    sync_of_block: dict[int, int] = {}
    for b in reversed(range(blocks)):
        prev = add(WorkloadNode(
            name=f"combine_b{b}", op="all_to_all", nbytes=a2a_bytes,
            deps=(prev,),
        ))
        prev = add(WorkloadNode(
            name=f"expert_b{b}", op="compute",
            duration=bp_block * (1.0 - _MOE_ATTN_COMPUTE),
            deps=(prev,), category="bp",
        ))
        prev = add(WorkloadNode(
            name=f"dispatch_b{b}", op="all_to_all", nbytes=a2a_bytes,
            deps=(prev,),
        ))
        prev = add(WorkloadNode(
            name=f"attn_b{b}", op="compute",
            duration=bp_block * _MOE_ATTN_COMPUTE,
            deps=(prev,), category="bp",
        ))
        sync_of_block[b] = add(WorkloadNode(
            name=f"sync{b}", op="all_reduce", nbytes=sync_bytes,
            deps=(prev,), sync=True,
        ))
    for b, index in attn_f.items():
        node = nodes[index]
        nodes[index] = WorkloadNode(
            name=node.name, op="compute", duration=node.duration,
            deps=node.deps, carry_deps=(sync_of_block[b],), category="ff",
        )
    return Workload(name="moe", nodes=tuple(nodes))


#: DLRM shape constants.
_DLRM_SPLIT = {"bottom": 0.25, "embed": 0.15, "interact": 0.2, "top": 0.4}
_DLRM_EXCHANGE_FRACTION = 0.25  # embedding vectors per exchange, uniform share
_DLRM_SKEW = 1.5                # busiest rank vs uniform (hot shards)
_DLRM_TOP_SYNC = 0.4            # dense fractions of the gradient bytes
_DLRM_BOTTOM_SYNC = 0.2

def dlrm(timing: TimingModel, cluster: ClusterSpec) -> Workload:
    """Hybrid-parallel DLRM: sharded embeddings meet dense MLP towers."""
    model = timing.model
    split = _DLRM_SPLIT
    grad = float(model.gradient_bytes)
    exchange = grad * _DLRM_EXCHANGE_FRACTION * _DLRM_SKEW
    nodes: list[WorkloadNode] = []

    def add(node: WorkloadNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    bottom_f = add(WorkloadNode(
        name="bottom_f", op="compute", duration=timing.t_ff * split["bottom"],
        category="ff",
    ))
    embed_f = add(WorkloadNode(
        name="embed_f", op="compute", duration=timing.t_ff * split["embed"],
        category="ff",
    ))
    exchange_f = add(WorkloadNode(
        name="exchange_f", op="all_to_allv", nbytes=exchange, deps=(embed_f,),
    ))
    interact_f = add(WorkloadNode(
        name="interact_f", op="compute",
        duration=timing.t_ff * split["interact"],
        deps=(bottom_f, exchange_f), category="ff",
    ))
    top_f = add(WorkloadNode(
        name="top_f", op="compute", duration=timing.t_ff * split["top"],
        deps=(interact_f,), category="ff",
    ))
    top_b = add(WorkloadNode(
        name="top_b", op="compute", duration=timing.t_bp * split["top"],
        deps=(top_f,), category="bp",
    ))
    sync_top = add(WorkloadNode(
        name="sync_top", op="all_reduce", nbytes=grad * _DLRM_TOP_SYNC,
        deps=(top_b,), sync=True,
    ))
    interact_b = add(WorkloadNode(
        name="interact_b", op="compute",
        duration=timing.t_bp * split["interact"],
        deps=(top_b,), category="bp",
    ))
    exchange_b = add(WorkloadNode(
        name="exchange_b", op="all_to_allv", nbytes=exchange,
        deps=(interact_b,),
    ))
    embed_b = add(WorkloadNode(
        name="embed_b", op="compute", duration=timing.t_bp * split["embed"],
        deps=(exchange_b,), category="bp",
    ))
    bottom_b = add(WorkloadNode(
        name="bottom_b", op="compute", duration=timing.t_bp * split["bottom"],
        deps=(interact_b,), category="bp",
    ))
    sync_bottom = add(WorkloadNode(
        name="sync_bottom", op="all_reduce", nbytes=grad * _DLRM_BOTTOM_SYNC,
        deps=(bottom_b,), sync=True,
    ))
    del embed_b  # sharded embedding update stays rank-local: no sync
    nodes[bottom_f] = WorkloadNode(
        name="bottom_f", op="compute", duration=timing.t_ff * split["bottom"],
        carry_deps=(sync_bottom,), category="ff",
    )
    nodes[top_f] = WorkloadNode(
        name="top_f", op="compute", duration=timing.t_ff * split["top"],
        deps=(interact_f,), carry_deps=(sync_top,), category="ff",
    )
    return Workload(name="dlrm", nodes=tuple(nodes))


#: 3D-parallel shape constants.
_LLM3D_MICROBATCHES = 4
_LLM3D_MAX_TP = 8
_LLM3D_MAX_PP = 4
_LLM3D_SYNC_NODES = 4

def _llm3d_axes(cluster: ClusterSpec) -> tuple[int, int, int]:
    """(tp, pp, dp) for a cluster; prefers dp >= 2 when the world allows."""
    world = cluster.world_size
    tp = min(_LLM3D_MAX_TP, cluster.gpus_per_node)
    pp = min(_LLM3D_MAX_PP, max(1, world // tp))
    dp = world // (tp * pp)
    while dp < 2 and pp > 1:
        pp //= 2
        dp = world // (tp * pp)
    while dp < 2 and tp > 1:
        tp //= 2
        dp = world // (tp * pp)
    return tp, pp, dp


def llm3d(timing: TimingModel, cluster: ClusterSpec) -> Workload:
    """One pipeline stage of a TPxPPxDP 3D-parallel LLM iteration."""
    model = timing.model
    tp, pp, dp = _llm3d_axes(cluster)
    micro = _LLM3D_MICROBATCHES
    slice_ff = timing.t_ff / (pp * micro)
    slice_bp = timing.t_bp / (pp * micro)
    act_bytes = float(model.gradient_bytes) / (pp * micro)
    stage_grad = float(model.gradient_bytes) / (tp * pp)
    sync_peers = dp if dp > 1 else 0
    nodes: list[WorkloadNode] = []

    def add(node: WorkloadNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    fwd0 = None
    fwd_ar: dict[int, int] = {}
    for m in range(micro):
        recv = add(WorkloadNode(
            name=f"recv_act{m}", op="send_recv", nbytes=act_bytes,
        ))
        fwd = add(WorkloadNode(
            name=f"fwd{m}", op="compute", duration=slice_ff,
            deps=(recv,), category="ff",
        ))
        if m == 0:
            fwd0 = fwd
        fwd_ar[m] = ar = add(WorkloadNode(
            name=f"tp_ar_f{m}", op="all_reduce", nbytes=act_bytes,
            deps=(fwd,), peers=tp,
        ))
        add(WorkloadNode(
            name=f"send_act{m}", op="send_recv", nbytes=act_bytes,
            deps=(ar,),
        ))
    bwd_computes = []
    for m in reversed(range(micro)):
        recv = add(WorkloadNode(
            name=f"recv_grad{m}", op="send_recv", nbytes=act_bytes,
        ))
        bwd = add(WorkloadNode(
            name=f"bwd{m}", op="compute", duration=slice_bp,
            deps=(recv, fwd_ar[m]), category="bp",
        ))
        bwd_computes.append(bwd)
        ar = add(WorkloadNode(
            name=f"tp_ar_b{m}", op="all_reduce", nbytes=act_bytes,
            deps=(bwd,), peers=tp,
        ))
        add(WorkloadNode(
            name=f"send_grad{m}", op="send_recv", nbytes=act_bytes,
            deps=(ar,),
        ))
    sync_indices = []
    for s in range(_LLM3D_SYNC_NODES):
        sync_indices.append(add(WorkloadNode(
            name=f"sync{s}", op="all_reduce",
            nbytes=stage_grad / _LLM3D_SYNC_NODES,
            deps=tuple(bwd_computes), sync=True, peers=sync_peers,
        )))
    nodes[fwd0] = WorkloadNode(
        name=nodes[fwd0].name, op="compute", duration=slice_ff,
        deps=nodes[fwd0].deps, carry_deps=tuple(sync_indices), category="ff",
    )
    return Workload(name="llm3d", nodes=tuple(nodes))


_GENERATORS = {
    "layerwise": layerwise,
    "moe": moe,
    "dlrm": dlrm,
    "llm3d": llm3d,
}

#: Registry names accepted anywhere a workload can be requested.
WORKLOAD_NAMES = tuple(_GENERATORS)


def build_workload(name: str, timing: TimingModel, cluster: ClusterSpec) -> Workload:
    """Build a registered workload for one (model, cluster) binding."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
        ) from None
    return generator(timing, cluster)

"""Schedule a custom architecture and tune its fusion with BO.

Scenario: you have a model that is not in the Table I zoo — here a
ViT-style transformer — and want to know (a) how much DeAR would help
on your cluster, (b) what fusion buffer to use, and (c) what the
timeline looks like.  This example:

1. describes the architecture with :class:`ModelBuilder`;
2. calibrates a compute profile from a measured single-GPU time;
3. compares schedulers on a 32-GPU / 25GbE cloud cluster;
4. tunes DeAR's buffer size with the from-scratch BO loop;
5. exports a Chrome trace of the winning schedule
   (load ``results/custom_model_timeline.json`` in about://tracing).

Run:
    python examples/custom_model_scheduling.py
"""

import pathlib

from repro.models.layers import ModelBuilder
from repro.models.profiles import TimingModel
from repro.network import ETHERNET_25G, NVLINK, ClusterSpec, CollectiveTimeModel
from repro.schedulers import get_scheduler

#: Measured (hypothetically) single-GPU iteration compute time.
MEASURED_ITERATION_COMPUTE = 0.18
SEQ, HIDDEN, LAYERS = 196, 512, 12


def build_vit_small():
    """A ViT-S/16-like encoder: patch embed + 12 transformer blocks."""
    builder = ModelBuilder(
        name="vit_small", display_name="ViT-Small/16", default_batch_size=128,
        sample_description="224x224x3 image as 196 patches",
    )
    builder.add_layer(
        "patch_embed", "conv", [("weight", 3 * 16 * 16 * HIDDEN), ("bias", HIDDEN)],
        flops=2.0 * 3 * 16 * 16 * HIDDEN * SEQ,
    )
    for block in range(LAYERS):
        prefix = f"blocks.{block}"
        builder.add_layer(
            f"{prefix}.norm1", "layernorm",
            [("weight", HIDDEN), ("bias", HIDDEN)], flops=8.0 * SEQ * HIDDEN,
        )
        builder.add_layer(
            f"{prefix}.attn.qkv", "fc",
            [("weight", HIDDEN * 3 * HIDDEN), ("bias", 3 * HIDDEN)],
            flops=2.0 * SEQ * HIDDEN * 3 * HIDDEN + 4.0 * SEQ * SEQ * HIDDEN,
        )
        builder.add_layer(
            f"{prefix}.attn.proj", "fc",
            [("weight", HIDDEN * HIDDEN), ("bias", HIDDEN)],
            flops=2.0 * SEQ * HIDDEN * HIDDEN,
        )
        builder.add_layer(
            f"{prefix}.norm2", "layernorm",
            [("weight", HIDDEN), ("bias", HIDDEN)], flops=8.0 * SEQ * HIDDEN,
        )
        builder.add_layer(
            f"{prefix}.mlp.fc1", "fc",
            [("weight", HIDDEN * 4 * HIDDEN), ("bias", 4 * HIDDEN)],
            flops=2.0 * SEQ * HIDDEN * 4 * HIDDEN,
        )
        builder.add_layer(
            f"{prefix}.mlp.fc2", "fc",
            [("weight", 4 * HIDDEN * HIDDEN), ("bias", HIDDEN)],
            flops=2.0 * SEQ * 4 * HIDDEN * HIDDEN,
        )
    builder.add_layer(
        "norm", "layernorm", [("weight", HIDDEN), ("bias", HIDDEN)],
        flops=8.0 * SEQ * HIDDEN,
    )
    builder.fc("head", HIDDEN, 1000)
    return builder.build()


def main() -> None:
    model = build_vit_small()
    print(model.describe())

    cluster = ClusterSpec(
        name="32xGPU/25GbE-cloud", nodes=8, gpus_per_node=4,
        inter_link=ETHERNET_25G, intra_link=NVLINK,
    )
    print(cluster.describe())
    timing = TimingModel.for_model(model, iteration_compute=MEASURED_ITERATION_COMPUTE)
    cost = CollectiveTimeModel(cluster)

    print(f"\ngradient volume: {model.gradient_bytes / 1e6:.1f} MB, "
          f"full all-reduce: {cost.all_reduce(model.gradient_bytes) * 1e3:.1f} ms")

    print(f"\n{'scheduler':<24} {'iter (ms)':>10} {'samples/s':>11}")
    for label, name, options in [
        ("WFBP", "wfbp", {}),
        ("Horovod (25MB)", "horovod", {"buffer_bytes": 25e6}),
        ("DDP (25MB)", "ddp", {}),
        ("DeAR (25MB)", "dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
    ]:
        result = get_scheduler(name, **options).run(timing, cost)
        print(f"{label:<24} {result.iteration_time * 1e3:>10.1f} "
              f"{result.throughput:>11.0f}")

    # Tune DeAR's fusion buffer with the paper's BO loop; tracing the
    # run records the winning schedule's timeline.
    final = get_scheduler("dear", fusion="bo", bo_trials=10).run(
        timing, cost, trace=True
    )
    print(f"\nBO-tuned buffer: {final.extras['buffer_bytes'] / 1e6:.1f} MB "
          f"-> {final.throughput:.0f} samples/s (10 trials)")

    # Export the winning timeline for chrome://tracing.
    out = pathlib.Path("results")
    out.mkdir(exist_ok=True)
    trace_path = out / "custom_model_timeline.json"
    trace_path.write_text(final.tracer.to_chrome_trace())
    print(f"timeline written to {trace_path} (open in about://tracing)")


if __name__ == "__main__":
    main()

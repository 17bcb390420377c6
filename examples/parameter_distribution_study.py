"""How a model's tensor-size distribution dictates its fusion policy.

Section IV's premise is that the right fusion depends on the model:
DenseNet's 604 mostly-tiny tensors are startup-latency poison, BERT's
uniform blocks suit fixed-layer grouping, VGG's three giant FC tensors
barely need fusion at all.  This study walks the whole zoo (the paper's
five models plus the VGG-16 / GPT-2 extensions), prints each model's
tensor-size distribution, and BO-tunes DeAR's buffer per model — making
the distribution → policy connection quantitative.

Run:
    python examples/parameter_distribution_study.py
"""

import numpy as np

from repro.models import get_model
from repro.models.profiles import TimingModel
from repro.network import CollectiveTimeModel, cluster_10gbe
from repro.schedulers import get_scheduler

#: Extension models need an explicit single-GPU iteration time.
ASSUMED_COMPUTE = {"vgg16": 0.30, "gpt2_small": 0.55}

ZOO = (
    "resnet50", "densenet201", "inception_v4",
    "bert_base", "bert_large", "vgg16", "gpt2_small",
)


def tensor_stats(model) -> dict:
    sizes = np.array([t.nbytes for t in model.tensors_forward_order()])
    return {
        "count": len(sizes),
        "median_kb": float(np.median(sizes)) / 1e3,
        "p95_mb": float(np.percentile(sizes, 95)) / 1e6,
        "top3_share": float(np.sort(sizes)[-3:].sum() / sizes.sum()),
    }


def tune_buffer(model, cost, iteration_compute=None, trials=8):
    timing = TimingModel.for_model(model, iteration_compute=iteration_compute)
    tuned = get_scheduler("dear", fusion="bo", bo_trials=trials).run(timing, cost)
    unfused = get_scheduler("dear", fusion="none").run(timing, cost)
    return tuned.extras["buffer_bytes"], tuned.throughput / unfused.throughput


def main() -> None:
    cost = CollectiveTimeModel(cluster_10gbe())
    header = (
        f"{'model':<13} {'tensors':>7} {'median':>9} {'p95':>8} "
        f"{'top3 share':>10} {'best buf':>9} {'fusion gain':>11}"
    )
    print(header)
    print("-" * len(header))
    for name in ZOO:
        model = get_model(name)
        stats = tensor_stats(model)
        best_buffer, gain = tune_buffer(
            model, cost, iteration_compute=ASSUMED_COMPUTE.get(name)
        )
        print(
            f"{name:<13} {stats['count']:>7} {stats['median_kb']:>7.1f}KB "
            f"{stats['p95_mb']:>6.1f}MB {stats['top3_share']:>9.0%} "
            f"{best_buffer / 1e6:>7.1f}MB {gain:>10.2f}x"
        )
    print(
        "\nReading: the more of a model's bytes sit in tiny tensors\n"
        "(DenseNet: median 4KB), the more fusion buys (7x!);  models\n"
        "whose mass is already in a few giant tensors (VGG: top-3\n"
        "tensors ~90% of bytes) gain the least — fusion policy is a\n"
        "function of the tensor-size distribution, which is why DeAR\n"
        "tunes it at run time instead of hard-coding it."
    )


if __name__ == "__main__":
    main()

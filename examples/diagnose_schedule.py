"""Diagnose a schedule: where does the iteration time actually go?

Runs three workloads spanning the paper's regimes, prints the timeline
of each, and lets :func:`repro.analysis.diagnose` explain the traced
behaviour — bottleneck, overlap efficiency, startup share — with an
Eq. 6-9-grounded suggestion:

- ResNet-50 on 100GbIB: compute-bound, nothing for scheduling to fix;
- DenseNet-201 unfused on 10GbE: startup-latency bound (604 tensors!),
  the case tensor fusion exists for;
- BERT-Large on 10GbE: bandwidth-bound, where only compression or a
  fatter pipe helps once DeAR's overlap is exhausted.

Run:
    python examples/diagnose_schedule.py
"""

from repro.analysis import diagnose
from repro.experiments.plotting import ascii_timeline
from repro.models import get_model
from repro.network import CollectiveTimeModel, cluster_100gbib, cluster_10gbe
from repro.schedulers import simulate
from repro.telemetry.breakdown import steady_state_window

CASES = (
    ("ResNet-50, DeAR, 100GbIB", "resnet50", cluster_100gbib(), "dear",
     {"fusion": "buffer", "buffer_bytes": 25e6}),
    ("DenseNet-201, WFBP unfused, 10GbE", "densenet201", cluster_10gbe(),
     "wfbp", {}),
    ("BERT-Large, DeAR, 10GbE", "bert_large", cluster_10gbe(), "dear",
     {"fusion": "buffer", "buffer_bytes": 25e6}),
)


def main() -> None:
    for label, model_name, cluster, scheduler, options in CASES:
        model = get_model(model_name)
        cost = CollectiveTimeModel(cluster)
        result = simulate(scheduler, model, cluster, trace=True, **options)
        diagnosis = diagnose(result, alpha=cost.alpha, world_size=cost.world_size)

        print(f"### {label}")
        start, end = steady_state_window(result.tracer)
        print(ascii_timeline(result.tracer.spans, start, end, width=72))
        print(diagnosis.describe())
        print()


if __name__ == "__main__":
    main()

"""cProfile a representative uncached sweep (CI artifact producer).

Runs the simcore mini-sweep workload under cProfile with the fast path
in its default (enabled) state, then writes:

- ``profile_sweep.prof`` — the raw stats, loadable with ``snakeviz``
  or ``python -m pstats``;
- ``profile_sweep.txt`` — the top functions by cumulative and internal
  time, for eyeballing straight from the CI artifact listing.

Usage::

    python benchmarks/profile_sweep.py [output_dir]

See ``docs/PERF.md`` for how to act on the output.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from pathlib import Path

from repro.models import get_model
from repro.network.presets import cluster_10gbe
from repro.schedulers.base import simulate

#: The profiled workload: every scheduler family, bytescheduler's
#: verified dispatch order included, on the paper's two main model shapes.
_WORKLOAD = (
    ("wfbp", {}),
    ("mg_wfbp", {}),
    ("bytescheduler", {}),
    ("dear", {"fusion": "buffer", "buffer_bytes": 25e6}),
)
_MODELS = ("resnet50", "bert_large")


def _sweep() -> None:
    cluster = cluster_10gbe()
    for model_name in _MODELS:
        model = get_model(model_name)
        for scheduler, options in _WORKLOAD:
            simulate(scheduler, model, cluster, **options)


def main(output_dir: str = "profile-report") -> Path:
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)

    profiler = cProfile.Profile()
    profiler.enable()
    _sweep()
    profiler.disable()

    prof_path = directory / "profile_sweep.prof"
    profiler.dump_stats(prof_path)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(30)
    stats.sort_stats("tottime").print_stats(30)
    text_path = directory / "profile_sweep.txt"
    text_path.write_text(buffer.getvalue())

    print(f"wrote {prof_path} and {text_path}")
    return prof_path


if __name__ == "__main__":
    main(*sys.argv[1:2])

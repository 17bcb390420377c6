"""Parallel, content-addressed experiment execution.

Every experiment, sweep, and benchmark routes its ``simulate`` calls
through this subsystem, which layers three things on the simulator:

- **identity** — :class:`RunSpec` canonically fingerprints one run
  (scheduler + full model/cluster specs + every option);
- **memoisation** — :class:`ResultCache` keeps results on disk under
  ``.dear-cache/`` (``DEAR_CACHE_DIR`` overrides the root,
  ``DEAR_CACHE=0`` disables), versioned by a schema tag;
- **fan-out** — :func:`run_many` evaluates independent specs with
  deterministic, input-order results: compatible specs batch into
  config-axis vectorized replays (:mod:`repro.runner.batched`), the
  rest runs on a process pool (``DEAR_JOBS`` workers) with graceful
  serial fallback.

:func:`run_cached` answers a single spec through the cache;
:mod:`repro.runner.bench` and :mod:`repro.runner.report` turn batches
of runs into the ``BENCH_<date>.json`` artifact CI consumes.
"""

from repro.runner.batched import run_batched
from repro.runner.bench import bench_suites, run_bench
from repro.runner.cache import (
    SCHEMA_VERSION,
    ResultCache,
    default_cache,
    reset_default_cache,
    run_cached,
)
from repro.runner.executor import resolve_jobs, run_many
from repro.runner.report import (
    BENCH_SCHEMA,
    BenchReporter,
    bench_filename,
    compare_to_baseline,
    format_regressions,
    iteration_metrics,
)
from repro.runner.spec import RunSpec

__all__ = [
    "BENCH_SCHEMA",
    "SCHEMA_VERSION",
    "BenchReporter",
    "ResultCache",
    "RunSpec",
    "bench_filename",
    "bench_suites",
    "compare_to_baseline",
    "default_cache",
    "format_regressions",
    "iteration_metrics",
    "reset_default_cache",
    "resolve_jobs",
    "run_batched",
    "run_bench",
    "run_cached",
    "run_many",
]

"""Host wall-clock benchmark of the DeAR reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays
the same seeded ops with spans around every layer call and reports the
per-layer breakdown (see ``perfbench/README.md``).  Every output is
checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench import stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (``--trace 0``), as declared in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics every workload measures (``--trace 1``), as
#: declared in BENCHMARK.json.  The full breakdown — including layers
#: only some workloads enter — is printed and written beside them.
PER_LAYER = {
    "runner.spec.fingerprint_s": "s",
    "runner.spec.fingerprint_calls": "count",
    "runner.cache.get_s": "s",
    "runner.residual_s": "s",
    "runner.cache.hit_ratio": "fraction",
    "bench.traced_op_s": "s",
    "bench.trace_overhead_ratio": "ratio",
}

#: Set-up is sampled in fresh processes and the median reported: up to
#: SETUP_SAMPLES times, but no more than SETUP_MIN_SAMPLES once the
#: samples have cost SETUP_BUDGET_S (serve_warm's set-up takes ~4 s).
#: It is put on the reference-speed scale with the timed window's
#: factor: two host probes around one sub-second set-up moved it by up
#: to 20%, while the window's factor averages dozens of them.
SETUP_SAMPLES = 7
SETUP_MIN_SAMPLES = 3
SETUP_BUDGET_S = 8.0

#: Every run ends within this many seconds, workers included.
RUN_DEADLINE_S = 170.0

#: Environment switches that change what is measured: the flags must be
#: unset or true, the others unset.
_FLAG_VARS = ("DEAR_FASTPATH", "DEAR_BATCHED", "DEAR_TELEMETRY", "DEAR_CACHE")
_UNSET_VARS = ("DEAR_JOBS", "DEAR_SERVE_BATCH_WINDOW")
_TRUE = ("1", "true", "on", "yes", "y")

OUT_DIR = ROOT / ".perfbench-out"
RUNS_DIR = ROOT / ".perfbench-runs"


class BenchError(RuntimeError):
    """A worker crashed or timed out: no result can be printed."""


def environment_errors(environ) -> list[str]:
    errors = []
    for name in _FLAG_VARS:
        value = environ.get(name)
        if value is not None and value.strip() and value.strip().lower() not in _TRUE:
            errors.append(f"{name}={value!r} (must be unset or true)")
    for name in _UNSET_VARS:
        if environ.get(name, "").strip():
            errors.append(f"{name}={environ[name]!r} (must be unset)")
    return errors


def provenance() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


class Runner:
    """Spawns workers with a run-private directory and a shared deadline."""

    def __init__(self, run_dir: Path, deadline: float, inject_failure: bool = False):
        self.run_dir = run_dir
        self.deadline = deadline
        self.inject_failure = inject_failure
        self._count = 0

    def worker(self, workload: str, seed: int, *flags, env_extra=None,
               setup_only: bool = False):
        """Run one worker; returns (set-up seconds, result dict).

        Set-up is the wall time from spawn to ``READY``.  ``setup_only``
        stops the worker there.
        """
        self._count += 1
        cache_dir = self.run_dir / f"w{self._count}"
        cache_dir.mkdir()
        env = {k: v for k, v in os.environ.items() if not k.startswith("DEAR_")}
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        env["DEAR_CACHE_DIR"] = str(cache_dir)
        env.update(env_extra or {})
        command = [
            sys.executable, "-m", "perfbench.worker", "--workload", workload,
            "--seed", str(seed), "--cache-dir", str(cache_dir), *flags,
        ]
        if self.inject_failure:
            command.append("--inject-failure")
        stderr_path = cache_dir / "stderr.txt"
        with open(stderr_path, "w") as stderr:
            started = time.perf_counter()
            proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=stderr)
            try:
                lines = []
                setup = None
                while True:
                    remaining = self.deadline - time.monotonic()
                    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
                    if not ready:
                        raise BenchError(f"{workload} worker timed out")
                    line = proc.stdout.readline()
                    if not line:
                        break
                    if line.strip() == "READY" and setup is None:
                        setup = time.perf_counter() - started
                        try:
                            proc.stdin.write("stop\n" if setup_only else "go\n")
                            proc.stdin.close()
                        except BrokenPipeError:
                            pass  # the worker died; its exit code says why
                    else:
                        lines.append(line)
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
                if not proc.stdin.closed:
                    proc.stdin.close()
        if proc.returncode != 0 or setup is None:
            tail = stderr_path.read_text()[-2000:]
            raise BenchError(
                f"{workload} worker exited {proc.returncode}:\n{tail}"
            )
        result = json.loads(lines[-1]) if lines else None
        return setup, result


def _mean(values):
    return sum(values) / len(values)


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end run: set-up samples, then one timed window."""
    setups = []
    while len(setups) < SETUP_SAMPLES - 1 and not (
        len(setups) >= SETUP_MIN_SAMPLES - 1
        and sum(setups) >= SETUP_BUDGET_S
    ):
        setup, _ = runner.worker(workload, seed, setup_only=True)
        setups.append(setup)
    setup, result = runner.worker(workload, seed, "--seconds", str(seconds),
                                  "--sample-checks")
    setups.append(setup)
    latencies = result["latencies"]
    raw = result["raw_latencies"]
    if not latencies:
        raise BenchError(f"{workload}: no op completed")
    ops = len(latencies)
    p90 = stats.reportable_percentile(latencies, 90)
    return {
        "result": result,
        "metrics": {
            "setup_s": statistics.median(setups) * result["wall"] / result["raw_wall"],
            "ops_per_s": ops / result["wall"],
            "p50_ms": statistics.median(latencies) * 1e3,
            "cpu_ms_per_op": result["cpu"] / ops * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "raw": {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops / result["raw_wall"],
            "p50_ms": statistics.median(raw) * 1e3,
            "cpu_ms_per_op": result["raw_cpu"] / ops * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "extra": {
            "p90_ms": None if p90 is None else p90 * 1e3,
            "samples": ops,
            "error_rate": result["failed"] / result["attempted"],
        },
    }


def trace(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """The traced run: untraced reference, traced replay of the same ops."""
    _, reference = runner.worker(workload, seed, "--seconds", str(seconds))
    ops = len(reference["latencies"])
    if not ops:
        raise BenchError(f"{workload}: no op completed")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    _, traced = runner.worker(workload, seed, "--ops", str(ops), "--traced",
                              "--spans-out", str(spans_path))
    results = [reference, traced]
    layers = dict(traced["layers"])
    untraced_op = _mean(reference["latencies"])
    traced_op = _mean(traced["latencies"])
    layers["bench.untraced_op_s"] = untraced_op
    layers["bench.traced_op_s"] = traced_op
    layers["bench.trace_overhead_ratio"] = traced_op / untraced_op
    if workload == "sweep_cold":
        _, quiet = runner.worker(workload, seed, "--ops", str(ops),
                                 env_extra={"DEAR_TELEMETRY": "0"})
        results.append(quiet)
        layers["telemetry.overhead_s"] = untraced_op - _mean(quiet["latencies"])
    return {
        "results": results,
        "layers": layers,
        "ops": ops,
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


def run_one(runner: Runner, workload: str, seed: int, seconds: float,
            traced: bool, prefix: str = "") -> tuple[dict, int, int]:
    """Run one workload; print its lines; returns (metrics, attempted, failed)."""
    label = prefix or workload
    if not traced:
        outcome = measure(runner, workload, seed, seconds)
        results = [outcome["result"]]
        metrics = {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        for name, entry in metrics.items():
            print(f"{label}: {name} = {entry['value']:.6g} {entry['unit']} "
                  f"(raw {outcome['raw'][name]:.6g})")
        extra = outcome["extra"]
        if extra["p90_ms"] is None:
            print(f"{label}: p90_ms = n/a ({extra['samples']} samples; "
                  f"fewer than {stats.MIN_BEYOND} lie beyond p90)")
        else:
            print(f"{label}: p90_ms = {extra['p90_ms']:.6g} ms "
                  f"({extra['samples']} samples)")
        print(f"{label}: error_rate = {extra['error_rate']:.6g} fraction")
    else:
        outcome = trace(runner, workload, seed, seconds)
        results = outcome["results"]
        layers = outcome["layers"]
        for name in sorted(layers):
            print(f"{label}: {name} = {layers[name]:.6g}")
        print(f"{label}: spans written to {outcome['spans_path']}")
        breakdown_path = OUT_DIR / f"{workload}-seed{seed}-layers.json"
        breakdown_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "ops": outcome["ops"],
            "provenance": provenance(), "layers": layers,
        }, indent=2, sort_keys=True) + "\n")
        missing = [name for name in PER_LAYER if name not in layers]
        if missing:
            raise BenchError(f"{workload}: per-layer metrics missing: {missing}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    for result in results:
        for error in result["errors"]:
            print(f"{label}: CHECK FAILED: {error}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt the first output of every window, to show "
                             "that a failed check makes the run exit 1")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    errors = environment_errors(os.environ)
    if errors:
        print("perfbench: refusing to run with " + "; ".join(errors), file=sys.stderr)
        return 2

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = RUNS_DIR / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    per_run = RUN_DEADLINE_S if len(names) == 1 else 4 * RUN_DEADLINE_S
    runner = Runner(run_dir, time.monotonic() + per_run, args.inject_failure)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            prefix = name if len(names) > 1 else ""
            found, tried, bad = run_one(runner, name, args.seed, args.seconds,
                                        bool(args.trace), prefix=prefix)
            for key, entry in found.items():
                metrics[f"{name}/{key}" if prefix else key] = entry
            attempted += tried
            failed += bad
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

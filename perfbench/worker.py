"""One benchmark process: set up a workload, run its timed window, check.

Started by ``perfbench/run.py``, never by hand.  It prints ``READY``
the moment set-up (imports, autotuner tables, cache prefill, one
warm-up op) is done — the parent times set-up from spawn to that line —
and waits for one line on stdin: ``stop`` ends a set-up sample, ``go``
runs the timed window, checks every output outside the window, and
prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from perfbench import tracing, workloads

#: Span name -> per-layer metric name, where they differ.
_METRIC_OF_SPAN = {
    "runner.run_many": "runner.residual_s",
    "bench.op": "op.residual_s",
}


def metric_of_span(name: str) -> str:
    return _METRIC_OF_SPAN.get(name, name + "_s")


def _ratio(numerator: float, denominator: float):
    return numerator / denominator if denominator else None


def breakdown(window, spans, counts: dict, ops: int) -> dict:
    """Per-layer self seconds per op, plus the counter ratios.

    Times are put on the reference-speed scale with the window's factor,
    so they add up to the (scaled) traced op time.
    """
    timed = [s for s in spans if s.op is not None and s.op >= 0]
    layers = {
        metric_of_span(name): seconds / ops * window.factor
        for name, seconds in tracing.layer_seconds(timed).items()
    }
    # Closure: every op's span self times add up to its wall time.
    selfs = tracing.self_times(timed)
    worst = 0.0
    for root in (s for s in timed if s.parent is None):
        total = sum(selfs[s.id] for s in timed if s.op == root.op)
        worst = max(worst, abs(total - (root.end - root.start)))
    layers["bench.closure_error_s"] = worst
    setup_builds = [s for s in spans if s.name == "network.autotuner.build"]
    if setup_builds:
        layers["network.autotuner.build_s"] = statistics.median(
            [s.end - s.start for s in setup_builds])
    fingerprints = sum(1 for s in timed if s.name == "runner.spec.fingerprint")
    layers["runner.spec.fingerprint_calls"] = fingerprints / ops
    layers.update(_counter_ratios(window.counters, ops))
    if counts.get("bayesopt.evals"):
        layers["bayesopt.evals"] = counts["bayesopt.evals"] / ops
    return layers


def _counter_ratios(counters: dict, ops: int) -> dict:
    out = {}
    hits, misses = counters.get("cache.hits", 0.0), counters.get("cache.misses", 0.0)
    ratios = {
        "runner.cache.hit_ratio": _ratio(hits, hits + misses),
        "runner.batched.share": _ratio(counters.get("batched.batched", 0.0),
                                       counters.get("specs.computed", 0.0)),
        "runner.batched.group_size": _ratio(counters.get("group_size.sum", 0.0),
                                            counters.get("group_size.count", 0.0)),
        "network.costmodel.memo_hit_ratio": _ratio(
            counters.get("costmodel.memo_hits", 0.0),
            counters.get("costmodel.queries", 0.0)),
        "serve.batch_size_mean": _ratio(counters.get("batch_size.sum", 0.0),
                                        counters.get("batch_size.count", 0.0)),
    }
    out.update({name: value for name, value in ratios.items() if value is not None})
    return out


def serve_breakdown(window, spans: list, ops: int) -> dict:
    """Server-side layer self times per request, residual = round trip - sum."""
    inside = [s for s in spans if s.start >= window.started and s.end <= window.ended]
    layers = {
        metric_of_span(name): seconds / ops * window.factor
        for name, seconds in tracing.layer_seconds(inside).items()
    }
    round_trip = sum(window.latencies) / len(window.latencies)
    layers["serve.round_trip_s"] = round_trip
    layers["serve.residual_s"] = round_trip - sum(
        value for name, value in layers.items()
        if name not in ("serve.round_trip_s", "serve.residual_s"))
    layers["bench.closure_error_s"] = 0.0
    layers["runner.spec.fingerprint_calls"] = sum(
        1 for s in inside if s.name == "runner.spec.fingerprint") / ops
    layers.update(_counter_ratios(window.counters, ops))
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of a timed window")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="traced runs: write every span here as JSON")
    parser.add_argument("--sample-checks", action="store_true",
                        help="also recompute a seeded sample on the event kernel")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt the first output before the checks")
    args = parser.parse_args(argv)

    recorder = None
    uninstall = None
    server_spans = None
    if args.traced:
        recorder = tracing.Recorder()
        if args.workload == "serve_warm":
            server_spans = os.path.join(args.cache_dir, "server-spans.json")
        else:
            uninstall = tracing.install(recorder)
    workload = workloads.make_workload(
        args.workload, args.seed, args.cache_dir, recorder=recorder,
        spans_out=server_spans,
    )
    try:
        workload.setup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        window = workload.run_window(args.seconds, args.ops)
        if uninstall is not None:
            uninstall()
        if args.inject_failure and window.records:
            workload.spoil(window)
        workload.check(window, sample=args.sample_checks)
    finally:
        workload.teardown()

    ops = len(window.latencies)
    out = {
        "attempted": window.attempted,
        "failed": len(window.failed_ops),
        "errors": window.errors[:20],
        "latencies": window.latencies,
        "raw_latencies": window.raw_latencies,
        "wall": window.wall,
        "raw_wall": window.raw_wall,
        "cpu": window.cpu,
        "raw_cpu": window.raw_cpu,
        "peak_rss_mb": window.peak_rss_mb,
        "counters": window.counters,
    }
    if args.traced and ops:
        if args.workload == "serve_warm":
            with open(server_spans) as handle:
                spans = [tracing.Span(**span) for span in json.load(handle)]
            out["layers"] = serve_breakdown(window, spans, ops)
        else:
            out["layers"] = breakdown(window, recorder.spans, recorder.counts, ops)
            spans = recorder.spans
        out["spans"] = len(spans)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump([span.as_dict() for span in spans], handle)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

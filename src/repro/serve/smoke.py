"""Concurrency smoke test for ``dear-repro serve``.

``python -m repro.serve.smoke`` fires a wave of concurrent simulate
requests — a mix of unique configs and repeats — at a running daemon
(``--url``; CI starts one in the background) or at an in-process server
on an ephemeral port with a throwaway cache (no flag, for local runs).
It then proves the service path end to end from the metrics snapshot:

- every unique config was *computed exactly once*
  (``runner.specs{outcome=computed}`` delta == unique configs);
- every repeat was answered without recomputing, via in-flight dedup
  (``serve.dedup_hits``), runner dedup, or the content-addressed cache;
- requests were micro-batched (strictly fewer batches than requests);
- repeat waves after the burst are pure cache hits;
- a lone sequential request closes its batch window early, as idle
  (``serve.window_closes{reason="idle"}``);
- responses for identical payloads are byte-identical;
- a heterogeneous request (``compute_scales``, one straggling rank) is
  answered with the fingerprint and result of the same
  ``RunSpec.create(...).run()`` in this process.

The full metrics snapshot and the assertion results are written to a
JSON report (``--out``) that CI uploads as an artifact.  With
``--shutdown`` the harness also drives ``POST /v1/shutdown`` and waits
for the listener to die, proving a clean drain.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.serve.client import ServeClient

__all__ = ["main"]

#: Schedulers exercised by the smoke mix; all batch on the fast path.
SMOKE_SCHEDULERS = ("wfbp", "dear", "ddp", "mg_wfbp")

#: The heterogeneous request: DeAR on the 64-GPU 10GbE testbed with
#: rank 0 computing 1.5x slower.
HETEROGENEOUS_PAYLOAD = {
    "scheduler": "dear",
    "model": "resnet50",
    "cluster": "10gbe",
    "compute_scales": [1.5] + [1.0] * 63,
}


def build_payloads(requests: int) -> tuple[list[dict], int]:
    """The request mix: unique configs cycled so ~3/4 are repeats."""
    unique = [
        {
            "scheduler": scheduler,
            "model": "resnet50",
            "cluster": "10gbe",
            "iterations": iterations,
        }
        for scheduler in SMOKE_SCHEDULERS
        for iterations in (5, 8)
    ]
    unique = unique[: max(1, min(len(unique), requests))]
    payloads = [unique[i % len(unique)] for i in range(requests)]
    return payloads, len(unique)


def counter_delta(before: dict, after: dict, name: str, **labels) -> float:
    """Delta of a counter family, summed over children matching ``labels``."""

    def total(snapshot: dict) -> float:
        family = snapshot.get(name)
        if not family:
            return 0.0
        return sum(
            entry["value"]
            for entry in family["values"]
            if all(entry["labels"].get(k) == v for k, v in labels.items())
        )

    return total(after) - total(before)


def heterogeneous_matches_in_process(client: ServeClient) -> bool:
    """Whether the served heterogeneous reply equals a local run."""
    from repro.runner.cache import result_to_dict
    from repro.runner.spec import RunSpec

    served = client.simulate(HETEROGENEOUS_PAYLOAD)
    spec = RunSpec.create(**HETEROGENEOUS_PAYLOAD)
    local = json.loads(json.dumps(result_to_dict(spec.run())))
    return served["fingerprint"] == spec.fingerprint and served["result"] == local


def wait_until_down(client: ServeClient, timeout: float = 30.0) -> bool:
    """True once the listener stops answering (post-shutdown)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.health()
        # A probe racing the exiting listener can also see a truncated
        # reply (``IncompleteRead``), which is not an ``OSError``.
        except (urllib.error.URLError, OSError, http.client.HTTPException):
            return True
        time.sleep(0.1)
    return False


def run_smoke(
    url: str, requests: int, report_path: Optional[str], shutdown: bool
) -> int:
    client = ServeClient(url)
    health = client.health()
    print(f"serve healthy at {url}: {health}", flush=True)
    payloads, unique = build_payloads(requests)
    before = client.metrics()

    with ThreadPoolExecutor(max_workers=min(requests, 16)) as pool:
        responses = list(pool.map(client.simulate, payloads))

    # Repeat wave: same configs again, sequentially — all cache hits.
    before_repeat = client.metrics()
    repeat_wave = [client.simulate(payload) for payload in payloads[:unique]]
    after = client.metrics()

    by_key = {}
    for payload, response in zip(payloads, responses):
        key = json.dumps(payload, sort_keys=True)
        body = json.dumps(response, sort_keys=True)
        by_key.setdefault(key, body)

    computed = counter_delta(before, after, "runner.specs", outcome="computed")
    cached = counter_delta(before, after, "runner.specs", outcome="cached")
    deduped = counter_delta(before, after, "runner.specs", outcome="deduped")
    dedup_hits = counter_delta(before, after, "serve.dedup_hits")
    batches = counter_delta(before, after, "serve.batches")
    ok_requests = counter_delta(
        before, after, "serve.requests", endpoint="simulate", status="200"
    )
    errors = counter_delta(before, after, "serve.errors")
    idle_closes = counter_delta(
        before_repeat, after, "serve.window_closes", reason="idle"
    )
    total = len(payloads) + len(repeat_wave)

    checks = {
        "all_responses_ok": all("result" in r for r in responses + repeat_wave),
        "identical_payloads_identical_responses": all(
            json.dumps(r, sort_keys=True)
            == by_key[json.dumps(p, sort_keys=True)]
            for p, r in zip(payloads, responses)
        )
        and all(
            json.dumps(r, sort_keys=True)
            == by_key[json.dumps(p, sort_keys=True)]
            for p, r in zip(payloads[:unique], repeat_wave)
        ),
        "computed_exactly_once_per_unique": computed == unique,
        "repeats_never_recomputed": cached + deduped + dedup_hits == total - unique,
        "requests_micro_batched": 1 <= batches < total,
        "all_http_200": ok_requests == total,
        "no_server_errors": errors == 0,
        "sequential_windows_close_idle": idle_closes >= 1,
        "heterogeneous_matches_in_process": heterogeneous_matches_in_process(
            client
        ),
    }

    report = {
        "url": url,
        "requests": total,
        "unique_configs": unique,
        "counters": {
            "computed": computed,
            "cached": cached,
            "deduped": deduped,
            "dedup_hits": dedup_hits,
            "batches": batches,
            "http_200": ok_requests,
            "errors": errors,
            "idle_window_closes": idle_closes,
        },
        "checks": checks,
        "metrics": after,
    }

    if shutdown:
        client.shutdown()
        report["clean_shutdown"] = checks["clean_shutdown"] = wait_until_down(client)

    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {report_path}", flush=True)

    for name, passed in checks.items():
        print(f"  {'PASS' if passed else 'FAIL'}  {name}", flush=True)
    print(
        f"smoke: {total} requests / {unique} unique -> "
        f"{computed:g} computed, {dedup_hits:g} dedup, "
        f"{cached + deduped:g} cache/runner hits, {batches:g} batches",
        flush=True,
    )
    return 0 if all(checks.values()) else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="Fire concurrent mixed-repeat requests at dear-repro "
        "serve and assert batching, dedup, and cache behaviour.",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running server; omit to spawn one in-process",
    )
    parser.add_argument(
        "--requests", type=int, default=32, help="size of the concurrent wave"
    )
    parser.add_argument(
        "--out", default="serve-smoke.json", help="metrics report path ('' skips)"
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="drive POST /v1/shutdown at the end and assert a clean drain",
    )
    args = parser.parse_args(argv)

    if args.url is not None:
        return run_smoke(args.url, args.requests, args.out or None, args.shutdown)

    # Self-contained mode: in-process server, ephemeral port, fresh cache.
    import tempfile

    from repro.runner.cache import ResultCache
    from repro.serve.daemon import SimulationServer

    with tempfile.TemporaryDirectory(prefix="dear-serve-smoke-") as tmp:
        server = SimulationServer(port=0, cache=ResultCache(tmp)).start()
        try:
            return run_smoke(server.url, args.requests, args.out or None, True)
        finally:
            server.shutdown()


if __name__ == "__main__":
    sys.exit(main())

"""Service-path tests: daemon lifecycle, batching, dedup, wire protocol.

Each test runs a real :class:`SimulationServer` on an ephemeral port
with a throwaway cache, drives it over HTTP with the stdlib client, and
reads the outcome from the shared metrics registry — the same signals
the CI serve-smoke job asserts on.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runner.cache import ResultCache
from repro.serve import ServeClient, ServeError, SimulationServer
from repro.telemetry.registry import default_registry

PAYLOAD = {
    "scheduler": "wfbp",
    "model": "resnet50",
    "cluster": "10gbe",
    "iterations": 4,
}


@pytest.fixture()
def server(tmp_path):
    instance = SimulationServer(
        port=0,
        cache=ResultCache(root=tmp_path / "serve-cache"),
        batch_window=0.02,
        jobs=1,
    ).start()
    yield instance
    instance.shutdown()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=120.0)


def _counter(name: str, **labels) -> float:
    family = default_registry().snapshot().get(name)
    if not family:
        return 0.0
    return sum(
        entry["value"]
        for entry in family["values"]
        if all(entry["labels"].get(k) == v for k, v in labels.items())
    )


class TestEndpoints:
    def test_health(self, client, server):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["batch_window"] == server.batcher.batch_window

    def test_simulate_roundtrip(self, client):
        response = client.simulate(PAYLOAD)
        assert response["label"].startswith("wfbp/resnet50/")
        assert len(response["fingerprint"]) == 64
        result = response["result"]
        assert result["iteration_time"] > 0
        assert len(result["iteration_times"]) == 4 - 1  # warmup dropped

    def test_simulate_with_faults(self, client):
        payload = dict(PAYLOAD)
        payload["faults"] = {
            "stragglers": [{"start": 0.0, "end": 5.0, "compute_factor": 1.5}]
        }
        faulty = client.simulate(payload)["result"]
        healthy = client.simulate(PAYLOAD)["result"]
        assert "fault_plan" in faulty["extras"]
        assert faulty["iteration_time"] > healthy["iteration_time"]

    def test_metrics_snapshot(self, client):
        client.simulate(PAYLOAD)
        metrics = client.metrics()
        assert "serve.requests" in metrics
        assert "serve.batches" in metrics

    def test_unknown_endpoint_404(self, client, server):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404


class TestWireValidation:
    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({**PAYLOAD, "fastpath": True}, "unknown config fields"),
            ({"scheduler": "wfbp"}, "missing required fields"),
            ({**PAYLOAD, "scheduler": "nope"}, "unknown scheduler"),
            ({**PAYLOAD, "options": 7}, "options must be an object"),
        ],
    )
    def test_bad_payloads_answer_400(self, client, payload, fragment):
        with pytest.raises(ServeError) as excinfo:
            client.simulate(payload)
        assert excinfo.value.status == 400
        assert fragment in excinfo.value.message

    def test_non_json_body_answers_400(self, client, server):
        request = urllib.request.Request(
            f"{server.url}/v1/simulate", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400


class TestBatchingAndDedup:
    def test_identical_concurrent_requests_compute_once(self, client):
        computed_before = _counter("runner.specs", outcome="computed")
        dedup_before = _counter("serve.dedup_hits")
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(client.simulate, [PAYLOAD] * 8))
        assert _counter("runner.specs", outcome="computed") - computed_before == 1
        shared = _counter("serve.dedup_hits") - dedup_before
        cache_like = 7 - shared  # remainder came from runner dedup / cache
        assert shared >= 0 and cache_like >= 0
        bodies = {json.dumps(r, sort_keys=True) for r in responses}
        assert len(bodies) == 1

    def test_mixed_requests_batch(self, client):
        batches_before = _counter("serve.batches")
        payloads = [
            {**PAYLOAD, "scheduler": scheduler, "iterations": iterations}
            for scheduler in ("wfbp", "ddp")
            for iterations in (4, 5)
        ] * 2
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(client.simulate, payloads))
        assert all("result" in r for r in responses)
        batches = _counter("serve.batches") - batches_before
        assert 1 <= batches < len(payloads)

    def test_repeat_after_drain_hits_cache(self, client):
        hits_before = _counter("runner.cache.hits")
        first = client.simulate(PAYLOAD)
        second = client.simulate(PAYLOAD)
        assert _counter("runner.cache.hits") - hits_before >= 1
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestFailureIsolation:
    """A spec that fails to compute fails only its own requests."""

    #: Passes wire validation, then raises TypeError in the scheduler.
    BAD = {**PAYLOAD, "options": {"bogus": 1}}

    @pytest.fixture()
    def slow_window(self, tmp_path):
        instance = SimulationServer(
            port=0,
            cache=ResultCache(root=tmp_path / "serve-cache"),
            batch_window=0.5,
            jobs=1,
        ).start()
        yield ServeClient(instance.url, timeout=120.0)
        instance.shutdown()

    @staticmethod
    def _status(client, payload):
        try:
            client.simulate(payload)
        except ServeError as exc:
            return exc.status
        return 200

    def test_bad_spec_does_not_fail_its_batch(self, slow_window):
        batches_before = _counter("serve.batches")
        errors_before = _counter("serve.errors", stage="compute")
        payloads = [PAYLOAD, self.BAD, self.BAD]
        with ThreadPoolExecutor(max_workers=3) as pool:
            statuses = list(pool.map(
                lambda payload: self._status(slow_window, payload), payloads
            ))
        assert statuses == [200, 500, 500]
        assert _counter("serve.batches") - batches_before == 1
        assert _counter("serve.errors", stage="compute") - errors_before == 2
        # The good spec's result was computed and cached despite its
        # neighbour: a repeat is a plain hit.
        assert self._status(slow_window, PAYLOAD) == 200


class TestCancelledRequests:
    """A request that timed out is withdrawn, not computed for nobody."""

    def test_timed_out_spec_is_never_computed(self, tmp_path, monkeypatch):
        from repro.api import config_from_payload
        from repro.serve import daemon

        first_batch_started = threading.Event()
        release_first_batch = threading.Event()
        computed: list[list[str]] = []
        real_run_many = daemon.run_many

        def spy(specs, **kwargs):
            computed.append([spec.fingerprint for spec in specs])
            if len(computed) == 1:
                first_batch_started.set()
                release_first_batch.wait(timeout=60.0)
            return real_run_many(specs, **kwargs)

        monkeypatch.setattr(daemon, "run_many", spy)
        server = SimulationServer(
            port=0, cache=ResultCache(root=tmp_path / "serve-cache"),
            batch_window=0.0, jobs=1, request_timeout=0.2,
        ).start()
        client = ServeClient(server.url, timeout=60.0)
        slow = {**PAYLOAD, "iterations": 3}
        orphan = {**PAYLOAD, "iterations": 5}
        shared = {**PAYLOAD, "iterations": 6}

        def status(payload):
            try:
                client.simulate(payload)
            except ServeError as exc:
                return exc.status
            return 200

        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                # The first batch blocks the batcher; everything sent
                # meanwhile queues behind it and times out.
                first = pool.submit(status, slow)
                assert first_batch_started.wait(timeout=60.0)
                timed_out = list(pool.map(status, [orphan, shared]))
                assert timed_out == [504, 504]
                # A live waiter for one of the withdrawn specs.
                live = server.batcher.submit(config_from_payload(shared).to_spec())
                release_first_batch.set()
                result = live.result(timeout=60.0)
                first.result(timeout=60.0)
        finally:
            release_first_batch.set()
            server.shutdown()

        def fingerprint(payload):
            return config_from_payload(payload).to_spec().fingerprint

        assert result.iteration_time > 0
        assert computed == [[fingerprint(slow)], [fingerprint(shared)]]
        assert fingerprint(orphan) not in {fp for batch in computed for fp in batch}


class TestShutdown:
    def test_drain_then_refuse(self, server, client):
        client.simulate(PAYLOAD)  # in-flight work before the drain
        assert client.shutdown()["status"] == "draining"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                client.health()
                time.sleep(0.05)
            except (urllib.error.URLError, ConnectionError, OSError):
                break
        else:
            pytest.fail("listener still answering after shutdown")
        with pytest.raises(RuntimeError, match="draining"):
            server.batcher.submit(object())

    def test_shutdown_is_idempotent(self, server, client):
        client.simulate(PAYLOAD)
        server.shutdown()
        server.shutdown()

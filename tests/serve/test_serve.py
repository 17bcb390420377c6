"""Service-path tests: daemon lifecycle, batching, dedup, wire protocol.

Each test runs a real :class:`SimulationServer` on an ephemeral port
with a throwaway cache, drives it over HTTP with the stdlib client, and
reads the outcome from the shared metrics registry — the same signals
the CI serve-smoke job asserts on.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import config_from_payload
from repro.runner.cache import ResultCache
from repro.runner.cache_cmd import scan_store
from repro.serve import ServeClient, ServeError, SimulationServer, daemon
from repro.serve.smoke import wait_until_down
from repro.telemetry.registry import default_registry

PAYLOAD = {
    "scheduler": "wfbp",
    "model": "resnet50",
    "cluster": "10gbe",
    "iterations": 4,
}


def _start_server(tmp_path, **kwargs) -> SimulationServer:
    """A one-job server on an ephemeral port with a throwaway cache."""
    return SimulationServer(
        port=0, cache=ResultCache(root=tmp_path / "serve-cache"), jobs=1, **kwargs
    ).start()


@pytest.fixture()
def server(tmp_path):
    instance = _start_server(tmp_path, batch_window=0.02)
    yield instance
    instance.shutdown()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=120.0)


def _fingerprint(payload: dict) -> str:
    return config_from_payload(payload).to_spec().fingerprint


def _status(client, payload) -> int:
    try:
        client.simulate(payload)
    except ServeError as exc:
        return exc.status
    return 200


def _wait_for(condition, timeout: float = 60.0) -> None:
    """Poll until ``condition()`` holds; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail("condition never held")
        time.sleep(0.001)


class RunManySpy:
    """Records each batch the daemon computes; can hold the first one.

    With ``hold=True`` the first ``run_many`` call blocks (``started``
    is set) until ``release`` is set, so requests sent meanwhile queue
    up behind it — a deterministic way to build a shared batch.
    """

    def __init__(self, monkeypatch, hold: bool = False) -> None:
        self.calls: list[list[str]] = []
        self.started = threading.Event()
        self.release = threading.Event()
        if not hold:
            self.release.set()
        real_run_many = daemon.run_many

        def spy(specs, **kwargs):
            self.calls.append([spec.fingerprint for spec in specs])
            if len(self.calls) == 1:
                self.started.set()
                self.release.wait(timeout=60.0)
            return real_run_many(specs, **kwargs)

        monkeypatch.setattr(daemon, "run_many", spy)


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
        assert "serve.window_closes" in metrics
        for name in ("serve.request_seconds", "serve.queue_wait_seconds"):
            (child,) = metrics[name]["values"]
            assert child["count"] >= 1
            bounds = [bucket["le"] for bucket in child["buckets"]]
            assert bounds == list(daemon.LATENCY_BUCKETS) + ["+Inf"]

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

    @pytest.mark.parametrize(
        "payload",
        [
            {**PAYLOAD, "options": {"bogus": 1}},
            {**PAYLOAD, "options": {"fusion": "buffer"}},  # a dear option
            {**PAYLOAD, "options": {"fastpath": False}},
            {**PAYLOAD, "options": {"compute_scales": [1.0] * 64}},
            {**PAYLOAD, "options": {"fusion_buffer_bytes": 1e6}},
            {**PAYLOAD, "compute_scales": [1.0] * 64,
             "options": {"buffer_bytes": 1e6}},
            {**PAYLOAD, "compute_scales": [1.0] * 64,
             "options": {"collapse": False}},
            {**PAYLOAD, "options": {"trace": True}},
        ],
        ids=["typo", "other-scheduler", "engine", "field", "multirank-only",
             "single-rank-only", "collapse", "trace"],
    )
    def test_options_the_run_would_not_take_answer_400(self, client, payload):
        config_before = _counter("serve.errors", stage="config")
        compute_before = _counter("serve.errors", stage="compute")
        assert _status(client, payload) == 400
        assert _counter("serve.errors", stage="config") - config_before == 1
        assert _counter("serve.errors", stage="compute") == compute_before

    @pytest.mark.parametrize(
        "payload",
        [
            {**PAYLOAD, "scheduler": "ddp", "options": {"buffer_bytes": -1}},
            {**PAYLOAD, "scheduler": "bytescheduler", "options": {"credit": 0}},
            {**PAYLOAD, "compute_scales": [1.0] * 64,
             "options": {"fusion_buffer_bytes": -1}, "scheduler": "ddp"},
            {**PAYLOAD, "scheduler": "bytescheduler", "options": {"credit": 1.5}},
            {**PAYLOAD, "scheduler": "bytescheduler",
             "options": {"partition_bytes": float("nan")}},
            {**PAYLOAD, "scheduler": "ddp", "options": {"buffer_bytes": float("nan")}},
        ],
        ids=["ddp-bucket", "bytescheduler-credit", "multirank-bucket",
             "bytescheduler-fractional-credit", "bytescheduler-nan-partition",
             "ddp-nan-bucket"],
    )
    def test_option_values_the_scheduler_rejects_answer_400(self, client, payload):
        config_before = _counter("serve.errors", stage="config")
        compute_before = _counter("serve.errors", stage="compute")
        with pytest.raises(ServeError) as excinfo:
            client.simulate(payload)
        assert excinfo.value.status == 400
        assert "bad options" in excinfo.value.message
        assert _counter("serve.errors", stage="config") - config_before == 1
        assert _counter("serve.errors", stage="compute") == compute_before

    def test_multirank_options_accepted_with_scales(self, client):
        payload = {**PAYLOAD, "compute_scales": [1.0] * 64,
                   "options": {"fusion_buffer_bytes": 1e6}}
        assert _status(client, payload) == 200

    def test_zero_planning_scale_of_a_workload_run_answers_400(self, client):
        """Rank 0 plans a workload DAG's kernels, so a run that does not
        collapse needs a positive scale there; uniform zero scales
        collapse to one rank and run."""
        config_before = _counter("serve.errors", stage="config")
        compute_before = _counter("serve.errors", stage="compute")
        payload = {**PAYLOAD, "workload": "moe"}
        skewed = {**payload, "compute_scales": [0.0] + [1.0] * 63}
        with pytest.raises(ServeError) as excinfo:
            client.simulate(skewed)
        assert excinfo.value.status == 400
        assert "planning rank" in excinfo.value.message
        assert _counter("serve.errors", stage="config") - config_before == 1
        assert _status(client, {**payload, "compute_scales": [0.0] * 64}) == 200
        assert _counter("serve.errors", stage="compute") == compute_before

    @pytest.mark.parametrize(
        "scales",
        [
            [1.0] * 3,
            [-1.0] + [1.0] * 63,
            [float("nan")] + [1.0] * 63,
            [10 ** 400] + [1.0] * 63,
            [True] * 64,
            ["1.5"] + [1.0] * 63,
            1.5,
        ],
        ids=["length", "negative", "nan", "overflow", "bool", "string", "scalar"],
    )
    def test_bad_compute_scales_answer_400(self, client, scales):
        config_before = _counter("serve.errors", stage="config")
        assert _status(client, {**PAYLOAD, "compute_scales": scales}) == 400
        assert _counter("serve.errors", stage="config") - config_before == 1

    @pytest.mark.parametrize(
        "faults",
        [
            {"stragglers": [{"start": 0.0, "end": 1.0,
                             "compute_factor": float("nan")}]},
            {"stragglers": [{"start": float("nan"), "end": 1.0}]},
            {"link_faults": [{"start": 0.0, "end": 1.0,
                              "beta_factor": float("nan")}]},
            {"link_faults": [{"start": 0.0, "end": float("nan")}]},
        ],
        ids=["compute-factor", "start", "beta-factor", "end"],
    )
    def test_nan_fault_plans_answer_400(self, client, faults):
        """``json.loads`` accepts ``NaN``; the plan must not."""
        config_before = _counter("serve.errors", stage="config")
        computed_before = _counter("runner.specs", outcome="computed")
        assert _status(client, {**PAYLOAD, "faults": faults}) == 400
        assert _counter("serve.errors", stage="config") - config_before == 1
        assert _counter("runner.specs", outcome="computed") == computed_before

    @pytest.mark.parametrize(
        "field,value",
        [
            ("faults", 3),
            ("batch_size", "x"),
            ("iterations", "5"),
            ("iterations", -1),
            ("algorithm", 5),
            ("iteration_compute", "a"),
        ],
    )
    def test_mistyped_fields_answer_400_and_release_the_window(
        self, tmp_path, field, value
    ):
        server = _start_server(tmp_path, batch_window=30.0)
        try:
            client = ServeClient(server.url, timeout=120.0)
            errors_before = _counter("serve.errors", stage="config")
            assert _status(client, {**PAYLOAD, field: value}) == 400
            assert _counter("serve.errors", stage="config") - errors_before == 1
            assert server.batcher.arriving_count == 0
            # The rejected request left the arriving count: a lone good
            # request closes its window as idle, not at the deadline.
            idle_before = _counter("serve.window_closes", reason="idle")
            deadline_before = _counter("serve.window_closes", reason="deadline")
            assert _status(client, PAYLOAD) == 200
            assert _counter("serve.window_closes", reason="idle") - idle_before == 1
            assert _counter("serve.window_closes", reason="deadline") == deadline_before
        finally:
            server.shutdown()

    def test_non_json_body_answers_400(self, client, server):
        request = urllib.request.Request(
            f"{server.url}/v1/simulate", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400


    def test_negative_content_length_answers_400_at_once(self, tmp_path):
        server = _start_server(tmp_path, batch_window=30.0)
        try:
            errors_before = _counter("serve.errors", stage="parse")
            with socket.create_connection(server.address, timeout=30.0) as raw:
                raw.sendall(
                    b"POST /v1/simulate HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                status_line = raw.makefile("rb").readline()
                assert status_line.split()[1] == b"400"
                assert _counter("serve.errors", stage="parse") - errors_before == 1
                _wait_for(lambda: server.batcher.arriving_count == 0)
                # While that connection is open, a lone request still
                # closes its window as idle, not at the 30 s deadline.
                idle_before = _counter("serve.window_closes", reason="idle")
                client = ServeClient(server.url, timeout=120.0)
                assert _status(client, PAYLOAD) == 200
                assert _counter("serve.window_closes", reason="idle") - idle_before == 1
        finally:
            server.shutdown()


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


class TestBatchWindow:
    """The window closes once no request is arriving; load still batches."""

    def test_lone_request_does_not_wait_the_window(self, tmp_path):
        server = _start_server(tmp_path, batch_window=5.0)
        try:
            client = ServeClient(server.url, timeout=120.0)
            idle_before = _counter("serve.window_closes", reason="idle")
            started = time.monotonic()
            client.simulate(PAYLOAD)
            elapsed = time.monotonic() - started
        finally:
            server.shutdown()
        assert elapsed < 2.5
        assert _counter("serve.window_closes", reason="idle") - idle_before == 1

    def test_requests_queued_under_load_share_one_batch(self, tmp_path, monkeypatch):
        spy = RunManySpy(monkeypatch, hold=True)
        server = _start_server(tmp_path, batch_window=5.0)
        client = ServeClient(server.url, timeout=120.0)
        blocker = {**PAYLOAD, "iterations": 3}
        queued = [{**PAYLOAD, "iterations": n} for n in (5, 6, 7, 8)]
        try:
            with ThreadPoolExecutor(max_workers=1 + len(queued)) as pool:
                first = pool.submit(_status, client, blocker)
                assert spy.started.wait(timeout=60.0)
                rest = [pool.submit(_status, client, p) for p in queued]
                _wait_for(lambda: server.batcher.queue_depth == len(queued))
                spy.release.set()
                statuses = [first.result()] + [f.result() for f in rest]
        finally:
            spy.release.set()
            server.shutdown()
        assert statuses == [200] * (1 + len(queued))
        assert len(spy.calls) == 2
        assert spy.calls[0] == [_fingerprint(blocker)]
        assert sorted(spy.calls[1]) == sorted(_fingerprint(p) for p in queued)

    def test_request_still_arriving_holds_the_batch(self, tmp_path, monkeypatch):
        spy = RunManySpy(monkeypatch)
        server = _start_server(tmp_path, batch_window=60.0)
        client = ServeClient(server.url, timeout=120.0)
        slow = {**PAYLOAD, "iterations": 5}
        prompt = {**PAYLOAD, "iterations": 6}
        body = json.dumps(slow).encode("utf-8")
        head = (
            "POST /v1/simulate HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        try:
            with socket.create_connection(server.address, timeout=60.0) as raw, \
                    ThreadPoolExecutor(max_workers=1) as pool:
                raw.sendall(head + body[:10])
                _wait_for(lambda: server.batcher.arriving_count == 1)
                answered = pool.submit(_status, client, prompt)
                _wait_for(lambda: server.batcher.queue_depth == 1)
                # The queued request waits for the one still being sent.
                assert server.batcher.arriving_count == 1
                assert spy.calls == []
                raw.sendall(body[10:])
                status_line = raw.makefile("rb").readline()
                assert answered.result(timeout=60.0) == 200
        finally:
            server.shutdown()
        assert status_line.split()[1] == b"200"
        assert len(spy.calls) == 1
        assert sorted(spy.calls[0]) == sorted(
            [_fingerprint(slow), _fingerprint(prompt)]
        )

    def test_arriving_count_survives_contention(self, monkeypatch):
        """Many threads entering and leaving ``arriving`` lose no update."""

        class Spec:
            def __init__(self, fingerprint):
                self.fingerprint = fingerprint

        monkeypatch.setattr(
            daemon, "run_many",
            lambda specs, **kwargs: [spec.fingerprint for spec in specs],
        )
        clients, requests = 8, 50
        batcher = daemon.RequestBatcher(batch_window=5.0)
        deadline_before = _counter("serve.window_closes", reason="deadline")

        def client(i):
            futures = []
            for j in range(requests):
                with batcher.arriving():
                    futures.append(batcher.submit(Spec(f"{i}-{j}")))
            return [future.result(timeout=60.0) for future in futures]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                answers = list(pool.map(client, range(clients)))
        finally:
            sys.setswitchinterval(previous)
            batcher.close()
        assert answers == [
            [f"{i}-{j}" for j in range(requests)] for i in range(clients)
        ]
        assert batcher.arriving_count == 0
        assert _counter("serve.window_closes", reason="deadline") == deadline_before


class TestFailureIsolation:
    """A spec that fails to compute fails only its own requests."""

    #: Passes wire validation; its run is made to raise below.
    BAD = {**PAYLOAD, "iterations": 5}

    def test_bad_spec_does_not_fail_its_batch(self, tmp_path, monkeypatch):
        bad = _fingerprint(self.BAD)
        run_many = daemon.run_many

        def failing(specs, **kwargs):
            if any(spec.fingerprint == bad for spec in specs):
                raise ValueError("the run of this spec fails")
            return run_many(specs, **kwargs)

        monkeypatch.setattr(daemon, "run_many", failing)
        # Hold the batcher on a first batch so the three requests below
        # queue up behind it and are drained as one shared batch.
        spy = RunManySpy(monkeypatch, hold=True)
        server = _start_server(tmp_path, batch_window=5.0)
        client = ServeClient(server.url, timeout=120.0)
        payloads = [PAYLOAD, self.BAD, self.BAD]
        try:
            with ThreadPoolExecutor(max_workers=1 + len(payloads)) as pool:
                blocker = pool.submit(_status, client, {**PAYLOAD, "iterations": 3})
                assert spy.started.wait(timeout=60.0)
                batches_before = _counter("serve.batches")
                errors_before = _counter("serve.errors", stage="compute")
                shared = [pool.submit(_status, client, p) for p in payloads]
                _wait_for(lambda: server.batcher.queue_depth == len(payloads))
                spy.release.set()
                statuses = [future.result() for future in shared]
                assert blocker.result() == 200
            assert statuses == [200, 500, 500]
            assert _counter("serve.batches") - batches_before == 1
            assert _counter("serve.errors", stage="compute") - errors_before == 2
            # The good spec's result was computed and cached despite its
            # neighbour: a repeat is a plain hit.
            assert _status(client, PAYLOAD) == 200
        finally:
            spy.release.set()
            server.shutdown()


class TestCancelledRequests:
    """A request that timed out is withdrawn, not computed for nobody."""

    def test_timed_out_spec_is_never_computed(self, tmp_path, monkeypatch):
        spy = RunManySpy(monkeypatch, hold=True)
        server = _start_server(tmp_path, batch_window=0.0, request_timeout=0.2)
        client = ServeClient(server.url, timeout=60.0)
        slow = {**PAYLOAD, "iterations": 3}
        orphan = {**PAYLOAD, "iterations": 5}
        shared = {**PAYLOAD, "iterations": 6}

        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                # The first batch blocks the batcher; everything sent
                # meanwhile queues behind it and times out.
                first = pool.submit(_status, client, slow)
                assert spy.started.wait(timeout=60.0)
                timed_out = list(pool.map(lambda p: _status(client, p), [orphan, shared]))
                assert timed_out == [504, 504]
                # A live waiter for one of the withdrawn specs.
                live = server.batcher.submit(config_from_payload(shared).to_spec())
                spy.release.set()
                result = live.result(timeout=60.0)
                first.result(timeout=60.0)
        finally:
            spy.release.set()
            server.shutdown()

        assert result.iteration_time > 0
        assert spy.calls == [[_fingerprint(slow)], [_fingerprint(shared)]]
        assert _fingerprint(orphan) not in {fp for batch in spy.calls for fp in batch}


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

    def test_drain_flushes_the_lifetime_counters(self, tmp_path):
        server = _start_server(tmp_path)
        client = ServeClient(server.url, timeout=120.0)
        client.simulate(PAYLOAD)
        client.simulate(PAYLOAD)
        server.shutdown()
        counters = scan_store(tmp_path / "serve-cache")["counters"]
        assert (counters["hits"], counters["misses"], counters["puts"]) == (1, 1, 1)

    def test_shutdown_is_idempotent(self, server, client):
        client.simulate(PAYLOAD)
        server.shutdown()
        server.shutdown()


class TestSmokeHarness:
    def test_truncated_reply_counts_as_down(self):
        """A health probe cut off mid-body means the listener is going."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def answer_headers_then_close():
            with listener:
                while True:
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        return
                    with conn:
                        conn.recv(65536)
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\n"
                            b"Content-Type: application/json\r\n"
                            b"Content-Length: 100\r\n\r\n"
                        )

        thread = threading.Thread(target=answer_headers_then_close, daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=10.0)
            assert wait_until_down(client, timeout=10.0)
        finally:
            listener.close()
            thread.join(timeout=10.0)

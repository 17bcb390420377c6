"""The ``dear-repro serve`` daemon: an HTTP front on the batched runner.

One :class:`SimulationServer` owns two moving parts:

- a stdlib ``ThreadingHTTPServer`` whose handler threads parse
  :func:`repro.api.config_from_payload` requests and block on a future;
- one :class:`RequestBatcher` thread that drains the request queue in
  micro-batches (window ``DEAR_SERVE_BATCH_WINDOW`` seconds), dedupes
  identical specs by fingerprint, and computes each batch through
  :func:`repro.runner.run_many` — which composes the content-addressed
  cache, request dedup, and the config-axis batched replay.

Telemetry goes to the process metrics registry and is served at
``GET /v1/metrics``: ``serve.requests`` (by endpoint and status),
``serve.batches`` / ``serve.batch_size``, ``serve.dedup_hits``,
``serve.queue_depth``, ``serve.errors``; the runner layers underneath
contribute ``runner.specs`` (cached/computed/deduped) and
``runner.batched.*``.

Shutdown is always a drain: ``POST /v1/shutdown`` (or Ctrl-C) stops
accepting work, finishes every queued request, then stops the listener.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from collections import deque
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.api import config_from_payload
from repro.core.env import env_float
from repro.runner.cache import ResultCache, default_cache, result_to_dict
from repro.runner.executor import run_many
from repro.runner.spec import RunSpec
from repro.telemetry.registry import default_registry

__all__ = ["RequestBatcher", "SimulationServer", "main"]

#: Seconds the batcher waits after the first request of a batch so that
#: concurrent clients coalesce into one config-axis replay.
DEFAULT_BATCH_WINDOW = 0.01

#: Seconds a handler thread waits for its result before answering 504.
DEFAULT_REQUEST_TIMEOUT = 600.0


class RequestBatcher:
    """Queue + worker thread turning concurrent requests into batches.

    ``submit`` enqueues a spec and returns a future; the worker thread
    sleeps for the batch window after waking, drains everything queued,
    dedupes by fingerprint (every duplicate is a ``serve.dedup_hits``),
    and resolves the unique specs with one :func:`run_many` call so the
    cache and the batched replay see the whole batch at once.  A failing
    spec fails only the requests that asked for it.
    """

    def __init__(
        self,
        batch_window: Optional[float] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if batch_window is None:
            batch_window = env_float(
                "DEAR_SERVE_BATCH_WINDOW", DEFAULT_BATCH_WINDOW, minimum=0.0
            )
        self.batch_window = batch_window
        self._jobs = jobs
        self._cache = cache
        self._queue: deque[tuple[RunSpec, Future]] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="dear-serve-batcher", daemon=True
        )
        self._thread.start()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(self, spec: RunSpec) -> Future:
        """Enqueue one spec; the future resolves to its ScheduleResult."""
        future: Future = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("server is draining; not accepting new requests")
            self._queue.append((spec, future))
            default_registry().gauge(
                "serve.queue_depth", "requests waiting for the batcher"
            ).set(len(self._queue))
            self._cond.notify()
        return future

    def close(self) -> None:
        """Drain: finish everything queued, then stop the worker thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
            # Window sleep outside the lock so submitters can pile on.
            if self.batch_window > 0.0:
                time.sleep(self.batch_window)
            with self._cond:
                batch = list(self._queue)
                self._queue.clear()
                default_registry().gauge(
                    "serve.queue_depth", "requests waiting for the batcher"
                ).set(0)
            self._process(batch)

    def _process(self, batch: list[tuple[RunSpec, Future]]) -> None:
        registry = default_registry()
        registry.counter("serve.batches", "micro-batches computed").inc()
        registry.histogram(
            "serve.batch_size", "requests per micro-batch"
        ).observe(len(batch))
        unique: list[RunSpec] = []
        waiters: dict[str, list[Future]] = {}
        for spec, future in batch:
            fingerprint = spec.fingerprint
            if fingerprint not in waiters:
                waiters[fingerprint] = []
                unique.append(spec)
            else:
                registry.counter(
                    "serve.dedup_hits",
                    "requests answered by another in-flight request",
                ).inc()
            waiters[fingerprint].append(future)
        for spec, outcome in zip(unique, self._resolve(unique)):
            futures = waiters[spec.fingerprint]
            if isinstance(outcome, Exception):
                registry.counter("serve.errors", "failed requests, by stage").inc(
                    len(futures), stage="compute"
                )
                for future in futures:
                    future.set_exception(outcome)
            else:
                for future in futures:
                    future.set_result(outcome)

    def _resolve(self, specs: list[RunSpec]) -> list:
        """One result or exception per spec, in order.

        The whole batch goes through one :func:`run_many`; if that
        raises, each spec is retried alone so a bad spec fails only its
        own waiters, never the requests it was batched with.
        """
        try:
            return run_many(specs, jobs=self._jobs, cache=self._cache)
        except Exception as exc:  # surface, don't kill the worker thread
            if len(specs) == 1:
                return [exc]
        return [self._resolve([spec])[0] for spec in specs]


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired back to its owning SimulationServer."""

    daemon_threads = True
    owner: "SimulationServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "dear-serve/1"
    protocol_version = "HTTP/1.1"

    # The daemon narrates through its metrics, not a per-request log.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _reply(self, endpoint: str, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        default_registry().counter(
            "serve.requests", "HTTP requests, by endpoint and status"
        ).inc(endpoint=endpoint, status=str(status))

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        server: _ServeHTTPServer = self.server  # type: ignore[assignment]
        if self.path == "/v1/health":
            self._reply(
                "health",
                200,
                {
                    "status": "ok",
                    "queue_depth": server.owner.batcher.queue_depth,
                    "batch_window": server.owner.batcher.batch_window,
                },
            )
        elif self.path == "/v1/metrics":
            self._reply("metrics", 200, default_registry().snapshot())
        else:
            self._reply("unknown", 404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        server: _ServeHTTPServer = self.server  # type: ignore[assignment]
        if self.path == "/v1/simulate":
            self._simulate(server)
        elif self.path == "/v1/shutdown":
            self._reply("shutdown", 200, {"status": "draining"})
            # shutdown() blocks until serve_forever() returns, and
            # serve_forever() may be waiting on this very handler —
            # always trigger it from a separate thread.
            threading.Thread(
                target=server.owner.shutdown, name="dear-serve-shutdown", daemon=True
            ).start()
        else:
            self._reply("unknown", 404, {"error": f"no such endpoint: {self.path}"})

    def _simulate(self, server: _ServeHTTPServer) -> None:
        registry = default_registry()
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
        except (ValueError, json.JSONDecodeError):
            registry.counter("serve.errors", "failed requests, by stage").inc(
                stage="parse"
            )
            self._reply("simulate", 400, {"error": "body must be a JSON object"})
            return
        try:
            config = config_from_payload(payload)
        except (ValueError, KeyError) as exc:
            registry.counter("serve.errors", "failed requests, by stage").inc(
                stage="config"
            )
            self._reply("simulate", 400, {"error": str(exc)})
            return
        spec = config.to_spec()
        try:
            future = server.owner.batcher.submit(spec)
        except RuntimeError as exc:
            self._reply("simulate", 503, {"error": str(exc)})
            return
        try:
            result = future.result(timeout=server.owner.request_timeout)
        except TimeoutError:
            registry.counter("serve.errors", "failed requests, by stage").inc(
                stage="timeout"
            )
            self._reply("simulate", 504, {"error": "request timed out"})
            return
        except Exception as exc:
            self._reply("simulate", 500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(
            "simulate",
            200,
            {
                "fingerprint": spec.fingerprint,
                "label": config.label,
                "result": result_to_dict(result),
            },
        )


class SimulationServer:
    """The serve daemon: listener + batcher, with drain-first shutdown.

    Binds immediately (``port=0`` picks an ephemeral port — use
    :attr:`address` to discover it); call :meth:`serve_forever` to block
    or :meth:`start` to serve from a background thread (tests, the
    smoke harness).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8377,
        batch_window: Optional[float] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self.batcher = RequestBatcher(batch_window=batch_window, jobs=jobs, cache=cache)
        self.request_timeout = request_timeout
        self._httpd = _ServeHTTPServer((host, port), _Handler)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._down = False

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` completes."""
        self._httpd.serve_forever(poll_interval=0.05)

    def start(self) -> "SimulationServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="dear-serve-listener", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Drain the batcher, then stop the listener. Idempotent."""
        with self._shutdown_lock:
            if self._down:
                return
            self._down = True
            self.batcher.close()
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point for ``dear-repro serve``."""
    parser = argparse.ArgumentParser(
        prog="dear-repro serve",
        description="Serve SimulationConfig queries over local HTTP, "
        "micro-batched through the config-axis runner.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8377, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--batch-window",
        type=float,
        default=None,
        help="seconds to wait for co-batching requests "
        "(default: DEAR_SERVE_BATCH_WINDOW or 0.01)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, help="runner workers per batch"
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=DEFAULT_REQUEST_TIMEOUT,
        help="seconds before an enqueued request answers 504",
    )
    args = parser.parse_args(argv)

    server = SimulationServer(
        host=args.host,
        port=args.port,
        batch_window=args.batch_window,
        jobs=args.jobs,
        request_timeout=args.request_timeout,
    )
    print(f"dear-repro serve listening on {server.url}", flush=True)
    print(f"result cache: {default_cache().stats()['root']}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    print("dear-repro serve drained and stopped", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

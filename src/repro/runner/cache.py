"""On-disk, content-addressed result cache.

Entries live under ``.dear-cache/<schema>/<aa>/<fingerprint>.json``
(override the root with ``DEAR_CACHE_DIR``; disable entirely with
``DEAR_CACHE=0``).  The schema tag versions the *meaning* of cached
results: bump :data:`SCHEMA_VERSION` whenever the simulator, the cost
model, or the :class:`~repro.schedulers.base.ScheduleResult` layout
changes, and every stale entry silently becomes a miss.

Corruption is never fatal — an unreadable or mismatched entry is
treated as a miss (and evicted), so the worst a damaged cache can do is
force a recompute.  A damaged counters file reads as zeros.

Each :class:`ResultCache` counts its lookups and puts in memory and
merges them into the store's lifetime counters (:data:`COUNTERS_FILE`)
every :data:`FLUSH_EVERY` lookups and puts, on :meth:`ResultCache.flush`,
when it is garbage-collected, and when the process exits.  So the file
may lag a live process by fewer than :data:`FLUSH_EVERY` counts; it is
exact after any of those, and a killed process loses only its
unflushed counts.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Optional

from repro.runner.spec import RunSpec
from repro.schedulers.base import ScheduleResult
from repro.schedulers.multirank import HeterogeneousResult
from repro.telemetry.registry import default_registry

__all__ = [
    "COUNTERS_FILE",
    "FLUSH_EVERY",
    "SCHEMA_VERSION",
    "ResultCache",
    "default_cache",
    "reset_default_cache",
    "run_cached",
    "result_to_dict",
    "result_from_dict",
]

#: Bump when simulator semantics or the result layout change.
SCHEMA_VERSION = "dear-cache-v2"

#: Store-level lifetime counters (JSON), kept next to the schema
#: directories so ``dear-repro cache stats`` can report hit rates across
#: processes.  Deliberately NOT named ``*.json``: everything matching
#: ``*.json`` under the root is a cache entry.  Written in blocks, not per
#: lookup: it lags each live process by fewer than :data:`FLUSH_EVERY`
#: counts, and is exact once every process has flushed or exited.
COUNTERS_FILE = "counters"

#: Lookups and puts a ResultCache counts in memory before it merges them
#: into :data:`COUNTERS_FILE`.
FLUSH_EVERY = 100

#: Serialises merges into counters files, so flushes within one process
#: never lose each other's counts.  Reentrant: a cache collected while a
#: merge is running on the same thread flushes from inside it.
_MERGE_LOCK = threading.RLock()

#: Fields of ScheduleResult that persist (the tracer is deliberately
#: dropped: it is large, not JSON-serialisable, and only timeline
#: renderings need it — those run uncached).
_RESULT_FIELDS = (
    "scheduler",
    "model_name",
    "cluster_name",
    "world_size",
    "batch_size",
    "iteration_time",
    "t_ff",
    "t_bp",
    "exposed_comm",
    "exposed_rs",
    "exposed_ag",
    "iteration_times",
    "extras",
)


#: Fields of HeterogeneousResult that persist (``world_size`` is a
#: derived property, the tracer is dropped for the same reasons).
_HETEROGENEOUS_FIELDS = (
    "policy",
    "model_name",
    "cluster_name",
    "compute_scales",
    "iteration_time",
    "iteration_times",
    "extras",
)


def result_to_dict(result) -> dict:
    """JSON-ready view of a result (tracer dropped).

    Heterogeneous multi-rank results carry a ``kind`` tag so the two
    result shapes round-trip through the same cache; entries written
    before the tag existed decode as plain schedule results.
    """
    if isinstance(result, HeterogeneousResult):
        payload = {
            name: getattr(result, name) for name in _HETEROGENEOUS_FIELDS
        }
        payload["kind"] = "heterogeneous"
        payload["compute_scales"] = list(result.compute_scales)
        payload["iteration_times"] = list(result.iteration_times)
        return payload
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    payload["iteration_times"] = list(result.iteration_times)
    return payload


def result_from_dict(payload: dict):
    """Rebuild a (tracer-less) result from its cached form."""
    data = dict(payload)
    kind = data.pop("kind", "schedule")
    data["iteration_times"] = tuple(data.get("iteration_times", ()))
    data.setdefault("extras", {})
    if kind == "heterogeneous":
        data["compute_scales"] = tuple(data.get("compute_scales", ()))
        return HeterogeneousResult(tracer=None, **data)
    return ScheduleResult(tracer=None, **data)


def _read_counters(root: Path) -> dict:
    """The lifetime counters stored under ``root``.

    Only non-negative integers count; a missing or unreadable file, a
    document that is not an object, and any other value read as zero.
    """
    try:
        data = json.loads((root / COUNTERS_FILE).read_text())
    except (OSError, ValueError, RecursionError):
        return {}
    if not isinstance(data, dict):
        return {}
    return {key: value for key, value in data.items()
            if type(value) is int and value >= 0}


def _flush(root: Path, pending: dict, lock: threading.Lock) -> None:
    """Merge the ``pending`` counts into ``root``'s counters file.

    The counts are taken out under ``lock``, so a lookup counted while
    the file is written waits for the next flush instead of being lost.
    Read-modify-replace without a file lock: writers in other processes
    can still lose each other's increments, which is fine for what the
    counters are (an operational gauge for ``dear-repro cache stats``,
    not an exact ledger).  Any I/O failure drops the counts and leaves
    the store untouched.
    """
    with lock:
        deltas = dict(pending)
        pending.clear()
    if not deltas:
        return
    with _MERGE_LOCK:
        counts = _read_counters(root)
        for key, delta in deltas.items():
            counts[key] = counts.get(key, 0) + delta
        temp_name = None
        try:
            root.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=root, suffix=".tmp", delete=False
            )
            temp_name = handle.name
            with handle:
                handle.write(json.dumps(counts))
            os.replace(temp_name, root / COUNTERS_FILE)
        except (OSError, ValueError):
            if temp_name is not None:
                _unlink(Path(temp_name))


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


class ResultCache:
    """Filesystem cache keyed by :attr:`RunSpec.fingerprint`."""

    def __init__(self, root: Optional[Path] = None, schema: str = SCHEMA_VERSION,
                 enabled: bool = True):
        if root is None:
            # Through core.env so an empty or whitespace DEAR_CACHE_DIR
            # (easy to produce in CI yaml) falls back to the default
            # instead of resolving to a surprising location.  CI jobs
            # that share one cache across steps set this to an absolute
            # path (see docs/CI.md).
            from repro.core.env import env_str

            root = Path(env_str("DEAR_CACHE_DIR", ".dear-cache"))
        self.root = Path(root)
        self.schema = schema
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.puts = 0
        # Lifetime counts not yet in COUNTERS_FILE; the finalizer flushes
        # them when the cache is collected or the process exits.
        self._pending: dict[str, int] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _flush, self.root, self._pending, self._lock)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from disk."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
            "root": str(self.root),
        }

    def _path(self, fingerprint: str) -> Path:
        return self.root / self.schema / fingerprint[:2] / f"{fingerprint}.json"

    def _count(self, key: str) -> None:
        """Count one lookup or put towards the store's lifetime counters."""
        with self._lock:
            self._pending[key] = self._pending.get(key, 0) + 1
            due = sum(self._pending.values()) >= FLUSH_EVERY
        if due:
            self.flush()

    def flush(self) -> None:
        """Merge this cache's unflushed counts into :data:`COUNTERS_FILE`."""
        _flush(self.root, self._pending, self._lock)

    def get(self, spec: RunSpec) -> Optional[ScheduleResult]:
        """Cached result for ``spec``, or None on any kind of miss."""
        if not self.enabled:
            return None
        fingerprint = spec.fingerprint
        path = self._path(fingerprint)
        try:
            entry = json.loads(path.read_text())
            if entry.get("schema") != self.schema:
                raise ValueError("schema mismatch")
            if entry.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            result = result_from_dict(entry["result"])
        except FileNotFoundError:
            self.misses += 1
            self._count("misses")
            default_registry().counter(
                "runner.cache.misses", "result-cache lookups that recomputed"
            ).inc()
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted or stale entry: evict and recompute.
            _unlink(path)
            self.misses += 1
            self._count("misses")
            default_registry().counter(
                "runner.cache.misses", "result-cache lookups that recomputed"
            ).inc()
            return None
        self.hits += 1
        self._count("hits")
        try:
            # Touch on hit so prune-by-age keeps warm entries (LRU-ish).
            os.utime(path)
        except OSError:
            pass
        default_registry().counter(
            "runner.cache.hits", "result-cache lookups served from disk"
        ).inc()
        return result

    def put(self, spec: RunSpec, result: ScheduleResult) -> None:
        """Persist ``result`` under the spec's fingerprint (atomically)."""
        if not self.enabled:
            return
        fingerprint = spec.fingerprint
        path = self._path(fingerprint)
        entry = {
            "schema": self.schema,
            "fingerprint": fingerprint,
            "label": spec.label,
            "result": result_to_dict(result),
        }
        temp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                "w", dir=path.parent, suffix=".tmp", delete=False
            )
            temp_name = handle.name
            with handle:
                # One write call: json.dump would stream every small
                # chunk of the encoding through the temp-file wrapper.
                handle.write(json.dumps(entry))
            os.replace(temp_name, path)
        except (OSError, TypeError):
            # A cache that cannot write is a cache that is off.
            if temp_name is not None:
                _unlink(Path(temp_name))
            return
        self.puts += 1
        self._count("puts")
        default_registry().counter(
            "runner.cache.puts", "results persisted into the cache"
        ).inc()


_DEFAULT: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide cache (honours DEAR_CACHE / DEAR_CACHE_DIR)."""
    global _DEFAULT
    if _DEFAULT is None:
        from repro.core.env import env_flag

        _DEFAULT = ResultCache(enabled=env_flag("DEAR_CACHE", True))
    return _DEFAULT


def reset_default_cache() -> None:
    """Forget the process-wide cache (re-reads env on next use)."""
    global _DEFAULT
    _DEFAULT = None


def run_cached(spec: RunSpec, cache: Optional[ResultCache] = None) -> ScheduleResult:
    """Execute ``spec`` through the cache.

    Always returns a tracer-less result, so callers see identical
    payloads whether the answer came from disk or a fresh simulation.
    """
    cache = cache if cache is not None else default_cache()
    cached = cache.get(spec)
    if cached is not None:
        return cached
    result = dataclasses.replace(spec.run(), tracer=None)
    cache.put(spec, result)
    return result

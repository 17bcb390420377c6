"""The on-disk result cache: round trips, invalidation, corruption,
and the lifetime counters."""

import gc
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.runner import cache as cache_module
from repro.runner.cache import (
    COUNTERS_FILE,
    FLUSH_EVERY,
    ResultCache,
    result_from_dict,
    result_to_dict,
    run_cached,
)
from repro.runner.cache_cmd import scan_store
from repro.runner.spec import RunSpec


@pytest.fixture()
def spec() -> RunSpec:
    return RunSpec.create("wfbp", "resnet50", "10gbe", iterations=3)


@pytest.fixture()
def cache(tmp_path) -> ResultCache:
    return ResultCache(root=tmp_path / "cache")


class TestRoundTrip:
    def test_put_then_get(self, cache, spec):
        result = run_cached(spec, cache=cache)
        again = cache.get(spec)
        assert again is not None
        assert again.iteration_time == result.iteration_time
        assert again.iteration_times == result.iteration_times
        assert isinstance(again.iteration_times, tuple)
        assert again.tracer is None

    def test_miss_on_empty_cache(self, cache, spec):
        assert cache.get(spec) is None
        assert cache.stats()["misses"] == 1

    def test_hit_rate(self, cache, spec):
        run_cached(spec, cache=cache)
        run_cached(spec, cache=cache)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_cached_result_identical(self, cache, spec):
        cold = run_cached(spec, cache=cache)
        warm = run_cached(spec, cache=cache)
        assert result_to_dict(cold) == result_to_dict(warm)

    def test_result_dict_round_trip(self, spec):
        result = spec.run()
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert rebuilt.iteration_time == result.iteration_time
        assert rebuilt.scheduler == result.scheduler
        assert rebuilt.world_size == result.world_size


class TestInvalidation:
    def test_schema_tag_invalidates(self, tmp_path, spec):
        old = ResultCache(root=tmp_path, schema="dear-cache-vOLD")
        run_cached(spec, cache=old)
        new = ResultCache(root=tmp_path, schema="dear-cache-vNEW")
        assert new.get(spec) is None

    def test_fingerprint_mismatch_is_a_miss(self, cache, spec):
        run_cached(spec, cache=cache)
        path = cache._path(spec.fingerprint)
        entry = json.loads(path.read_text())
        entry["fingerprint"] = "0" * 64
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None
        assert not path.exists()  # evicted

    def test_disabled_cache_never_stores(self, tmp_path, spec):
        cache = ResultCache(root=tmp_path, enabled=False)
        run_cached(spec, cache=cache)
        assert cache.get(spec) is None
        assert cache.puts == 0


class TestCorruptionRecovery:
    def test_garbage_entry_recomputes(self, cache, spec):
        result = run_cached(spec, cache=cache)
        path = cache._path(spec.fingerprint)
        path.write_text("{ not json at all")
        recovered = run_cached(spec, cache=cache)
        assert recovered.iteration_time == result.iteration_time
        # The recompute healed the entry on disk.
        assert cache.get(spec) is not None

    def test_truncated_entry_recomputes(self, cache, spec):
        run_cached(spec, cache=cache)
        path = cache._path(spec.fingerprint)
        path.write_text(path.read_text()[:40])
        assert run_cached(spec, cache=cache).iteration_time > 0

    def test_missing_result_key_recomputes(self, cache, spec):
        run_cached(spec, cache=cache)
        path = cache._path(spec.fingerprint)
        entry = json.loads(path.read_text())
        del entry["result"]
        path.write_text(json.dumps(entry))
        assert run_cached(spec, cache=cache).iteration_time > 0


class TestFileBytes:
    """Each cache file is ``json.dumps`` of its content, in one write."""

    def test_entry_and_counters_bytes(self, cache, spec):
        run_cached(spec, cache=cache)
        cache.get(spec)
        cache.flush()
        entry = cache._path(spec.fingerprint).read_text()
        counters = (cache.root / COUNTERS_FILE).read_text()
        assert entry == json.dumps(json.loads(entry))
        assert counters == json.dumps({"misses": 1, "puts": 1, "hits": 1})

    def test_each_file_is_written_in_one_call(self, cache, spec, monkeypatch):
        import tempfile

        from repro.runner import cache as cache_module

        writes = []
        named = tempfile.NamedTemporaryFile

        def counting(*args, **kwargs):
            handle = named(*args, **kwargs)
            write = handle.write
            handle.write = lambda text: writes.append(text) or write(text)
            return handle

        monkeypatch.setattr(cache_module.tempfile, "NamedTemporaryFile", counting)
        result = run_cached(spec, cache=cache)
        # The put writes the entry; the miss and the put are only counted.
        assert len(writes) == 1
        assert json.loads(writes[0])["result"] == result_to_dict(result)
        cache.flush()
        assert writes[1:] == [json.dumps({"misses": 1, "puts": 1})]


def _counters(root) -> dict:
    return json.loads((root / COUNTERS_FILE).read_text())


class TestLifetimeCounters:
    """Lookups and puts are counted in memory and reach the counters file
    in blocks of :data:`FLUSH_EVERY`, on ``flush()``, on collection and
    at exit."""

    def test_a_block_short_of_the_threshold_writes_only_the_entry(
        self, cache, spec
    ):
        run_cached(spec, cache=cache)  # a miss and a put
        for _ in range(FLUSH_EVERY - 3):
            assert cache.get(spec) is not None
        files = [path for path in cache.root.rglob("*") if path.is_file()]
        assert files == [cache._path(spec.fingerprint)]
        cache.get(spec)
        assert _counters(cache.root) == {
            "misses": 1, "puts": 1, "hits": FLUSH_EVERY - 2,
        }

    def test_exact_after_flush(self, cache, spec):
        run_cached(spec, cache=cache)
        run_cached(spec, cache=cache)
        cache.flush()
        assert _counters(cache.root) == {"misses": 1, "puts": 1, "hits": 1}
        cache.flush()  # nothing pending: the file is unchanged
        assert _counters(cache.root) == {"misses": 1, "puts": 1, "hits": 1}

    def test_exact_after_collection(self, tmp_path, spec):
        cache = ResultCache(root=tmp_path)
        run_cached(spec, cache=cache)
        cache.get(spec)
        del cache
        gc.collect()
        assert _counters(tmp_path) == {"misses": 1, "puts": 1, "hits": 1}

    def test_exact_after_process_exit(self, tmp_path, spec):
        run_cached(spec, cache=ResultCache(root=tmp_path))
        script = (
            "import sys\n"
            "from repro.runner.cache import default_cache\n"
            "from repro.runner.spec import RunSpec\n"
            "spec = RunSpec.create('wfbp', 'resnet50', '10gbe', iterations=3)\n"
            "for _ in range(3):\n"
            "    assert default_cache().get(spec) is not None\n"
        )
        env = dict(os.environ, DEAR_CACHE_DIR=str(tmp_path))
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=120)
        assert _counters(tmp_path) == {"misses": 1, "puts": 1, "hits": 3}

    def test_two_caches_on_one_root_sum(self, tmp_path, spec):
        first = ResultCache(root=tmp_path)
        run_cached(spec, cache=first)
        first.flush()
        second = ResultCache(root=tmp_path)
        second.get(spec)
        second.get(spec)
        second.flush()
        assert _counters(tmp_path) == {"misses": 1, "puts": 1, "hits": 2}

    def test_a_lookup_during_a_flush_is_not_lost(self, cache, spec, monkeypatch):
        run_cached(spec, cache=cache)
        entered, proceed = threading.Event(), threading.Event()
        read = cache_module._read_counters

        def held(root):
            entered.set()
            assert proceed.wait(timeout=30.0)
            return read(root)

        monkeypatch.setattr(cache_module, "_read_counters", held)
        flusher = threading.Thread(target=cache.flush)
        flusher.start()
        try:
            assert entered.wait(timeout=30.0)
            # The flush has taken the counts and is mid-merge.
            assert cache.get(spec) is not None
        finally:
            proceed.set()
            flusher.join(timeout=30.0)
        assert not flusher.is_alive()
        assert _counters(cache.root) == {"misses": 1, "puts": 1}
        cache.flush()
        assert _counters(cache.root) == {"misses": 1, "puts": 1, "hits": 1}

    def test_threads_crossing_the_threshold_lose_no_count(self, cache, spec):
        run_cached(spec, cache=cache)
        threads, lookups = 4, 2 * FLUSH_EVERY

        def look():
            for _ in range(lookups):
                cache.get(spec)

        workers = [threading.Thread(target=look) for _ in range(threads)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        cache.flush()
        assert _counters(cache.root)["hits"] == threads * lookups

    def test_a_deeply_nested_counters_file_reads_as_zeros(self, cache, spec):
        cache.root.mkdir(parents=True)
        (cache.root / COUNTERS_FILE).write_text("[" * 100_000)
        cache.get(spec)
        cache.flush()
        assert _counters(cache.root) == {"misses": 1}

    def test_a_failed_flush_leaves_no_temp_file(self, cache, spec):
        (cache.root / COUNTERS_FILE).mkdir(parents=True)
        for _ in range(5):
            cache.get(spec)
        cache.flush()
        assert list(cache.root.rglob("*.tmp")) == []
        assert scan_store(cache.root)["counters"]["misses"] == 0


_NAMES = ("hits", "misses", "puts")

#: Any JSON document, with the counter names likely as object keys.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=4),
                      children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=150)
@given(document=_JSON | st.dictionaries(st.sampled_from(_NAMES), _JSON))
@example(document={"hits": "x"})
@example(document={"hits": float("inf")})
@example(document={"hits": None, "puts": True})
@example(document={"hits": -5, "misses": 1})
def test_a_corrupt_counters_file_reads_as_zeros(tmp_path_factory, document):
    """Whatever the counters file holds, lookups, flushes and ``cache
    stats`` neither raise nor report a hit rate outside [0, 1]; a value
    that is not a non-negative integer counts from zero."""
    root = tmp_path_factory.mktemp("counters")
    (root / COUNTERS_FILE).write_text(json.dumps(document))
    stored = document if isinstance(document, dict) else {}
    expected = {}
    for name in _NAMES:
        value = stored.get(name)
        expected[name] = value if type(value) is int and value >= 0 else 0
    expected["misses"] += 1
    cache = ResultCache(root=root)
    assert cache.get(RunSpec.create("wfbp", "resnet50", "10gbe")) is None
    cache.flush()
    counters = scan_store(root)["counters"]
    assert {name: counters[name] for name in _NAMES} == expected
    assert 0.0 <= counters["hit_rate"] <= 1.0

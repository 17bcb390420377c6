"""The on-disk result cache: round trips, invalidation, corruption."""

import json

import pytest

from repro.runner.cache import (
    COUNTERS_FILE,
    ResultCache,
    result_from_dict,
    result_to_dict,
    run_cached,
)
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
        # The miss bumps the counters, the put writes the entry and
        # bumps them again: three files, three writes.
        assert len(writes) == 3
        assert json.loads(writes[1])["result"] == result_to_dict(result)

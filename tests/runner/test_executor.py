"""Fan-out executor: ordering, dedup, fallback, serial/parallel parity."""

import pickle

import repro.runner.executor as executor_module
from repro.experiments.sweeps import latency_sweep
from repro.runner.cache import ResultCache, reset_default_cache, run_cached
from repro.runner.executor import resolve_jobs, run_many
from repro.runner.spec import RunSpec


def _specs(iterations: int = 3) -> list[RunSpec]:
    return [
        RunSpec.create("wfbp", "resnet50", "10gbe", iterations=iterations),
        RunSpec.create("horovod", "resnet50", "10gbe", buffer_bytes=25e6,
                       iterations=iterations),
        RunSpec.create("dear", "resnet50", "10gbe", fusion="none",
                       iterations=iterations),
    ]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("DEAR_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DEAR_JOBS", "7")
        assert resolve_jobs() == 7

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("DEAR_JOBS", "lots")
        assert resolve_jobs() >= 1

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestRunMany:
    def test_input_order_preserved(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        results = run_many(_specs(), jobs=1, cache=cache)
        assert [r.scheduler for r in results] == ["wfbp", "horovod", "dear"]

    def test_duplicates_computed_once(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = _specs()[0]
        results = run_many([spec, spec, spec], jobs=1, cache=cache)
        assert cache.puts == 1
        assert len({id(r) for r in results}) == 1

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_many(_specs(), jobs=1, cache=ResultCache(root=tmp_path / "a"))
        parallel = run_many(_specs(), jobs=2, cache=ResultCache(root=tmp_path / "b"))
        for left, right in zip(serial, parallel):
            assert left.iteration_time == right.iteration_time
            assert left.iteration_times == right.iteration_times

    def test_cached_entries_skip_execution(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        run_many(_specs(), jobs=1, cache=cache)
        run_many(_specs(), jobs=1, cache=cache)
        assert cache.hits == 3
        assert cache.puts == 3

    def test_falls_back_when_pool_breaks(self, tmp_path, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                raise pickle.PicklingError("cannot pickle")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", ExplodingPool)
        cache = ResultCache(root=tmp_path)
        results = run_many(_specs(), jobs=4, cache=cache)
        assert [r.scheduler for r in results] == ["wfbp", "horovod", "dear"]


class TestRunCached:
    def test_counts_as_hit_second_time(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        first = run_cached(RunSpec.create("wfbp", "resnet50", "10gbe", iterations=3),
                           cache=cache)
        second = run_cached(RunSpec.create("wfbp", "resnet50", "10gbe", iterations=3),
                            cache=cache)
        assert cache.hits == 1
        assert first.iteration_time == second.iteration_time


class TestSweepParity:
    """The acceptance bar: latency_sweep identical at DEAR_JOBS=1 and 4."""

    @staticmethod
    def _sweep(monkeypatch, tmp_path, jobs: str):
        monkeypatch.setenv("DEAR_JOBS", jobs)
        monkeypatch.setenv("DEAR_CACHE_DIR", str(tmp_path / f"cache-{jobs}"))
        reset_default_cache()
        try:
            return latency_sweep(factors=(0.5, 1.0, 2.0), iterations=3)
        finally:
            reset_default_cache()

    def test_latency_sweep_parity(self, monkeypatch, tmp_path):
        serial = self._sweep(monkeypatch, tmp_path, "1")
        parallel = self._sweep(monkeypatch, tmp_path, "4")
        assert serial == parallel

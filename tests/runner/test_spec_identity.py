"""Spec identity is computed once: per spec, per model, per request.

``RunSpec.fingerprint`` is read by ``run_many`` (dedup), ``cache.get``
and ``cache.put``, and by the serve batcher and handler.  The digest is
memoised on the spec and the model's public-field payload on the
``ModelSpec``, so each of those reads after the first is a dict lookup.
These tests count the expensive calls, and check that the lazy caches
stay out of pickles.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.layers import ModelSpec
from repro.models.zoo import _BUILDERS, get_model
from repro.network.presets import paper_testbed
from repro.runner.cache import ResultCache
from repro.runner.executor import run_many
from repro.runner import spec as spec_module
from repro.runner.spec import RunSpec, _freeze_options, _jsonify
from repro.serve import ServeClient, SimulationServer
from tests.conftest import build_tiny_model
from tests.runner.test_fingerprint_golden import golden_specs


@pytest.fixture()
def canonical_calls(monkeypatch) -> Counter:
    """Counts ``RunSpec.canonical_json`` calls per spec object.

    Keeps every counted spec alive, so a freed spec's ``id()`` cannot
    be reused by a later one and merge their counts.
    """
    calls: Counter = Counter()
    counted: dict[int, RunSpec] = {}
    original = RunSpec.canonical_json

    def counting(self):
        counted[id(self)] = self
        calls[id(self)] += 1
        return original(self)

    monkeypatch.setattr(RunSpec, "canonical_json", counting)
    return calls


@pytest.fixture()
def model_asdict_calls(monkeypatch) -> Counter:
    """Counts ``dataclasses.asdict`` calls per ModelSpec object.

    Keeps every counted model alive, so a freed model's ``id()`` cannot
    be reused by a later one and merge their counts.
    """
    calls: Counter = Counter()
    counted: dict[int, ModelSpec] = {}
    original = dataclasses.asdict

    def counting(obj, *args, **kwargs):
        if isinstance(obj, ModelSpec):
            counted[id(obj)] = obj
            calls[id(obj)] += 1
        return original(obj, *args, **kwargs)

    monkeypatch.setattr(dataclasses, "asdict", counting)
    return calls


class TestComputeOnce:
    def test_fingerprint_is_memoised(self, canonical_calls):
        spec = RunSpec.create("wfbp", build_tiny_model(), "10gbe", iterations=4)
        first = spec.fingerprint
        assert all(spec.fingerprint == first for _ in range(5))
        assert canonical_calls[id(spec)] == 1

    def test_run_many_reads_identity_once_per_spec(self, tmp_path, canonical_calls):
        model = build_tiny_model()
        a = RunSpec.create("wfbp", model, "10gbe", iterations=4)
        b = RunSpec.create("ddp", model, "10gbe", iterations=4)
        a_twin = RunSpec.create("wfbp", model, "10gbe", iterations=4)
        cache = ResultCache(root=tmp_path / "cache")
        # Misses (get + put) and in-batch duplicates, then all hits.
        run_many([a, b, a, a_twin, b], jobs=1, cache=cache)
        run_many([a, b, a_twin], jobs=1, cache=cache)
        assert cache.puts == 2
        assert canonical_calls == Counter({id(a): 1, id(b): 1, id(a_twin): 1})

    def test_model_payload_built_once_per_model_object(
        self, tmp_path, model_asdict_calls
    ):
        model = build_tiny_model()
        specs = [
            RunSpec.create(scheduler, model, fabric, iterations=4)
            for scheduler in ("wfbp", "ddp", "horovod")
            for fabric in ("10gbe", "100gbib")
        ]
        fingerprints = {spec.fingerprint for spec in specs}
        run_many(specs, jobs=1, cache=ResultCache(root=tmp_path / "cache"))
        assert len(fingerprints) == len(specs)
        assert model_asdict_calls == Counter({id(model): 1})

    def test_one_identity_computation_per_request(
        self, tmp_path, canonical_calls, model_asdict_calls
    ):
        server = SimulationServer(
            port=0, cache=ResultCache(root=tmp_path / "serve-cache"),
            batch_window=0.0, jobs=1,
        ).start()
        try:
            client = ServeClient(server.url, timeout=120.0)
            payloads = [
                {"scheduler": scheduler, "model": "resnet50",
                 "cluster": "10gbe", "iterations": 4}
                for scheduler in ("wfbp", "ddp", "wfbp", "wfbp")
            ]
            for payload in payloads:
                client.simulate(payload)
        finally:
            server.shutdown()
        # One fresh spec per request, each identified exactly once.
        assert len(canonical_calls) == len(payloads)
        assert set(canonical_calls.values()) == {1}
        # The zoo model is memoised: its payload is built at most once
        # across every request.
        assert model_asdict_calls[id(get_model("resnet50"))] <= 1

    def test_model_text_serialised_once_per_model_object(self, monkeypatch):
        model = build_tiny_model()
        encoded: Counter = Counter()
        original = json.dumps

        def counting(value, *args, **kwargs):
            if value is not None and value is model._tensor_cache.get("payload"):
                encoded[id(model)] += 1
            return original(value, *args, **kwargs)

        monkeypatch.setattr(spec_module.json, "dumps", counting)
        specs = [
            RunSpec.create(scheduler, model, fabric, iterations=4)
            for scheduler in ("wfbp", "ddp")
            for fabric in ("10gbe", "100gbib")
        ]
        assert len({spec.fingerprint for spec in specs}) == len(specs)
        assert encoded == Counter({id(model): 1})


def _reference_json(spec: RunSpec) -> str:
    """The canonical encoding as one whole-object ``json.dumps``."""
    return json.dumps(
        spec.canonical_payload(), sort_keys=True, separators=(",", ":"),
        default=_jsonify,
    )


#: Option values as users pass them: awkward strings (NULs, quotes,
#: backslashes, non-ASCII), numbers, nested lists and objects, and sets.
_OPTION_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=st.sampled_from('\x00"\\:,{}[]ab\u00e9\u2603'))
    | st.frozensets(st.integers(), max_size=4)
    | st.frozensets(st.text(max_size=3), max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)

_CREATE_PARAMETERS = frozenset(inspect.signature(RunSpec.create).parameters)

_OPTIONS = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key not in _CREATE_PARAMETERS),
    _OPTION_VALUES,
    max_size=4,
)


class TestCanonicalJson:
    """The key-by-key encoding is byte-identical to one whole dump."""

    def test_golden_specs(self):
        for label, spec in golden_specs():
            assert spec.canonical_json() == _reference_json(spec), label

    def test_equal_clusters_keep_their_own_text(self):
        """``1.25e9 == 1250000000`` but the two encode differently."""
        base = paper_testbed("10gbe")
        as_int = dataclasses.replace(base, inter_link=dataclasses.replace(
            base.inter_link, bandwidth=int(base.inter_link.bandwidth),
        ))
        assert as_int == base
        specs = [RunSpec.create("wfbp", "resnet50", cluster)
                 for cluster in (base, as_int, base, as_int)]
        for spec in specs:
            assert spec.canonical_json() == _reference_json(spec)
        assert specs[0].fingerprint != specs[1].fingerprint

    @settings(max_examples=200, deadline=None)
    @given(options=_OPTIONS)
    def test_any_option_values(self, options):
        # Bypasses create()'s option check: the encoder must handle any
        # option name and value a spec can hold.
        spec = dataclasses.replace(
            RunSpec.create("wfbp", "resnet50", "10gbe"),
            options=_freeze_options(options),
        )
        assert spec.canonical_json() == _reference_json(spec)


class TestPickling:
    @staticmethod
    def _fresh_densenet_spec() -> RunSpec:
        model = _BUILDERS["densenet201"]()  # never touched by any cache
        spec = RunSpec.create("dear", model, "10gbe", fusion="buffer")
        spec.fingerprint
        return spec

    def test_lazy_caches_stay_out_of_pickles(self):
        warm = RunSpec.create("dear", "densenet201", "10gbe", fusion="buffer")
        warm.fingerprint
        warm.run()
        assert warm.model._tensor_cache  # payload + traversal orders filled
        assert len(pickle.dumps(warm)) == len(pickle.dumps(self._fresh_densenet_spec()))

    def test_fingerprint_survives_round_trip(self):
        spec = RunSpec.create("dear", "densenet201", "10gbe", fusion="buffer")
        expected = spec.fingerprint
        copy = pickle.loads(pickle.dumps(spec))
        assert copy.model._tensor_cache == {}
        assert copy.fingerprint == expected
        # Recomputed from the unpickled value, not just carried along.
        del copy.__dict__["_fingerprint"]
        assert copy.fingerprint == expected
        assert copy == spec

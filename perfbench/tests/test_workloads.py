"""The generators: seeded, mix-invariant, never-seen, and pool-covered."""

from collections import Counter

import pytest

from perfbench import workloads
from perfbench.workloads import (
    bo_op,
    bo_spec,
    serve_pool,
    serve_request,
    straggler_op,
    straggler_spec,
    sweep_op,
    sweep_spec,
)

SEEDS = (1, 2, 97)


def _sweep_ops(seed, count):
    sizes = workloads._SweepSizes(seed)
    return [sweep_op(seed, k, sizes) for k in range(-1, count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_are_deterministic_per_seed(seed):
    assert _sweep_ops(seed, 30) == _sweep_ops(seed, 30)
    assert [straggler_op(seed, k) for k in range(6)] == [
        straggler_op(seed, k) for k in range(6)
    ]
    assert [bo_op(seed, k) for k in range(10)] == [bo_op(seed, k) for k in range(10)]
    assert serve_pool(seed) == serve_pool(seed)


def test_seed_changes_values():
    assert _sweep_ops(1, 5) != _sweep_ops(2, 5)
    assert straggler_op(1, 0) != straggler_op(2, 0)
    assert bo_op(1, 0) != bo_op(2, 0)
    assert serve_pool(1) != serve_pool(2)


def _sweep_mix(seed, count):
    return Counter(
        (e["scheduler"], e["model"], e["cluster"], e["algorithm"])
        for op in _sweep_ops(seed, count)[1:]
        for e in op
    )


def _straggler_mix(seed, count):
    return Counter(
        (op["policy"], op["model"], op["nodes"],
         sum(scale != 1.0 for scale in op["compute_scales"]), op["faults"] is None)
        for op in (straggler_op(seed, k) for k in range(count))
    )


@pytest.mark.parametrize("count", (1, 7, 20, 33))
def test_mix_multiset_is_the_same_for_any_two_seeds(count):
    assert _sweep_mix(1, count) == _sweep_mix(2, count) == _sweep_mix(97, count)
    assert _straggler_mix(1, count) == _straggler_mix(2, count)
    bo_mix = [Counter((op["model"], op["cluster"]) for op in
                      (bo_op(seed, k) for k in range(count))) for seed in (1, 2)]
    assert bo_mix[0] == bo_mix[1]
    pool_mix = [Counter((p["scheduler"], p["model"], p["cluster"])
                        for p in serve_pool(seed)) for seed in (1, 2)]
    assert pool_mix[0] == pool_mix[1]


def test_sweep_cycle_covers_every_tuple_once_and_every_batch_is_mixed():
    mix = _sweep_mix(5, workloads.SWEEP_BATCHES_PER_CYCLE)
    expected = (len(workloads.SWEEP_SCHEDULERS) * len(workloads.MODELS)
                * len(workloads.FABRICS) * len(workloads.ALGORITHMS))
    assert len(mix) == expected and set(mix.values()) == {1}
    for op in _sweep_ops(5, workloads.SWEEP_BATCHES_PER_CYCLE)[1:]:
        assert [e["scheduler"] for e in op] == list(workloads.SWEEP_SCHEDULERS)
        assert {e["model"] for e in op} == set(workloads.MODELS)
    dear = [e for op in _sweep_ops(5, 3) for e in op if e["scheduler"] == "dear"]
    assert all(e["options"]["fusion"] == "buffer" for e in dear)


def test_models_match_the_zoo():
    from repro.models.zoo import MODEL_NAMES

    assert workloads.MODELS == MODEL_NAMES


def _assert_distinct(specs):
    fingerprints = [spec.fingerprint for spec in specs]
    assert len(set(fingerprints)) == len(fingerprints)


def test_sweep_specs_never_repeat_within_a_run():
    # Two full cycles plus the warm-up op: every tuple comes back once.
    ops = _sweep_ops(3, 2 * workloads.SWEEP_BATCHES_PER_CYCLE)
    _assert_distinct([sweep_spec(entry) for op in ops for entry in op])


def test_straggler_specs_never_repeat_within_a_run():
    specs = [straggler_spec(straggler_op(3, k)) for k in range(-1, 16)]
    assert all(len(spec.compute_scales) == 1024 for spec in specs)
    _assert_distinct(specs)


def test_bo_specs_never_repeat_within_a_run():
    specs = [bo_spec(bo_op(3, k)) for k in range(-1, 40)]
    assert all(dict(spec.options)["fusion"] == "bo" for spec in specs)
    _assert_distinct(specs)


def test_serve_pool_covers_every_timed_request():
    from repro.api import config_from_payload

    pool = serve_pool(4)
    pool_prints = {config_from_payload(p).to_spec().fingerprint for p in pool}
    assert len(pool_prints) == len(pool)
    requested = {serve_request(n, len(pool)) for n in range(5 * len(pool))}
    assert requested == set(range(len(pool)))
    for index in requested:
        spec = config_from_payload(pool[index]).to_spec()
        assert spec.fingerprint in pool_prints


def test_a_block_of_ops_holds_the_mix_in_equal_shares():
    sweep = workloads.SweepCold.block
    for first in range(0, 2 * workloads.SWEEP_BATCHES_PER_CYCLE, sweep):
        ops = [sweep_op(7, k) for k in range(first, first + sweep)]
        pairs = Counter((e["scheduler"], e["model"]) for op in ops for e in op)
        assert len(pairs) == len(workloads.SWEEP_SCHEDULERS) * len(workloads.MODELS)
        assert set(pairs.values()) == {1}
        assert len({(e["cluster"], e["algorithm"]) for op in ops for e in op}) == 1
    bo = workloads.BOTune.block
    for first in range(0, 3 * bo, bo):
        pairs = Counter((op["model"], op["cluster"])
                        for op in (bo_op(7, k) for k in range(first, first + bo)))
        assert len(pairs) == bo and set(pairs.values()) == {1}

"""Selection tables: build, lookup, serialise, register, and win."""

import json

import pytest

from repro.network.autotuner import (
    NO_TABLE,
    Selection,
    SelectionTable,
    TUNE_TABLE_SCHEMA,
    build_selection_table,
    candidate_selections,
    clear_tables,
    default_sweep_sizes,
    ensure_table,
    register_table,
    size_bucket,
    table_for,
)
from repro.network.cost_model import CollectiveTimeModel
from repro.network.presets import cluster_100gbib, cluster_10gbe
from repro.network.protocol import collective_time, governing_link


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_tables()
    yield
    clear_tables()


class TestSizeBuckets:
    def test_powers_of_two(self):
        assert size_bucket(1024.0) == 10
        assert size_bucket(1536.0) == 10
        assert size_bucket(2048.0) == 11

    def test_tiny_sizes_floor_at_zero(self):
        assert size_bucket(0.0) == 0
        assert size_bucket(1.0) == 0


class TestSelection:
    def test_label_round_trip(self):
        sel = Selection("halving_doubling", "ll128", 4)
        assert Selection.from_label(sel.label) == sel

    def test_malformed_label_rejected(self):
        with pytest.raises(ValueError):
            Selection.from_label("ring/simple/4")


class TestCandidates:
    def test_parity_config_comes_first(self):
        cluster = cluster_100gbib()
        first = candidate_selections(cluster)[0]
        link = governing_link(cluster)
        assert first == Selection("ring", "simple", link.channels)

    def test_10gbe_is_simple_only(self):
        protocols = {c.protocol for c in candidate_selections(cluster_10gbe())}
        assert protocols == {"simple"}

    def test_ib_has_all_tiers(self):
        protocols = {c.protocol for c in candidate_selections(cluster_100gbib())}
        assert protocols == {"simple", "ll", "ll128"}

    def test_non_pow2_world_drops_halving_doubling(self):
        cluster = cluster_10gbe(nodes=3, gpus_per_node=4)
        algorithms = {c.algorithm for c in candidate_selections(cluster)}
        assert "halving_doubling" not in algorithms
        assert "hierarchical" in algorithms


class TestTableBuild:
    def test_monotone_protocol_ordering_on_ib(self):
        """LL wins small buckets, Simple/LL128 the large ones (§NCCL)."""
        table = build_selection_table(cluster_100gbib())
        buckets = table.entries["all_reduce"]
        smallest = buckets[min(buckets)]
        largest = buckets[max(buckets)]
        assert smallest.protocol == "ll"
        assert largest.protocol in ("simple", "ll128")
        # Once a bucket leaves LL it never comes back (the crossover is
        # monotone: LL's beta tax grows linearly with size).
        seen_non_ll = False
        for bucket in sorted(buckets):
            if buckets[bucket].protocol != "ll":
                seen_non_ll = True
            elif seen_non_ll:
                pytest.fail(f"LL reappeared at bucket {bucket} after larger tiers")

    def test_10gbe_table_stays_simple(self):
        table = build_selection_table(cluster_10gbe())
        for buckets in table.entries.values():
            assert {sel.protocol for sel in buckets.values()} == {"simple"}

    def test_every_winner_beats_or_ties_ring(self):
        cluster = cluster_100gbib()
        table = build_selection_table(cluster)
        for nbytes in (4096.0, 1e6, 1e8):
            sel = table.lookup("all_reduce", nbytes)
            tuned = collective_time(
                "all_reduce", nbytes, cluster,
                algorithm=sel.algorithm, protocol=sel.protocol,
                channels=sel.channels,
            )
            assert tuned <= collective_time("all_reduce", nbytes, cluster)

    def test_hand_computed_crossover(self):
        """At P=64 on IB the small-message winner is halving-doubling+LL.

        log2(64)=6 rounds of alpha at a quarter latency beat 63 ring
        rounds by construction; at 4 KiB the bandwidth term is noise.
        """
        table = build_selection_table(cluster_100gbib())
        sel = table.lookup("all_reduce", 4096.0)
        assert sel.algorithm == "halving_doubling"
        assert sel.protocol == "ll"

    def test_custom_sizes_and_empty_rejected(self):
        with pytest.raises(ValueError):
            build_selection_table(cluster_10gbe(), sizes=[])
        with pytest.raises(ValueError):
            build_selection_table(cluster_10gbe(), sizes=[-1.0])
        table = build_selection_table(cluster_10gbe(), sizes=[1024.0, 2048.0])
        assert set(table.entries["all_reduce"]) == {10, 11}

    def test_evals_counter(self):
        from repro.telemetry.registry import default_registry

        counter = default_registry().counter(
            "autotuner.evals", "candidate-x-size cost evaluations during table builds"
        )
        before = counter.value(op="all_reduce")
        cluster = cluster_10gbe()
        sizes = default_sweep_sizes()
        build_selection_table(cluster, sizes=sizes)
        gained = counter.value(op="all_reduce") - before
        assert gained == len(candidate_selections(cluster)) * sizes.size


class TestLookup:
    def test_clamps_below_and_above_sweep(self):
        table = build_selection_table(cluster_100gbib())
        buckets = table.entries["all_reduce"]
        assert table.lookup("all_reduce", 16.0) == buckets[min(buckets)]
        assert table.lookup("all_reduce", 2.0**40) == buckets[max(buckets)]

    def test_sparse_buckets_snap_down(self):
        table = SelectionTable(
            "test-link", 8,
            {"all_reduce": {10: Selection("ring", "simple", 1),
                            20: Selection("tree", "simple", 1)}},
        )
        assert table.lookup("all_reduce", float(2**15)).algorithm == "ring"
        assert table.lookup("all_reduce", float(2**20)).algorithm == "tree"

    def test_unknown_op_misses(self):
        table = build_selection_table(cluster_10gbe())
        assert table.lookup("broadcast", 1e6) is None

    def test_all_to_all_tabled(self):
        table = build_selection_table(cluster_10gbe())
        assert table.lookup("all_to_all", 1e6) is not None

    def test_lookup_counters(self):
        from repro.telemetry.registry import default_registry

        lookups = default_registry().counter(
            "autotuner.lookups", "selection-table consultations"
        )
        hits_before = lookups.value(hit="yes")
        misses_before = lookups.value(hit="no")
        table = build_selection_table(cluster_10gbe())
        table.lookup("all_reduce", 1e6)
        table.lookup("broadcast", 1e6)
        assert lookups.value(hit="yes") - hits_before == 1
        assert lookups.value(hit="no") - misses_before == 1

    def test_no_table_always_misses(self):
        assert NO_TABLE.lookup("all_reduce", 1e6) is None


class TestSerialisation:
    def test_json_round_trip(self, tmp_path):
        table = build_selection_table(cluster_100gbib())
        path = table.save(tmp_path / "table.json")
        loaded = SelectionTable.load(path)
        assert loaded.entries == table.entries
        assert loaded.link_name == table.link_name
        assert loaded.world_size == table.world_size
        payload = json.loads(path.read_text())
        assert payload["schema"] == TUNE_TABLE_SCHEMA

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            SelectionTable.from_payload({"schema": "dear-tune-table-v0"})

    def test_payload_tuple_round_trip(self):
        table = build_selection_table(cluster_100gbib())
        clone = SelectionTable.from_payload_tuple(table.payload_tuple())
        assert clone.entries == table.entries
        assert clone.payload_tuple() == table.payload_tuple()


class TestRegistry:
    def test_register_and_lookup(self):
        cluster = cluster_100gbib()
        assert table_for(cluster) is None
        table = register_table(build_selection_table(cluster))
        assert table_for(cluster) is table
        clear_tables()
        assert table_for(cluster) is None

    def test_ensure_builds_once(self):
        cluster = cluster_10gbe()
        table = ensure_table(cluster)
        assert ensure_table(cluster) is table

    def test_keyed_by_link_and_world(self):
        register_table(build_selection_table(cluster_10gbe()))
        assert table_for(cluster_100gbib()) is None
        assert table_for(cluster_10gbe(nodes=32)) is None


class TestAutoAlgorithm:
    def test_auto_without_table_is_ring_bitwise(self):
        cluster = cluster_10gbe()
        ring = CollectiveTimeModel(cluster)
        auto = CollectiveTimeModel(cluster, algorithm="auto")
        for nbytes in (1.0, 1e3, 25e6, 1e9):
            assert auto.reduce_scatter(nbytes) == ring.reduce_scatter(nbytes)
            assert auto.all_gather(nbytes) == ring.all_gather(nbytes)
            assert auto.all_reduce(nbytes) == ring.all_reduce(nbytes)

    def test_auto_with_table_never_slower(self):
        cluster = cluster_100gbib()
        table = build_selection_table(cluster)
        ring = CollectiveTimeModel(cluster)
        auto = CollectiveTimeModel(cluster, algorithm="auto", table=table)
        for nbytes in (1e3, 1e5, 25e6, 1e9):
            assert auto.all_reduce(nbytes) <= ring.all_reduce(nbytes)

    def test_auto_finds_registered_table(self):
        cluster = cluster_100gbib()
        table = register_table(build_selection_table(cluster))
        auto = CollectiveTimeModel(cluster, algorithm="auto")
        assert auto._table is table
        assert "auto[" in auto.describe()

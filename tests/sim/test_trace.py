"""Unit tests for tracing, and for the tuple interval arithmetic that
serves as the exposed-time oracle (``tests/sim/interval_oracle.py``)."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.sim.trace import Tracer, actor_sort_index
from repro.telemetry.breakdown import exposed_in_window, total_in_window
from tests.sim.interval_oracle import (
    clip_to_window,
    merge_intervals,
    subtract_intervals,
    total_length,
)

#: A window that clips nothing.
WHOLE_RUN = (float("-inf"), float("inf"))


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_merge(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_touching_merge(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1), (0.5, 2)]) == [(0, 2), (5, 6)]

    def test_empty_intervals_dropped(self):
        assert merge_intervals([(1, 1), (2, 1)]) == []

    def test_nested_intervals(self):
        assert merge_intervals([(0, 10), (2, 3), (4, 5)]) == [(0, 10)]


class TestSubtractIntervals:
    def test_no_holes(self):
        assert subtract_intervals([(0, 5)], []) == [(0, 5)]

    def test_hole_in_middle(self):
        assert subtract_intervals([(0, 5)], [(2, 3)]) == [(0, 2), (3, 5)]

    def test_hole_covers_all(self):
        assert subtract_intervals([(1, 2)], [(0, 5)]) == []

    def test_hole_at_edges(self):
        assert subtract_intervals([(0, 10)], [(0, 2), (8, 10)]) == [(2, 8)]

    def test_multiple_bases(self):
        result = subtract_intervals([(0, 2), (4, 6)], [(1, 5)])
        assert result == [(0, 1), (5, 6)]

    def test_hole_before_base_ignored(self):
        assert subtract_intervals([(5, 6)], [(0, 1)]) == [(5, 6)]

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda ab: (min(ab), max(ab))
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda ab: (min(ab), max(ab))
            ),
            max_size=8,
        ),
    )
    def test_length_identity(self, base, holes):
        """|base \\ holes| + |base ∩ holes| == |base| (up to float eps)."""
        remaining = total_length(subtract_intervals(base, holes))
        # intersection = base minus (base minus holes)
        removed = total_length(base) - remaining
        assert 0 <= removed <= total_length(holes) + 1e-9
        assert remaining <= total_length(base) + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0, 50), st.floats(0, 50)).map(
                lambda ab: (min(ab), max(ab))
            ),
            max_size=6,
        )
    )
    def test_subtract_self_is_empty(self, intervals):
        assert subtract_intervals(intervals, intervals) == []


class TestTracer:
    def _tracer(self) -> Tracer:
        tracer = Tracer()
        tracer.record("ff.0", "ff", "gpu", 0.0, 1.0)
        tracer.record("bp.0", "bp", "gpu", 1.0, 3.0)
        tracer.record("ar.0", "comm.ar", "net", 2.0, 5.0)
        return tracer

    def test_filter_by_category(self):
        tracer = self._tracer()
        assert [s.name for s in tracer.filter(category="bp")] == ["bp.0"]

    def test_filter_by_actor(self):
        tracer = self._tracer()
        assert len(tracer.filter(actor="gpu")) == 2

    def test_filter_by_prefix(self):
        tracer = self._tracer()
        assert [s.name for s in tracer.filter(name_prefix="ar")] == ["ar.0"]

    def test_category_total(self):
        total = total_in_window(self._tracer(), ("comm.ar",), WHOLE_RUN)
        assert total == pytest.approx(3.0)

    def test_exposed_time_subtracts_compute(self):
        tracer = self._tracer()
        # comm spans 2..5, bp covers 2..3 -> exposed 3..5 = 2.0
        exposed = exposed_in_window(tracer, ("comm.ar",), WHOLE_RUN)
        assert exposed == pytest.approx(2.0)

    def test_exposed_time_fully_hidden(self):
        tracer = Tracer()
        tracer.record("c", "comm.ar", "net", 0.0, 1.0)
        tracer.record("k", "bp", "gpu", 0.0, 2.0)
        assert exposed_in_window(tracer, ("comm.ar",), WHOLE_RUN) == 0.0

    def test_chrome_trace_is_valid_json(self):
        payload = json.loads(self._tracer().to_chrome_trace())
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        sorts = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_sort_index"
        ]
        assert len(spans) == 3
        assert len(names) == 2  # one thread-name record per actor
        assert len(sorts) == 2  # plus one sort-index record per actor
        assert {m["args"]["name"] for m in names} == {"gpu", "net"}

    def test_span_duration(self):
        tracer = self._tracer()
        assert tracer.spans[1].duration == pytest.approx(2.0)

    def test_intervals_merged(self):
        tracer = Tracer()
        tracer.record("a", "x", "m", 0.0, 2.0)
        tracer.record("b", "x", "m", 1.0, 3.0)
        jobs = [(span.start, span.end, span.category) for span in tracer.spans]
        assert merge_intervals(clip_to_window(jobs, WHOLE_RUN)["x"]) == [(0.0, 3.0)]


class TestTracerEdgeCases:
    def test_zero_length_span_exports_with_zero_duration(self):
        tracer = Tracer()
        tracer.record("barrier", "sync", "gpu", 1.0, 1.0)
        payload = json.loads(tracer.to_chrome_trace())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["dur"] == 0.0

    def test_zero_length_span_contributes_no_time(self):
        tracer = Tracer()
        tracer.record("barrier", "comm.ar", "net", 1.0, 1.0)
        assert total_in_window(tracer, ("comm.ar",), WHOLE_RUN) == 0.0
        assert exposed_in_window(tracer, ("comm.ar",), WHOLE_RUN) == 0.0

    def test_exactly_touching_spans_do_not_hide_each_other(self):
        tracer = Tracer()
        tracer.record("k", "bp", "gpu", 0.0, 1.0)
        tracer.record("c", "comm.ar", "net", 1.0, 2.0)  # touches bp at t=1
        exposed = exposed_in_window(tracer, ("comm.ar",), WHOLE_RUN)
        assert exposed == pytest.approx(1.0)

    def test_chrome_json_round_trip(self):
        """Parse the export, rebuild a tracer, re-export: identical bytes."""
        tracer = Tracer()
        tracer.record("ff.0", "ff", "gpu.compute", 0.0, 1.5)
        tracer.record("ar.0", "comm.ar", "gpu.comm", 1.0, 2.25)
        text = tracer.to_chrome_trace()
        payload = json.loads(text)
        actors = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        rebuilt = Tracer()
        for event in payload["traceEvents"]:
            if event["ph"] != "X":
                continue
            start = event["ts"] / 1e6
            rebuilt.record(
                event["name"], event["cat"], actors[event["tid"]],
                start, start + event["dur"] / 1e6,
            )
        assert rebuilt.to_chrome_trace() == text


class TestCounterTracks:
    def test_bytes_in_flight_and_queue_depth_fold(self):
        tracer = Tracer()
        tracer.record("a", "comm.rs", "net", 0.0, 2.0, metadata={"bytes": 100})
        tracer.record("b", "comm.ag", "net", 1.0, 3.0, metadata={"bytes": 50})
        payload = json.loads(tracer.to_chrome_trace())
        bytes_track = [
            (e["ts"], e["args"]["bytes"])
            for e in payload["traceEvents"]
            if e["ph"] == "C" and e["name"] == "comm.bytes_in_flight"
        ]
        depth_track = [
            (e["ts"], e["args"]["depth"])
            for e in payload["traceEvents"]
            if e["ph"] == "C" and e["name"] == "comm.queue_depth"
        ]
        # Timestamps are microseconds; the overlap 1..2 carries both payloads.
        assert bytes_track == [
            (0.0, 100.0), (1e6, 150.0), (2e6, 50.0), (3e6, 0.0)
        ]
        assert depth_track == [(0.0, 1), (1e6, 2), (2e6, 1), (3e6, 0)]

    def test_non_comm_spans_do_not_create_counters(self):
        tracer = Tracer()
        tracer.record("ff", "ff", "gpu", 0.0, 1.0, metadata={"bytes": 100})
        payload = json.loads(tracer.to_chrome_trace())
        assert not [e for e in payload["traceEvents"] if e["ph"] == "C"]

    def test_explicit_counter_samples_export(self):
        tracer = Tracer()
        tracer.record("ff", "ff", "gpu", 0.0, 1.0)
        tracer.record_counter("queue.pending", 0.5, 3.0)
        payload = json.loads(tracer.to_chrome_trace())
        samples = [
            e for e in payload["traceEvents"]
            if e["ph"] == "C" and e["name"] == "queue.pending"
        ]
        assert samples == [
            {"name": "queue.pending", "ph": "C", "pid": 0,
             "ts": 0.5e6, "args": {"value": 3.0}}
        ]

    def test_counters_can_be_disabled(self):
        tracer = Tracer()
        tracer.record("a", "comm.rs", "net", 0.0, 1.0, metadata={"bytes": 8})
        payload = json.loads(tracer.to_chrome_trace(counters=False))
        assert not [e for e in payload["traceEvents"] if e["ph"] == "C"]


class TestFlowEvents:
    def _gradient_lifecycle(self) -> Tracer:
        tracer = Tracer()
        tracer.record("bp.0.3", "bp", "gpu.compute", 0.0, 1.0,
                      metadata={"flows": ["0.g0"]})
        tracer.record("rs.0.g0", "comm.rs", "gpu.comm", 1.0, 2.0,
                      metadata={"flow": "0.g0"})
        tracer.record("ag.0.g0", "comm.ag", "gpu.comm", 2.0, 3.0,
                      metadata={"flow": "0.g0"})
        tracer.record("ff.1.3", "ff", "gpu.compute", 3.0, 4.0,
                      metadata={"flows": ("0.g0",)})
        return tracer

    def test_chain_phases_and_binding(self):
        payload = json.loads(self._gradient_lifecycle().to_chrome_trace())
        flow = [e for e in payload["traceEvents"] if e.get("cat") == "flow"]
        assert [e["ph"] for e in flow] == ["s", "t", "t", "f"]
        # The arrow leaves the producer at its completion time and lands
        # on each consumer at its start.
        assert [e["ts"] for e in flow] == [1e6, 1e6, 2e6, 3e6]
        assert all(e["name"] == "0.g0" for e in flow)
        assert len({e["id"] for e in flow}) == 1
        assert flow[-1]["bp"] == "e"
        assert all("bp" not in e for e in flow[:-1])

    def test_single_span_flow_emits_nothing(self):
        tracer = Tracer()
        tracer.record("rs", "comm.rs", "net", 0.0, 1.0, metadata={"flow": "x"})
        payload = json.loads(tracer.to_chrome_trace())
        assert not [e for e in payload["traceEvents"] if e.get("cat") == "flow"]

    def test_flows_can_be_disabled(self):
        payload = json.loads(
            self._gradient_lifecycle().to_chrome_trace(flows=False)
        )
        assert not [e for e in payload["traceEvents"] if e.get("cat") == "flow"]

    def test_distinct_flow_ids_get_distinct_numbers(self):
        tracer = Tracer()
        for flow_id in ("0.g0", "0.g1"):
            tracer.record(f"bp.{flow_id}", "bp", "gpu", 0.0, 1.0,
                          metadata={"flow": flow_id})
            tracer.record(f"rs.{flow_id}", "comm.rs", "net", 1.0, 2.0,
                          metadata={"flow": flow_id})
        payload = json.loads(tracer.to_chrome_trace())
        flow = [e for e in payload["traceEvents"] if e.get("cat") == "flow"]
        assert {e["name"] for e in flow} == {"0.g0", "0.g1"}
        assert len({e["id"] for e in flow}) == 2


class TestActorSortIndex:
    def test_numeric_rank_ordering(self):
        actors = ["rank10.compute", "rank2.compute", "rank9.compute"]
        ordered = sorted(actors, key=actor_sort_index)
        assert ordered == ["rank2.compute", "rank9.compute", "rank10.compute"]

    def test_compute_row_sits_above_comm_row(self):
        actors = ["rank0.comm", "rank0.compute", "rank1.compute", "rank1.comm"]
        ordered = sorted(actors, key=actor_sort_index)
        assert ordered == [
            "rank0.compute", "rank0.comm", "rank1.compute", "rank1.comm"
        ]

    def test_unstructured_names_sort_last(self):
        actors = ["zebra", "gpu.compute", "gpu.comm"]
        ordered = sorted(actors, key=actor_sort_index)
        assert ordered == ["gpu.compute", "gpu.comm", "zebra"]

    def test_tids_follow_sort_order_in_export(self):
        tracer = Tracer()
        tracer.record("a", "comm.ar", "rank1.comm", 0.0, 1.0)
        tracer.record("b", "ff", "rank0.compute", 0.0, 1.0)
        tracer.record("c", "comm.ar", "rank0.comm", 0.0, 1.0)
        payload = json.loads(tracer.to_chrome_trace())
        names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {
            0: "rank0.compute", 1: "rank0.comm", 2: "rank1.comm"
        }

"""Timing-level fault injection: differential bit-identity, inflation,
fast-path fallback, and trace instants."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.network.cost_model import CollectiveTimeModel
from repro.schedulers.base import SCHEDULER_NAMES, simulate
from repro.telemetry.registry import (
    MetricsRegistry,
    reset_default_registry,
    set_default_registry,
)

ITERATIONS = 4

#: Whole-run link degradation: everything gets slower.
SLOW_LINK = FaultPlan(
    link_faults=(LinkFault(0.0, 1e9, alpha_factor=3.0, beta_factor=2.0,
                           link="both"),)
)

#: Whole-run compute straggler.
STRAGGLER = FaultPlan(stragglers=(StragglerFault(0.0, 1e9, compute_factor=1.4),))


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    set_default_registry(fresh)
    yield fresh
    reset_default_registry()


class TestEmptyPlanBitIdentity:
    """The acceptance differential: an empty plan IS the healthy run."""

    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_iteration_timeline_identical(self, scheduler, tiny_model,
                                          ethernet_cluster):
        healthy = simulate(scheduler, tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        empty = simulate(scheduler, tiny_model, ethernet_cluster,
                         iterations=ITERATIONS, faults=FaultPlan())
        assert empty.iteration_times == healthy.iteration_times
        assert empty.iteration_time == healthy.iteration_time
        assert empty.exposed_comm == healthy.exposed_comm
        assert "fault_plan" not in empty.extras

    @pytest.mark.parametrize("scheduler", ("dear", "wfbp", "bytescheduler"))
    def test_chrome_trace_byte_identical(self, scheduler, tiny_model,
                                         ethernet_cluster):
        healthy = simulate(scheduler, tiny_model, ethernet_cluster,
                           iterations=ITERATIONS, trace=True)
        empty = simulate(scheduler, tiny_model, ethernet_cluster,
                         iterations=ITERATIONS, faults=FaultPlan(), trace=True)
        assert empty.tracer.to_chrome_trace() == healthy.tracer.to_chrome_trace()


class TestTimingInflation:
    def test_link_fault_slows_communication(self, tiny_model, ethernet_cluster):
        healthy = simulate("dear", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        faulty = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=SLOW_LINK)
        assert faulty.iteration_time > healthy.iteration_time
        summary = faulty.extras["timing_faults"]
        assert summary["degraded_link_seconds"] > 0.0
        assert summary["straggler_seconds"] == 0.0
        assert summary["events"] > 0
        assert faulty.extras["fault_plan"] == SLOW_LINK.label()

    def test_straggler_slows_compute(self, tiny_model, ethernet_cluster):
        healthy = simulate("wfbp", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        faulty = simulate("wfbp", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=STRAGGLER)
        assert faulty.iteration_time > healthy.iteration_time
        summary = faulty.extras["timing_faults"]
        assert summary["straggler_seconds"] > 0.0
        assert summary["degraded_link_seconds"] == 0.0

    def test_windowed_fault_only_touches_the_window(self, tiny_model,
                                                    ethernet_cluster):
        healthy = simulate("dear", tiny_model, ethernet_cluster,
                           iterations=ITERATIONS)
        # Window ends before the simulation starts doing anything close
        # to its end: later iterations must be unperturbed.
        window = FaultPlan(
            link_faults=(LinkFault(0.0, healthy.iteration_times[0] * 0.5,
                                   alpha_factor=4.0, beta_factor=4.0,
                                   link="both"),)
        )
        faulty = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=window)
        assert faulty.iteration_times[0] >= healthy.iteration_times[0]
        assert faulty.iteration_times[-1] == pytest.approx(
            healthy.iteration_times[-1], rel=1e-9
        )

    def test_timing_faults_are_deterministic(self, tiny_model,
                                             ethernet_cluster):
        a = simulate("dear", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, faults=SLOW_LINK, trace=True)
        b = simulate("dear", tiny_model, ethernet_cluster,
                     iterations=ITERATIONS, faults=SLOW_LINK, trace=True)
        assert a.iteration_times == b.iteration_times
        assert a.tracer.to_chrome_trace() == b.tracer.to_chrome_trace()


class TestFastPathEngines:
    def test_faulty_run_stays_on_the_fast_path(self, registry, tiny_model,
                                               ethernet_cluster):
        """Priced placeholders keep faulty runs off the event kernel."""
        simulate("dear", tiny_model, ethernet_cluster, iterations=ITERATIONS,
                 faults=SLOW_LINK, fastpath=True)
        runs = registry.counter("sim.runs")
        assert runs.value(engine="fastpath") > 0
        assert runs.value(engine="event") == 0

    def test_healthy_run_keeps_the_fast_path(self, registry, tiny_model,
                                             ethernet_cluster):
        simulate("dear", tiny_model, ethernet_cluster, iterations=ITERATIONS,
                 fastpath=True)
        runs = registry.counter("sim.runs")
        assert runs.value(engine="fastpath") > 0
        assert runs.value(engine="event") == 0

    @pytest.mark.parametrize("plan", [SLOW_LINK, STRAGGLER],
                             ids=["slow-link", "straggler"])
    def test_faulty_fastpath_matches_event_kernel(self, plan, tiny_model,
                                                  ethernet_cluster):
        fast = simulate("dear", tiny_model, ethernet_cluster,
                        iterations=ITERATIONS, faults=plan, fastpath=True, trace=True)
        event_only = simulate("dear", tiny_model, ethernet_cluster,
                              iterations=ITERATIONS, faults=plan,
                              fastpath=False, trace=True)
        assert fast.iteration_times == event_only.iteration_times
        assert fast.extras["timing_faults"] == event_only.extras["timing_faults"]
        assert fast.tracer.to_chrome_trace() == event_only.tracer.to_chrome_trace()


class TestTraceInstants:
    def test_faulty_trace_carries_instant_events(self, tiny_model,
                                                 ethernet_cluster):
        result = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, faults=SLOW_LINK, trace=True)
        trace = json.loads(result.tracer.to_chrome_trace())
        instants = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert instants
        assert {e["name"] for e in instants} == {"fault.degraded_link"}
        for event in instants:
            assert event["s"] == "g"
            assert event["cat"] == "fault"
            assert "factors" in event["args"]

    def test_healthy_trace_has_no_instants(self, tiny_model,
                                           ethernet_cluster):
        result = simulate("dear", tiny_model, ethernet_cluster,
                          iterations=ITERATIONS, trace=True)
        trace = json.loads(result.tracer.to_chrome_trace())
        assert not [e for e in trace["traceEvents"] if e.get("ph") == "i"]


class TestDegradedCluster:
    def test_healthy_factors_return_self(self, ethernet_cluster):
        assert ethernet_cluster.degraded() is ethernet_cluster
        assert ethernet_cluster.degraded(1.0, 1.0, 1.0, 1.0) is ethernet_cluster

    def test_factors_scale_alpha_and_beta(self, ethernet_cluster):
        degraded = ethernet_cluster.degraded(
            inter_alpha=2.0, inter_beta=4.0, intra_alpha=3.0, intra_beta=5.0
        )
        assert degraded.inter_link.latency == \
            pytest.approx(2.0 * ethernet_cluster.inter_link.latency)
        # A beta cost factor of k divides bandwidth by k.
        assert degraded.inter_link.bandwidth == \
            pytest.approx(ethernet_cluster.inter_link.bandwidth / 4.0)
        assert degraded.intra_link.latency == \
            pytest.approx(3.0 * ethernet_cluster.intra_link.latency)
        assert degraded.intra_link.bandwidth == \
            pytest.approx(ethernet_cluster.intra_link.bandwidth / 5.0)
        assert "[degraded]" in degraded.name

    def test_degraded_cost_model_prices_higher(self, ethernet_cluster):
        healthy = CollectiveTimeModel(ethernet_cluster, algorithm="ring")
        degraded = CollectiveTimeModel(
            ethernet_cluster.degraded(2.0, 2.0, 2.0, 2.0), algorithm="ring"
        )
        nbytes = 25e6
        assert degraded.all_reduce(nbytes) > healthy.all_reduce(nbytes)
        assert degraded.reduce_scatter(nbytes) > healthy.reduce_scatter(nbytes)


class TestDegradedModelKeepsTuning:
    """A degraded link reprices the healthy model's own tuning, only slower.

    The degraded model must keep the selection table and the protocol
    settings: with the inter-link beta raised by ``FACTOR`` every price
    lands between the healthy price and ``FACTOR`` times it.  Rebuilding
    the degraded model as plain ring breaks both bounds.
    """

    FACTOR = 1.0001
    KINDS = ("reduce_scatter", "all_gather", "all_reduce", "all_to_all")
    SIZES = (4096, 10**6, 25 * 10**6, 2**30)

    def _tuned_models(self):
        from repro.network.autotuner import build_selection_table
        from repro.network.presets import cluster_100gbib

        cluster = cluster_100gbib()
        return {
            "auto+table": CollectiveTimeModel(
                cluster, algorithm="auto", table=build_selection_table(cluster)
            ),
            "ll128/c1": CollectiveTimeModel(cluster, protocol="ll128", channels=1),
        }

    def test_degraded_price_brackets_healthy(self):
        from repro.faults.timing import TimingFaultInjector

        plan = FaultPlan(link_faults=(LinkFault(0.0, 1e9, beta_factor=self.FACTOR),))
        for label, cost in self._tuned_models().items():
            injector = TimingFaultInjector(plan, cost)
            for kind in self.KINDS:
                for nbytes in self.SIZES:
                    healthy = getattr(cost, kind)(nbytes)
                    degraded = injector.collective_duration(kind, nbytes, 0.0, 0.5)
                    assert healthy <= degraded <= healthy * self.FACTOR, (
                        label, kind, nbytes
                    )

    def test_with_cluster_carries_every_setting(self, ethernet_cluster):
        from repro.network.autotuner import NO_TABLE

        cluster = ethernet_cluster.degraded(inter_beta=2.0)
        untabled = CollectiveTimeModel(ethernet_cluster, algorithm="auto", table=None)
        assert untabled.with_cluster(cluster)._table is None
        pinned = CollectiveTimeModel(ethernet_cluster, algorithm="auto", table=NO_TABLE)
        assert pinned.with_cluster(cluster)._table is NO_TABLE
        fixed = CollectiveTimeModel(
            ethernet_cluster, algorithm="tree", gamma=1e-10, startup_overhead=1e-3,
            channels=1, ring_chunks=4,
        ).with_cluster(cluster)
        assert fixed.cluster is cluster
        assert (fixed.algorithm, fixed.gamma, fixed.startup_overhead) == (
            "tree", 1e-10, 1e-3
        )
        assert (fixed.protocol, fixed.channels, fixed.ring_chunks) == (None, 1, 4)


# -- vectorised rank pricing ----------------------------------------------------

#: Window edges and starts share one grid, so starts land on edges.
_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)
#: 2.0 x 0.5 and 4.0 x 0.25 multiply to exactly 1.0 where windows
#: overlap; 1.1, 1.3 and 0.7 round, so the fold order shows.
_FACTORS = (0.25, 0.5, 0.7, 1.0, 1.1, 1.3, 1.5, 2.0, 4.0)


@st.composite
def _windows(draw):
    start = draw(st.sampled_from(_EDGES[:-1]))
    end = draw(st.sampled_from([edge for edge in _EDGES if edge > start]))
    return StragglerFault(start, end, compute_factor=draw(st.sampled_from(_FACTORS)))


@st.composite
def _pricing_cases(draw):
    world = draw(st.integers(1, 12))
    instant = st.one_of(
        st.sampled_from(_EDGES),
        st.floats(0.0, 1.25, allow_nan=False, allow_infinity=False),
    )
    base = st.one_of(
        st.just(0.0), st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    )
    slots = draw(st.lists(
        st.tuples(
            st.lists(base, min_size=world, max_size=world),
            st.lists(instant, min_size=world, max_size=world),
            # A collective priced after the slot, or none.
            st.one_of(st.none(), instant),
        ),
        min_size=1, max_size=4,
    ))
    plan = FaultPlan(
        stragglers=tuple(draw(st.lists(_windows(), min_size=1, max_size=3))),
        link_faults=(LinkFault(0.25, 0.75, beta_factor=2.0),),
    )
    return plan, slots


def _bits(value):
    """``value`` with every float replaced by its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(item) for item in value]
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    return value


#: Three overlapping windows whose product depends on the fold order,
#: a start on a window edge, a zero base and a rank outside every window.
_ORDERED_CASE = (
    FaultPlan(
        stragglers=(
            StragglerFault(0.0, 1.0, compute_factor=0.7),
            StragglerFault(0.0, 0.75, compute_factor=1.3),
            StragglerFault(0.25, 1.0, compute_factor=1.1),
        ),
        link_faults=(LinkFault(0.25, 0.75, beta_factor=2.0),),
    ),
    [([0.3, 0.0, 0.1, 0.2], [0.5, 0.25, 1.0, 0.25], 0.5)],
)


class TestRankPricing:
    @settings(deadline=None, max_examples=150)
    @given(case=_pricing_cases())
    @example(case=_ORDERED_CASE)
    def test_vectorised_resolve_matches_scalar_loop(self, case,
                                                    ethernet_cluster):
        """``RankPricedCompute.resolve`` is the scalar
        ``compute_duration`` loop bit for bit: durations, the straggler
        total and the expanded marker log, collective markers
        interleaved in the same order."""
        from repro.faults.timing import RankPricedCompute, TimingFaultInjector

        plan, slots = case
        cost = CollectiveTimeModel(ethernet_cluster)
        vectorised = TimingFaultInjector(plan, cost)
        scalar = TimingFaultInjector(plan, cost)
        for bases, starts, collective in slots:
            durations = RankPricedCompute(vectorised, np.array(bases)).resolve(
                np.array(starts)
            )
            expected = [
                scalar.compute_duration(base, start)
                for base, start in zip(bases, starts)
            ]
            assert _bits(durations.tolist()) == _bits(expected)
            if collective is not None:
                for injector in (vectorised, scalar):
                    injector.collective_duration("all_reduce", 4e6, 0.0, collective)
        assert _bits(vectorised.straggler_seconds) == _bits(scalar.straggler_seconds)
        rows = list(vectorised.event_rows())
        assert _bits(rows) == _bits(scalar.events)
        assert vectorised.summary() == scalar.summary()
        assert vectorised.summary()["events"] == len(rows)

    @settings(deadline=None, max_examples=100)
    @given(case=_pricing_cases(), data=st.data())
    def test_lanes_price_every_rank_like_the_scalar_loop(self, case, data,
                                                         ethernet_cluster):
        """Pricing per lane — one base and start per rank class — with
        the rank-to-lane index is the scalar loop over the ranks: lane
        durations expand to the ranks' durations, and the straggler
        total and markers keep rank order."""
        from repro.faults.timing import RankPricedCompute, TimingFaultInjector

        plan, slots = case
        lanes = len(slots[0][0])
        world = data.draw(st.integers(lanes, 3 * lanes))
        inverse = np.array(data.draw(st.permutations(
            list(range(lanes)) + data.draw(st.lists(
                st.integers(0, lanes - 1), min_size=world - lanes,
                max_size=world - lanes,
            ))
        )))
        cost = CollectiveTimeModel(ethernet_cluster)
        vectorised = TimingFaultInjector(plan, cost)
        scalar = TimingFaultInjector(plan, cost)
        for bases, starts, collective in slots:
            durations = RankPricedCompute(
                vectorised, np.array(bases), inverse
            ).resolve(np.array(starts))
            assert durations.shape == (lanes,)
            expected = [
                scalar.compute_duration(bases[lane], starts[lane])
                for lane in inverse.tolist()
            ]
            assert _bits(durations[inverse].tolist()) == _bits(expected)
            if collective is not None:
                for injector in (vectorised, scalar):
                    injector.collective_duration("all_reduce", 4e6, 0.0, collective)
        assert _bits(vectorised.straggler_seconds) == _bits(scalar.straggler_seconds)
        assert _bits(list(vectorised.event_rows())) == _bits(scalar.events)
        assert vectorised.summary() == scalar.summary()

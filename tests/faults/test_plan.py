"""FaultPlan: validation, classification, queries, canonical identity."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    RankFailure,
    StragglerFault,
    normalize_plan,
)


class TestValidation:
    def test_probabilities_bounded(self):
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="dup_prob"):
            FaultPlan(dup_prob=-0.1)

    def test_probabilities_sum(self):
        with pytest.raises(ValueError, match="sum"):
            FaultPlan(drop_prob=0.5, dup_prob=0.4, delay_prob=0.2)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="fault_budget"):
            FaultPlan(fault_budget=-1)

    def test_rank_failure_validation(self):
        with pytest.raises(ValueError, match="rank"):
            RankFailure(rank=-1)
        with pytest.raises(ValueError, match="after_collectives"):
            RankFailure(rank=0, after_collectives=-1)

    def test_link_fault_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            LinkFault(1.0, 1.0)
        with pytest.raises(ValueError, match="start"):
            LinkFault(-1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            LinkFault(0.0, 1.0, alpha_factor=0.0)
        with pytest.raises(ValueError, match="scope"):
            LinkFault(0.0, 1.0, link="wan")

    def test_straggler_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            StragglerFault(2.0, 1.0)
        with pytest.raises(ValueError, match="compute_factor"):
            StragglerFault(0.0, 1.0, compute_factor=-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StragglerFault(0, 1, compute_factor=float("nan")),
            lambda: StragglerFault(0, 1, compute_factor=float("inf")),
            lambda: StragglerFault(float("nan"), 1.0),
            lambda: StragglerFault(float("inf"), float("inf")),
            lambda: StragglerFault(0.0, float("nan")),
            lambda: LinkFault(0.0, 1.0, beta_factor=float("nan")),
            lambda: LinkFault(0.0, 1.0, alpha_factor=float("inf")),
            lambda: LinkFault(float("nan"), 1.0),
            lambda: LinkFault(0.0, float("nan")),
        ],
        ids=[
            "straggler-factor-nan", "straggler-factor-inf",
            "straggler-start-nan", "straggler-start-inf",
            "straggler-end-nan", "link-beta-nan", "link-alpha-inf",
            "link-start-nan", "link-end-nan",
        ],
    )
    def test_non_finite_windows_and_factors_are_rejected(self, make):
        with pytest.raises(ValueError, match="finite|number"):
            make()

    def test_open_ended_window_is_accepted(self):
        assert StragglerFault(0.5, float("inf")).active(1e12)
        assert LinkFault(0.0, float("inf"), beta_factor=2.0).active(0.0)

    def test_lists_become_tuples(self):
        plan = FaultPlan(rank_failures=[RankFailure(0)])
        assert isinstance(plan.rank_failures, tuple)
        assert hash(plan)  # stays hashable


class TestClassification:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan.has_data_faults
        assert not plan.has_timing_faults

    def test_zero_budget_silences_message_faults(self):
        plan = FaultPlan(drop_prob=0.5, fault_budget=0)
        assert not plan.has_message_faults
        assert plan.is_empty

    def test_data_faults(self):
        assert FaultPlan(drop_prob=0.1).has_data_faults
        assert FaultPlan(rank_failures=(RankFailure(0),)).has_data_faults
        assert not FaultPlan(link_faults=(LinkFault(0, 1),)).has_data_faults

    def test_timing_faults(self):
        assert FaultPlan(link_faults=(LinkFault(0, 1),)).has_timing_faults
        assert FaultPlan(stragglers=(StragglerFault(0, 1),)).has_timing_faults
        assert not FaultPlan(drop_prob=0.1).has_timing_faults


class TestTimingQueries:
    def test_compute_factor_window(self):
        plan = FaultPlan(stragglers=(StragglerFault(1.0, 2.0, compute_factor=3.0),))
        assert plan.compute_factor(0.5) == 1.0
        assert plan.compute_factor(1.0) == 3.0
        assert plan.compute_factor(1.999) == 3.0
        assert plan.compute_factor(2.0) == 1.0  # end-exclusive

    def test_overlapping_stragglers_compose(self):
        plan = FaultPlan(
            stragglers=(
                StragglerFault(0.0, 2.0, compute_factor=2.0),
                StragglerFault(1.0, 3.0, compute_factor=1.5),
            )
        )
        assert plan.compute_factor(1.5) == pytest.approx(3.0)

    def test_link_factors_by_scope(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault(0, 10, alpha_factor=2.0, beta_factor=3.0, link="inter"),
                LinkFault(0, 10, alpha_factor=5.0, beta_factor=7.0, link="intra"),
            )
        )
        assert plan.link_factors(5.0) == (2.0, 3.0, 5.0, 7.0)
        assert plan.link_factors(11.0) == (1.0, 1.0, 1.0, 1.0)

    def test_link_scope_both(self):
        plan = FaultPlan(
            link_faults=(LinkFault(0, 1, alpha_factor=2.0, beta_factor=2.0,
                                   link="both"),)
        )
        assert plan.link_factors(0.5) == (2.0, 2.0, 2.0, 2.0)


class TestIdentity:
    def test_payload_round_trip(self):
        plan = FaultPlan(
            seed=7,
            drop_prob=0.1,
            dup_prob=0.05,
            delay_prob=0.02,
            fault_budget=12,
            rank_failures=(RankFailure(2, after_collectives=3),),
            link_faults=(LinkFault(0.5, 1.5, alpha_factor=2.0,
                                   beta_factor=4.0, link="intra"),),
            stragglers=(StragglerFault(1.0, 2.0, compute_factor=1.7),),
        )
        assert FaultPlan.from_payload(plan.canonical_payload()) == plan

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-plan fields"):
            FaultPlan.from_payload({"seed": 1, "jitterbug": True})

    def test_label_mentions_active_faults(self):
        plan = FaultPlan(seed=3, drop_prob=0.1,
                         rank_failures=(RankFailure(0),))
        label = plan.label()
        assert "seed=3" in label and "drop=0.1" in label and "deaths=1" in label


class TestNormalize:
    def test_none_passthrough(self):
        assert normalize_plan(None) is None

    def test_empty_collapses_to_none(self):
        assert normalize_plan(FaultPlan()) is None
        assert normalize_plan(FaultPlan(drop_prob=0.5, fault_budget=0)) is None

    def test_non_empty_passthrough(self):
        plan = FaultPlan(drop_prob=0.1)
        assert normalize_plan(plan) is plan

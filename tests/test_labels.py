"""Unit tests for label intervals and range-based labeling (Section 3.3.1)."""

import math

import numpy as np
import pytest

from repro.core import (
    Interval,
    LabelRule,
    NamedLabeling,
    RangeLabeling,
    ValidationError,
    five_stars_rules,
    validate_ranges,
)
from repro.core.labels import find_gaps

INF = float("inf")


class TestInterval:
    def test_closed_open_membership(self):
        interval = Interval(0.0, 0.9, True, False)
        assert interval.contains(0.0)
        assert interval.contains(0.5)
        assert not interval.contains(0.9)
        assert not interval.contains(-0.1)

    def test_open_closed_membership(self):
        interval = Interval(1.1, INF, False, False)
        assert not interval.contains(1.1)
        assert interval.contains(1e9)

    def test_degenerate_point_interval(self):
        interval = Interval(2.0, 2.0, True, True)
        assert interval.contains(2.0)
        assert not interval.contains(2.0001)

    def test_degenerate_open_rejected(self):
        with pytest.raises(ValidationError):
            Interval(2.0, 2.0, True, False)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 1.0, True, True)

    def test_infinite_bounds_forced_open(self):
        interval = Interval(-INF, 0.0, True, True)
        assert not interval.low_closed

    def test_mask_excludes_nan(self):
        interval = Interval(0.0, 1.0, True, True)
        values = np.array([0.5, float("nan"), 2.0])
        assert interval.mask(values).tolist() == [True, False, False]

    def test_render_round_trip_shapes(self):
        assert Interval(0, 0.9, True, False).render() == "[0, 0.9)"
        assert Interval(-INF, -0.2, False, False).render() == "(-inf, -0.2)"
        assert Interval(1.1, INF, False, False).render() == "(1.1, inf)"


class TestValidateRanges:
    def test_overlap_rejected(self):
        rules = [
            LabelRule(Interval(0, 1, True, True), "a"),
            LabelRule(Interval(0.5, 2, True, True), "b"),
        ]
        with pytest.raises(ValidationError):
            validate_ranges(rules)

    def test_shared_closed_endpoint_rejected(self):
        rules = [
            LabelRule(Interval(0, 1, True, True), "a"),
            LabelRule(Interval(1, 2, True, True), "b"),
        ]
        with pytest.raises(ValidationError):
            validate_ranges(rules)

    def test_touching_half_open_ok(self):
        rules = [
            LabelRule(Interval(0, 1, True, False), "a"),
            LabelRule(Interval(1, 2, True, True), "b"),
        ]
        validate_ranges(rules)  # must not raise

    def test_completeness_gap_detected(self):
        rules = [
            LabelRule(Interval(-INF, 0, False, False), "a"),
            LabelRule(Interval(1, INF, True, False), "b"),
        ]
        validate_ranges(rules)  # gaps allowed
        assert [gap.render() for gap in find_gaps(rules)] == ["[0, 1)"]

    def test_completeness_open_endpoint_gap(self):
        rules = [
            LabelRule(Interval(-INF, 0, False, False), "a"),
            LabelRule(Interval(0, INF, False, False), "b"),  # 0 uncovered
        ]
        assert [gap.render() for gap in find_gaps(rules)] == ["[0, 0]"]

    def test_complete_partition_accepted(self):
        rules = [
            LabelRule(Interval(-INF, 0, False, False), "a"),
            LabelRule(Interval(0, INF, True, False), "b"),
        ]
        validate_ranges(rules)
        assert find_gaps(rules) == []

    def test_empty_rules_rejected(self):
        with pytest.raises(ValidationError):
            validate_ranges([])


class TestRangeLabeling:
    def paper_rules(self):
        return RangeLabeling(
            [
                LabelRule(Interval(0, 0.9, True, False), "bad"),
                LabelRule(Interval(0.9, 1.1, True, True), "acceptable"),
                LabelRule(Interval(1.1, INF, False, False), "good"),
            ]
        )

    def test_example_1_1_semantics(self):
        labeling = self.paper_rules()
        assert labeling.apply_scalar(0.5) == "bad"
        assert labeling.apply_scalar(1.0) == "acceptable"
        assert labeling.apply_scalar(1.1) == "acceptable"
        assert labeling.apply_scalar(5.0) == "good"

    def test_gap_and_nan_get_none(self):
        labeling = self.paper_rules()
        assert labeling.apply_scalar(-1.0) is None
        assert labeling.apply_scalar(float("nan")) is None
        assert labeling.apply_scalar(None) is None

    def test_vectorised_apply(self):
        labeling = self.paper_rules()
        values = np.array([0.1, 1.0, 2.0, float("nan")])
        assert labeling.apply(values).tolist() == ["bad", "acceptable", "good", None]

    def test_rules_sorted_on_construction(self):
        unordered = RangeLabeling(
            [
                LabelRule(Interval(1.1, INF, False, False), "good"),
                LabelRule(Interval(0, 0.9, True, False), "bad"),
            ]
        )
        assert unordered.labels == ("bad", "good")

    def test_overlapping_rules_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            RangeLabeling(
                [
                    LabelRule(Interval(0, 2, True, True), "a"),
                    LabelRule(Interval(1, 3, True, True), "b"),
                ]
            )

    def test_render(self):
        assert self.paper_rules().render() == (
            "{[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf): good}"
        )


class TestFiveStars:
    def test_example_3_3(self):
        labeling = RangeLabeling(five_stars_rules())
        # Example 3.3: two min-max-normalized differences map to * and *****
        assert labeling.apply_scalar(-1.0) == "*"
        assert labeling.apply_scalar(1.0) == "*****"
        assert labeling.apply_scalar(0.0) == "***"
        assert labeling.apply_scalar(-0.6) == "*"
        assert labeling.apply_scalar(0.61) == "*****"

    def test_partition_complete_over_domain(self):
        assert find_gaps(five_stars_rules(), -1.0, 1.0) == []


class TestNamedLabeling:
    def test_render_and_equality(self):
        assert NamedLabeling("quartiles").render() == "quartiles"
        assert NamedLabeling("a") == NamedLabeling("a")
        assert NamedLabeling("a") != NamedLabeling("b")

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            NamedLabeling("")


class TestVectorisedApplyOracle:
    """The slot-counting ``apply`` must agree with the per-cell oracle."""

    def cases(self):
        yield RangeLabeling(five_stars_rules())
        yield RangeLabeling.from_cutpoints([0.0, 0.9, 1.1], ["awful", "bad", "ok", "good"])
        # gaps, a degenerate point interval, and mixed closedness
        yield RangeLabeling(
            [
                LabelRule(Interval(-INF, -2, False, False), "low"),
                LabelRule(Interval(-2, -2, True, True), "exactly"),
                LabelRule(Interval(0, 1, False, True), "unit"),
                LabelRule(Interval(3, INF, True, False), "high"),
            ]
        )
        # one rule over everything; two rules meeting between adjacent floats
        yield RangeLabeling([LabelRule(Interval(-INF, INF, False, False), "all")])
        yield RangeLabeling(
            [
                LabelRule(Interval(0, 1, True, False), "a"),
                LabelRule(Interval(1, float(np.nextafter(1, INF)), True, True), "b"),
            ]
        )

    def probes(self, labeling):
        edges = []
        for rule in labeling.rules:
            for bound in (rule.interval.low, rule.interval.high):
                if math.isfinite(bound):
                    edges += [
                        bound,
                        float(np.nextafter(bound, -INF)),
                        float(np.nextafter(bound, INF)),
                    ]
        rng = np.random.default_rng(7)
        return np.array(
            edges + list(rng.uniform(-10, 10, 64))
            + [math.nan, -1e308, 1e308, -INF, INF, 0.0, -0.0],
            dtype=np.float64,
        )

    def test_matches_oracle_on_edges_and_random_values(self):
        for labeling in self.cases():
            values = self.probes(labeling)
            assert labeling.apply(values).tolist() == labeling.apply_python(values).tolist()

    def test_empty_column(self):
        labeling = RangeLabeling(five_stars_rules())
        assert labeling.apply(np.array([], dtype=np.float64)).tolist() == []

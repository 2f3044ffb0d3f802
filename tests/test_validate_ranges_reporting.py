"""The label-range rules enumerate *every* defect: all overlapping pairs
and all uncovered gaps, not just the first; validate_ranges raises the
first overlap."""

from __future__ import annotations

import pytest

from repro.core.errors import ValidationError
from repro.core.labels import (
    Interval,
    LabelRule,
    find_gaps,
    find_overlaps,
    validate_ranges,
)
from repro.core.rules import label_gap_findings, label_overlap_findings


def rule(low, high, label, low_closed=True, high_closed=True):
    return LabelRule(Interval(low, high, low_closed, high_closed), label)


# ----------------------------------------------------------------------
# find_overlaps — every pair, in range order
# ----------------------------------------------------------------------
class TestFindOverlaps:
    def test_no_overlaps(self):
        assert find_overlaps([rule(0, 1, "a", high_closed=False), rule(1, 2, "b")]) == []

    def test_all_pairs_reported(self):
        rules = [rule(0, 5, "a"), rule(3, 8, "b"), rule(4, 9, "c")]
        pairs = [(p.label, c.label) for p, c in find_overlaps(rules)]
        assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_order_independent_of_input(self):
        rules = [rule(4, 9, "c"), rule(0, 5, "a"), rule(3, 8, "b")]
        pairs = [(p.label, c.label) for p, c in find_overlaps(rules)]
        assert pairs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_containment_counts_as_overlap(self):
        pairs = find_overlaps([rule(0, 10, "outer"), rule(2, 3, "inner")])
        assert len(pairs) == 1


# ----------------------------------------------------------------------
# find_gaps — every maximal uncovered region
# ----------------------------------------------------------------------
class TestFindGaps:
    def test_complete_cover_has_no_gaps(self):
        rules = [
            rule(float("-inf"), 0, "lo", low_closed=False, high_closed=False),
            rule(0, float("inf"), "hi", high_closed=False),
        ]
        assert find_gaps(rules) == []

    def test_gaps_enumerated(self):
        gaps = find_gaps([rule(0, 1, "a"), rule(2, 3, "b")])
        rendered = [gap.render() for gap in gaps]
        assert rendered == ["(-inf, 0)", "(1, 2)", "(3, inf)"]

    def test_point_gap_between_open_neighbours(self):
        rules = [
            rule(0, 1, "a", high_closed=False),
            rule(1, 2, "b", low_closed=False),
        ]
        gaps = find_gaps(rules, 0, 2)
        assert [gap.render() for gap in gaps] == ["[1, 1]"]

    def test_bounded_domain(self):
        gaps = find_gaps([rule(2, 3, "a")], 0, 10)
        assert [gap.render() for gap in gaps] == ["[0, 2)", "(3, 10]"]

    def test_empty_rule_set_is_one_big_gap(self):
        gaps = find_gaps([], 0, 1)
        assert [gap.render() for gap in gaps] == ["[0, 1]"]


# ----------------------------------------------------------------------
# the rules enumerate the complete defect set; validate_ranges raises one
# ----------------------------------------------------------------------
class TestValidateRanges:
    def test_accepts_valid_partition(self):
        validate_ranges(
            [
                rule(float("-inf"), 0, "lo", high_closed=False),
                rule(0, float("inf"), "hi"),
            ]
        )

    def test_rejects_empty_rule_set(self):
        with pytest.raises(ValidationError, match="at least one range"):
            validate_ranges([])

    def test_message_enumerates_every_overlapping_pair(self):
        rules = [rule(0, 5, "a"), rule(3, 8, "b"), rule(4, 9, "c")]
        messages = [message for _, (_, message) in label_overlap_findings(rules)]
        assert messages == [
            "label ranges [0, 5] and [3, 8] overlap",
            "label ranges [0, 5] and [4, 9] overlap",
            "label ranges [3, 8] and [4, 9] overlap",
        ]
        with pytest.raises(ValidationError) as excinfo:
            validate_ranges(rules)
        assert str(excinfo.value) == messages[0]

    def test_message_enumerates_every_gap(self):
        ((code, message),) = label_gap_findings([rule(0, 1, "a"), rule(2, 3, "b")])
        assert code == "ASSESS130"
        assert "(-inf, 0)" in message
        assert "(1, 2)" in message
        assert "(3, inf)" in message

    def test_gaps_allowed_without_require_complete(self):
        validate_ranges([rule(0, 1, "a"), rule(2, 3, "b")])

"""Label intervals and range-based labeling specifications (Section 3.3.1).

A range-based labeling function maps real comparison values to labels via a
set of intervals.  The paper requires the set of ranges to be *complete* and
*non-overlapping* — every comparison value must receive exactly one label.
:func:`validate_ranges` rejects an overlapping set; a gap, whose values
receive the null label, is reported (ASSESS130) but allowed.  Both rules
are written once, in :mod:`repro.core.rules`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError

NEG_INF = float("-inf")
POS_INF = float("inf")


class Interval:
    """A real interval with independently open/closed endpoints.

    Written in the statement syntax as ``[low, high)`` etc.; infinite bounds
    are spelled ``-inf`` / ``inf`` and are always treated as open.
    """

    __slots__ = ("low", "high", "low_closed", "high_closed")

    def __init__(self, low: float, high: float, low_closed: bool, high_closed: bool):
        low = float(low)
        high = float(high)
        if math.isinf(low):
            low_closed = False
        if math.isinf(high):
            high_closed = False
        if low > high:
            raise ValidationError(f"empty interval: low {low} > high {high}")
        if low == high and not (low_closed and high_closed):
            raise ValidationError(f"degenerate interval at {low} must be closed on both ends")
        self.low = low
        self.high = high
        self.low_closed = low_closed
        self.high_closed = high_closed

    def contains(self, value: float) -> bool:
        """Whether a value falls inside the interval."""
        if value < self.low or value > self.high:
            return False
        if value == self.low and not self.low_closed:
            return False
        if value == self.high and not self.high_closed:
            return False
        return True

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Vectorised membership over a float column (NaN never matches)."""
        lower = values >= self.low if self.low_closed else values > self.low
        upper = values <= self.high if self.high_closed else values < self.high
        return lower & upper

    def render(self) -> str:
        """Render back to the surface syntax, e.g. ``[0, 0.9)``."""
        left = "[" if self.low_closed else "("
        right = "]" if self.high_closed else ")"
        return f"{left}{_render_bound(self.low)}, {_render_bound(self.high)}{right}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interval) and (
            other.low,
            other.high,
            other.low_closed,
            other.high_closed,
        ) == (self.low, self.high, self.low_closed, self.high_closed)

    def __hash__(self) -> int:
        return hash(("Interval", self.low, self.high, self.low_closed, self.high_closed))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _render_bound(bound: float) -> str:
    if bound == POS_INF:
        return "inf"
    if bound == NEG_INF:
        return "-inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class LabelRule:
    """One ``interval: label`` rule of a range-based labeling function."""

    __slots__ = ("interval", "label")

    def __init__(self, interval: Interval, label: str):
        self.interval = interval
        self.label = label

    def render(self) -> str:
        return f"{self.interval.render()}: {self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelRule) and (other.interval, other.label) == (
            self.interval,
            self.label,
        )

    def __hash__(self) -> int:
        return hash(("LabelRule", self.interval, self.label))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def _sorted_rules(rules: Sequence[LabelRule]) -> List[LabelRule]:
    return sorted(rules, key=lambda rule: (rule.interval.low, not rule.interval.low_closed))


def find_overlaps(rules: Sequence[LabelRule]) -> List[Tuple[LabelRule, LabelRule]]:
    """Every pair of rules whose intervals share at least one value.

    Pairs are returned in range order (not just the first collision), so
    callers can report the complete defect set at once.
    """
    ordered = _sorted_rules(rules)
    overlapping: List[Tuple[LabelRule, LabelRule]] = []
    for i, earlier in enumerate(ordered):
        for later in ordered[i + 1:]:
            p, c = earlier.interval, later.interval
            if c.low > p.high:
                break  # sorted by low: no later rule can reach back into p
            overlaps = c.low < p.high or (
                c.low == p.high and p.high_closed and c.low_closed
            )
            if overlaps:
                overlapping.append((earlier, later))
    return overlapping


def find_gaps(
    rules: Sequence[LabelRule],
    domain_low: float = NEG_INF,
    domain_high: float = POS_INF,
) -> List[Interval]:
    """Every maximal uncovered interval of ``[domain_low, domain_high]``.

    Each returned :class:`Interval` is a region where a comparison value
    would receive the null label.  Degenerate single-point gaps (two open
    endpoints touching) are reported as closed ``[x, x]`` intervals.
    Overlapping rule sets should be rejected first; gaps are still computed
    on a best-effort basis.
    """
    if not rules:
        bounds_open_low = math.isinf(domain_low)
        bounds_open_high = math.isinf(domain_high)
        return [
            Interval(domain_low, domain_high, not bounds_open_low, not bounds_open_high)
        ]
    ordered = _sorted_rules(rules)
    gaps: List[Interval] = []

    first = ordered[0].interval
    if first.low > domain_low:
        gaps.append(
            Interval(
                domain_low, first.low, not math.isinf(domain_low), not first.low_closed
            )
        )
    elif first.low == domain_low and not first.low_closed and not math.isinf(domain_low):
        gaps.append(Interval(domain_low, domain_low, True, True))

    covered_high, covered_high_closed = first.high, first.high_closed
    for rule in ordered[1:]:
        c = rule.interval
        if c.low > covered_high:
            gaps.append(Interval(covered_high, c.low, not covered_high_closed, not c.low_closed))
        elif c.low == covered_high and not covered_high_closed and not c.low_closed:
            gaps.append(Interval(c.low, c.low, True, True))
        if (c.high, c.high_closed) >= (covered_high, covered_high_closed):
            covered_high, covered_high_closed = c.high, c.high_closed

    if covered_high < domain_high:
        gaps.append(
            Interval(
                covered_high, domain_high, not covered_high_closed, not math.isinf(domain_high)
            )
        )
    elif covered_high == domain_high and not covered_high_closed and not math.isinf(domain_high):
        gaps.append(Interval(domain_high, domain_high, True, True))
    return gaps


def validate_ranges(rules: Sequence[LabelRule]) -> None:
    """Check that a rule set is non-empty and non-overlapping.

    The paper puts the user "in charge of ensuring that the set of ranges is
    complete and non-overlapping".  An overlapping set has no well-defined
    semantics, so its first overlapping pair raises — the ASSESS131 rule of
    :func:`repro.core.rules.label_overlap_findings`, which the statement
    passes report pair by pair.  A gap is no error (values there receive
    the null label); :func:`find_gaps` enumerates them.
    """
    from .rules import label_overlap_findings, raise_first

    if not rules:
        raise ValidationError("labeling function needs at least one range")
    raise_first(finding for _, finding in label_overlap_findings(rules))


class LabelingSpec:
    """Base class for the ``labels`` clause alternatives."""

    def render(self) -> str:
        raise NotImplementedError


class RangeLabeling(LabelingSpec):
    """Inline, explicit-range labeling: ``{[0,0.9): bad, [0.9,1.1]: ok, …}``."""

    __slots__ = ("rules", "_edges", "_labels")

    @classmethod
    def from_cutpoints(cls, bounds: Sequence[float], labels: Sequence[str]) -> "RangeLabeling":
        """A complete partition of R from sorted cut points.

        ``len(labels)`` must be ``len(bounds) + 1``; the first interval is
        ``(-inf, bounds[0])``, intermediate ones ``[b_i, b_{i+1})``, the
        last ``[bounds[-1], inf)``.
        """
        bounds = sorted(bounds)
        if len(labels) != len(bounds) + 1:
            raise ValidationError(
                f"{len(bounds)} cut points need {len(bounds) + 1} labels, "
                f"got {len(labels)}"
            )
        edges = [NEG_INF] + list(bounds) + [POS_INF]
        rules = [
            LabelRule(Interval(edges[i], edges[i + 1], i > 0, False), labels[i])
            for i in range(len(labels))
        ]
        return cls(rules)

    def __init__(self, rules: Sequence[LabelRule]):
        validate_ranges(rules)
        self.rules: Tuple[LabelRule, ...] = tuple(
            sorted(rules, key=lambda rule: (rule.interval.low, not rule.interval.low_closed))
        )
        # The finite interval endpoints cut the real line into slots: slot
        # 2s is the open segment just below edge s, slot 2s + 1 the point
        # edge s itself, and every interval is a union of whole slots, so
        # one label per slot — taken from the per-cell oracle at a value
        # inside it — labels every value.  Non-finite values (which no
        # interval contains) get the trailing ``None`` slot.
        edges = sorted({
            bound
            for rule in self.rules
            for bound in (rule.interval.low, rule.interval.high)
            if math.isfinite(bound)
        })
        inside = [
            math.nextafter(edges[0], NEG_INF) if edges else 0.0,
            *(
                value
                for edge in edges
                for value in (edge, math.nextafter(edge, POS_INF))
            ),
        ]
        self._edges = np.array(edges, dtype=np.float64)
        self._labels = np.array(
            [self.apply_scalar(value) for value in inside] + [None], dtype=object
        )

    @property
    def labels(self) -> Tuple[str, ...]:
        """The label vocabulary, in range order."""
        return tuple(rule.label for rule in self.rules)

    def apply_scalar(self, value: float) -> Optional[str]:
        """Label a single value, or ``None`` when it falls in a gap/NaN."""
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return None
        for rule in self.rules:
            if rule.interval.contains(value):
                return rule.label
        return None

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Label a column of comparison values (object array of labels).

        A value's slot is the number of edges below it plus the number at
        or below it — two comparisons per edge, no search and no per-rule
        gather — and its label is gathered from the slot vocabulary.
        Values in gaps, NaNs and infinities get ``None``.
        :meth:`apply_python` is the per-cell oracle.
        """
        numeric = np.asarray(values, dtype=np.float64)
        narrow = len(self._labels) <= 256
        slot = np.zeros(len(numeric), dtype=np.uint8 if narrow else np.intp)
        for edge in self._edges:
            slot += numeric > edge
            slot += numeric >= edge
        slot[~np.isfinite(numeric)] = len(self._labels) - 1
        return self._labels[slot]

    def apply_python(self, values: np.ndarray) -> np.ndarray:
        """Per-cell reference implementation of :meth:`apply` (test oracle)."""
        numeric = np.asarray(values, dtype=np.float64)
        out = np.full(len(numeric), None, dtype=object)
        for row in range(len(numeric)):
            out[row] = self.apply_scalar(float(numeric[row]))
        return out

    def render(self) -> str:
        body = ", ".join(rule.render() for rule in self.rules)
        return f"{{{body}}}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangeLabeling) and other.rules == self.rules

    def __hash__(self) -> int:
        return hash(("RangeLabeling", self.rules))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RangeLabeling({self.render()})"


class CoordinateLabeling(LabelingSpec):
    """Coordinate-dependent labeling (the paper's §8 expressiveness item).

    "more complex labeling functions (e.g., functions based on ranges that
    depend not only on comparison values of cells, but also on their
    coordinates)" — each member of ``level`` can carry its own range set
    (e.g. stricter thresholds for larger markets), with a default set for
    unlisted members.  Cells whose member has no case and no default exists
    receive the null label.
    """

    __slots__ = ("level", "cases", "default")

    def __init__(
        self,
        level: str,
        cases: "dict",
        default: Optional[RangeLabeling] = None,
    ):
        if not cases and default is None:
            raise ValidationError(
                "coordinate labeling needs at least one case or a default"
            )
        self.level = level
        self.cases = {member: labeling for member, labeling in cases.items()}
        for member, labeling in self.cases.items():
            if not isinstance(labeling, RangeLabeling):
                raise ValidationError(
                    f"case for member {member!r} must be a RangeLabeling"
                )
        self.default = default

    @property
    def labels(self) -> Tuple[str, ...]:
        """The combined label vocabulary across all cases."""
        vocabulary = []
        for labeling in list(self.cases.values()) + (
            [self.default] if self.default else []
        ):
            for label in labeling.labels:
                if label not in vocabulary:
                    vocabulary.append(label)
        return tuple(vocabulary)

    def labeling_for(self, member) -> Optional[RangeLabeling]:
        """The range set governing one member."""
        return self.cases.get(member, self.default)

    def apply(self, values: np.ndarray, members: Sequence) -> np.ndarray:
        """Label a comparison column, choosing ranges by each cell's member.

        Rows are grouped by member so each distinct member pays one
        vectorised :meth:`RangeLabeling.apply` over its rows instead of a
        per-cell scalar probe.  :meth:`apply_python` is the oracle.
        """
        numeric = np.asarray(values, dtype=np.float64)
        out = np.full(len(numeric), None, dtype=object)
        rows_of: dict = {}
        for row, member in enumerate(members):
            rows_of.setdefault(member, []).append(row)
        for member, rows in rows_of.items():
            labeling = self.labeling_for(member)
            if labeling is None:
                continue
            indices = np.asarray(rows, dtype=np.intp)
            out[indices] = labeling.apply(numeric[indices])
        return out

    def apply_python(self, values: np.ndarray, members: Sequence) -> np.ndarray:
        """Per-cell reference implementation of :meth:`apply` (test oracle)."""
        out = np.full(len(values), None, dtype=object)
        for row, member in enumerate(members):
            labeling = self.labeling_for(member)
            if labeling is not None:
                out[row] = labeling.apply_scalar(values[row])
        return out

    def render(self) -> str:
        parts = [
            f"case {self.level} = '{member}': {labeling.render()}"
            for member, labeling in self.cases.items()
        ]
        if self.default is not None:
            parts.append(f"else: {self.default.render()}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoordinateLabeling({self.level!r}, cases={list(self.cases)})"


class NamedLabeling(LabelingSpec):
    """A labeling function referenced by name: library distribution-based
    labelers (``quartiles``, ``quintiles``, ``top3``, …) or user-predeclared
    range functions (``5stars``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValidationError("labeling function name must be non-empty")
        self.name = name

    def render(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NamedLabeling) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("NamedLabeling", self.name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NamedLabeling({self.name!r})"


def five_stars_rules() -> List[LabelRule]:
    """The ``5stars`` labeling of Example 3.3, over [-1, 1]."""
    bounds = [-1.0, -0.6, -0.2, 0.2, 0.6, 1.0]
    labels = ["*", "**", "***", "****", "*****"]
    rules = []
    for i, label in enumerate(labels):
        low, high = bounds[i], bounds[i + 1]
        rules.append(LabelRule(Interval(low, high, low_closed=(i == 0), high_closed=True), label))
    return rules

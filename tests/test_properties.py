"""Property-based tests (hypothesis) on core invariants.

Covered invariants:

* range labelers partition: non-overlapping rules assign at most one label,
  complete partitions assign exactly one;
* distribution labelers label every finite value, never NaNs;
* min-max normalisation lands in [0, 1]; the symmetric variant in [-1, 1];
* percOfTotal sums to (sum a / sum b);
* OLS prediction is exact on affine series and bounded for monotone ones;
* the engine's group-by equals the brute-force roll-up oracle on random
  cubes;
* joins: natural self-join keeps every cell; outer join preserves the left
  cardinality; pivot output is a subset of the reference slice;
* transform commutativity (property P1) for arbitrary added columns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import p1_commutes
from repro.core import (
    Cube,
    CubeSchema,
    GroupBySet,
    Hierarchy,
    Interval,
    LabelRule,
    Level,
    Measure,
    RangeLabeling,
    validate_ranges,
)
from repro.core.labels import find_gaps
from repro.datagen import brute_force_rollup, random_detailed_cube, random_schema
from repro.functions import (
    linear_regression,
    min_max_norm,
    min_max_norm_sym,
    perc_of_total,
    quantile_labels,
    top_k_labels,
    zscore,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
float_columns = st.lists(finite_floats, min_size=1, max_size=64).map(np.array)


def partition_from_bounds(bounds):
    """Build a complete partition of R from sorted distinct bounds."""
    edges = [-math.inf] + sorted(set(bounds)) + [math.inf]
    rules = []
    for i in range(len(edges) - 1):
        rules.append(
            LabelRule(
                Interval(edges[i], edges[i + 1], low_closed=(i > 0), high_closed=False),
                f"label-{i}",
            )
        )
    return RangeLabeling(rules)


class TestRangeLabelingProperties:
    @given(
        bounds=st.lists(finite_floats, min_size=1, max_size=6, unique=True),
        values=float_columns,
    )
    @settings(max_examples=100)
    def test_complete_partition_labels_every_value_once(self, bounds, values):
        labeling = partition_from_bounds(bounds)
        validate_ranges(labeling.rules)
        assert find_gaps(labeling.rules) == []
        labels = labeling.apply(values)
        assert all(label is not None for label in labels)
        # cross-check: exactly one rule matches each value
        for value in values:
            matches = [r for r in labeling.rules if r.interval.contains(value)]
            assert len(matches) == 1

    @given(
        bounds=st.lists(finite_floats, min_size=1, max_size=8, unique=True),
        closed=st.lists(st.booleans(), min_size=18, max_size=18),
        kept=st.lists(st.booleans(), min_size=9, max_size=9),
        values=float_columns,
    )
    @settings(max_examples=150)
    def test_apply_matches_the_per_cell_oracle_with_gaps(
        self, bounds, closed, kept, values
    ):
        edges = [-math.inf] + sorted(bounds) + [math.inf]
        rules = []
        previous_high_closed = False
        for i in range(len(edges) - 1):
            if not kept[i]:
                previous_high_closed = False  # a gap
                continue
            low_closed = closed[2 * i] and not previous_high_closed
            previous_high_closed = closed[2 * i + 1]
            rules.append(LabelRule(
                Interval(edges[i], edges[i + 1], low_closed, previous_high_closed),
                f"label-{i}",
            ))
        if not rules:
            return
        labeling = RangeLabeling(rules)
        probes = np.concatenate([
            values,
            [np.nextafter(b, d) for b in bounds for d in (-math.inf, math.inf)],
            bounds,
            [math.nan, math.inf, -math.inf],
        ])
        assert labeling.apply(probes).tolist() == labeling.apply_python(probes).tolist()

    @given(values=float_columns)
    @settings(max_examples=50)
    def test_nan_never_labeled(self, values):
        labeling = partition_from_bounds([0.0])
        with_nan = np.concatenate([values, [np.nan]])
        labels = labeling.apply(with_nan)
        assert labels[-1] is None


class TestDistributionLabelerProperties:
    @given(values=float_columns, k=st.integers(2, 6))
    @settings(max_examples=100)
    def test_quantile_labels_cover_all_values(self, values, k):
        names = [f"g{i}" for i in range(k)]
        labels = quantile_labels(values, k, names)
        assert all(label in names for label in labels)

    @given(values=float_columns, k=st.integers(2, 5))
    @settings(max_examples=100)
    def test_quantile_groups_are_ordered(self, values, k):
        """A smaller value never lands in a strictly higher group."""
        names = list(range(k))
        labels = quantile_labels(values, k, names)
        order = np.argsort(values, kind="stable")
        group_sequence = [labels[i] for i in order]
        assert group_sequence == sorted(group_sequence)

    @given(values=float_columns, k=st.integers(2, 5))
    @settings(max_examples=50)
    def test_topk_vocabulary(self, values, k):
        labels = top_k_labels(values, k)
        allowed = {f"top-{i + 1}" for i in range(k)}
        assert set(labels.tolist()) <= allowed


class TestTransformProperties:
    @given(values=float_columns)
    @settings(max_examples=100)
    def test_min_max_norm_bounds(self, values):
        out = min_max_norm(values)
        assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)

    @given(values=float_columns)
    @settings(max_examples=100)
    def test_min_max_norm_sym_bounds(self, values):
        out = min_max_norm_sym(values)
        assert np.all(out >= -1 - 1e-9) and np.all(out <= 1 + 1e-9)

    @given(values=st.lists(finite_floats, min_size=2, max_size=64).map(np.array))
    @settings(max_examples=100)
    def test_zscore_centering(self, values):
        out = zscore(values)
        std = np.std(values)
        if std == 0:
            assert np.allclose(out, 0.0)
            return
        # |mean| is bounded by accumulated rounding error, which is amplified
        # by max|a| / std for near-constant, large-magnitude columns.
        tolerance = 1e-12 * len(values) * max(1.0, np.max(np.abs(values)) / std)
        assert abs(np.mean(out)) <= max(tolerance, 1e-9)

    @given(
        a=st.lists(finite_floats, min_size=1, max_size=32),
        b=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=32),
    )
    @settings(max_examples=100)
    def test_perc_of_total_sums_correctly(self, a, b):
        n = min(len(a), len(b))
        a_col = np.array(a[:n])
        b_col = np.array(b[:n])
        out = perc_of_total(a_col, b_col)
        assert np.sum(out) == pytest.approx(np.sum(a_col) / np.sum(b_col), rel=1e-6)


class TestPredictionProperties:
    @given(
        intercept=st.floats(min_value=-1e3, max_value=1e3),
        slope=st.floats(min_value=-100, max_value=100),
        k=st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_ols_exact_on_affine_series(self, intercept, slope, k):
        t = np.arange(k, dtype=float)
        history = (intercept + slope * t)[None, :]
        predicted = linear_regression(history)[0]
        expected = intercept + slope * k
        assert predicted == pytest.approx(expected, rel=1e-6, abs=1e-6)

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=2, max_size=8
        )
    )
    @settings(max_examples=100)
    def test_ols_finite_on_finite_history(self, values):
        history = np.array(values)[None, :]
        assert np.isfinite(linear_regression(history)[0])


class TestEngineVsOracle:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rollup_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        schema = random_schema(rng, n_hierarchies=2, max_depth=3, n_measures=1)
        cube = random_detailed_cube(rng, schema, density=0.6)
        # roll up to a random coarser group-by set
        coarser_levels = []
        for hierarchy in schema.hierarchies:
            depth = int(rng.integers(0, len(hierarchy.levels) + 1))
            if depth < len(hierarchy.levels):
                coarser_levels.append(hierarchy.levels[depth].name)
        target = GroupBySet(schema, coarser_levels)
        if not cube.group_by.rolls_up_to(target):
            return
        oracle = brute_force_rollup(cube, target, "m0")

        # aggregate by rolling every row up and summing — using the cube API
        totals = {}
        values = cube.measure("m0")
        for row, coordinate in enumerate(cube.coordinates()):
            rolled = cube.group_by.rup(coordinate, target)
            totals[rolled] = totals.get(rolled, 0.0) + float(values[row])
        assert set(totals) == set(oracle)
        for key, value in oracle.items():
            assert totals[key] == pytest.approx(value)


class TestJoinProperties:
    def _cube(self, seed, density=0.7):
        rng = np.random.default_rng(seed)
        schema = random_schema(rng, n_hierarchies=2, max_depth=2, n_measures=1)
        return random_detailed_cube(rng, schema, density=density)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_natural_self_join_keeps_all_cells(self, seed):
        cube = self._cube(seed)
        joined = cube.natural_join(cube)
        assert len(joined) == len(cube)
        assert np.allclose(joined.measure("m0"), joined.measure("benchmark.m0"))

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_outer_join_preserves_left_cardinality(self, seed):
        left = self._cube(seed, density=0.8)
        right = left.filter_rows(left.measure("m0") > 50.0)
        joined = left.natural_join(right, outer=True)
        assert len(joined) == len(left)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_inner_join_cardinality_bounded(self, seed):
        left = self._cube(seed, density=0.8)
        right = left.filter_rows(left.measure("m0") > 50.0)
        joined = left.natural_join(right)
        assert len(joined) == len(right)


class TestP1Property:
    @given(
        offset=finite_floats,
        scale=st.floats(min_value=-100, max_value=100),
        seed=st.integers(0, 1_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_independent_added_columns_commute(self, offset, scale, seed):
        rng = np.random.default_rng(seed)
        schema = random_schema(rng, n_hierarchies=1, max_depth=2, n_measures=2)
        cube = random_detailed_cube(rng, schema, density=0.8)

        def f(c):
            return c.with_measure("f_out", c.measure("m0") + offset)

        def g(c):
            return c.with_measure("g_out", c.measure("m1") * scale)

        assert p1_commutes(cube, f, g)

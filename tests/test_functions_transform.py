"""Unit tests for the holistic transformation library (Section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions import (
    identity,
    min_max_norm,
    perc_of_total,
    percentile_rank,
    rank,
    signed_min_max_norm,
    zscore,
)


class TestMinMaxNorm:
    def test_maps_to_unit_interval(self):
        out = min_max_norm(np.array([10.0, 20.0, 30.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        out = min_max_norm(np.array([7.0, 7.0]))
        assert out.tolist() == [0.0, 0.0]

    def test_nan_ignored_in_stats_and_propagated(self):
        out = min_max_norm(np.array([0.0, np.nan, 10.0]))
        assert out[0] == 0.0 and out[2] == 1.0
        assert np.isnan(out[1])

    def test_empty(self):
        assert min_max_norm(np.array([])).size == 0


class TestSignedMinMaxNorm:
    def test_preserves_sign_and_scales_to_unit(self):
        out = signed_min_max_norm(np.array([-50.0, -20.0, 10.0]))
        assert out[0] == pytest.approx(-1.0)
        assert out[2] == pytest.approx(0.2)

    def test_zero_column(self):
        assert signed_min_max_norm(np.array([0.0, 0.0])).tolist() == [0.0, 0.0]


class TestZscore:
    def test_mean_zero_unit_std(self):
        out = zscore(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.mean(out) == pytest.approx(0.0)
        assert np.std(out) == pytest.approx(1.0)

    def test_constant_column(self):
        assert zscore(np.array([5.0, 5.0])).tolist() == [0.0, 0.0]

    @given(seed=st.integers(0, 100_000), size=st.integers(2, 3_000))
    @settings(max_examples=50, deadline=None)
    def test_does_not_depend_on_cell_order(self, seed, size):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1e4, size) * rng.choice([1e-6, 1.0, 1e6], size)
        a[rng.random(size) < 0.05] = np.nan
        order = rng.permutation(size)
        assert zscore(a[order]).tobytes() == zscore(a)[order].tobytes()

    @pytest.mark.parametrize("a", [
        [1.0, np.inf, np.nan],
        [np.inf, -np.inf, 2.0],
        [1e308, 1e308, np.nan],
        [np.nan, np.nan],
    ])
    def test_undefined_deviation_maps_to_zero(self, a):
        a = np.array(a)
        with np.errstate(over="ignore", invalid="ignore"):
            out = zscore(a)
        assert np.array_equal(np.isnan(out), np.isnan(a))
        assert (out[~np.isnan(a)] == 0.0).all()


class TestPercOfTotal:
    def test_example_4_3(self):
        # diff = (-50, -20, 10), total quantity = 220 → -0.23, -0.09, 0.05
        diff = np.array([-50.0, -20.0, 10.0])
        quantity = np.array([100.0, 90.0, 30.0])
        out = perc_of_total(diff, quantity)
        assert out[0] == pytest.approx(-50 / 220)
        assert out[1] == pytest.approx(-20 / 220)
        assert out[2] == pytest.approx(10 / 220)

    def test_zero_total_is_nan(self):
        out = perc_of_total(np.array([1.0]), np.array([0.0]))
        assert np.isnan(out[0])

    def test_nan_ignored_in_total(self):
        out = perc_of_total(np.array([1.0, 1.0]), np.array([2.0, np.nan]))
        assert out[0] == pytest.approx(0.5)

    def test_total_does_not_depend_on_cell_order(self):
        rng = np.random.default_rng(7)
        b = rng.normal(0.0, 1e4, 2_000) * rng.choice([1e-6, 1.0, 1e6], 2_000)
        b[::97] = np.nan
        a = np.ones_like(b)
        reference = perc_of_total(a, b)
        for _ in range(5):
            order = rng.permutation(len(b))
            assert perc_of_total(a[order], b[order]).tobytes() == reference[order].tobytes()

    @pytest.mark.parametrize("b", [
        [1.0, np.inf, np.nan],
        [1.0, -np.inf],
        [np.inf, -np.inf, 2.0],
        [1e308, 1e308, np.nan],
    ])
    def test_infinities_and_overflow_total_like_nansum(self, b):
        b = np.array(b)
        a = np.ones_like(b)
        with np.errstate(over="ignore", invalid="ignore"):
            assert perc_of_total(a, b).tobytes() == (a / np.nansum(b)).tobytes()


class TestRank:
    def test_descending_dense(self):
        out = rank(np.array([30.0, 10.0, 20.0]))
        assert out.tolist() == [1.0, 3.0, 2.0]

    def test_ties_share_rank(self):
        out = rank(np.array([5.0, 5.0, 1.0]))
        assert out.tolist() == [1.0, 1.0, 2.0]

    def test_nan_gets_nan(self):
        out = rank(np.array([1.0, np.nan]))
        assert out[0] == 1.0 and np.isnan(out[1])


class TestPercentileRank:
    def test_fractions(self):
        out = percentile_rank(np.array([10.0, 20.0, 30.0, 40.0]))
        assert out.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_ties(self):
        out = percentile_rank(np.array([1.0, 1.0]))
        assert out.tolist() == [1.0, 1.0]


class TestIdentity:
    def test_pass_through(self):
        values = np.array([1.0, 2.0])
        assert identity(values).tolist() == [1.0, 2.0]

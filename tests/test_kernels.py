"""Unit tests for the group-by factorization kernels."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EngineError
from repro.engine.kernels import (
    aggregate,
    dictionary_encode,
    encode_column,
    factorize_numpy,
    factorize_python,
    fold_codes,
    gather_with_nulls,
    join_fan_in,
    join_unique,
    match_unique,
    narrow_codes,
    pivot_rows,
    Rollup,
    sort_groups,
)


class TestEncodeColumn:
    def test_codes_follow_sorted_order(self):
        codes, cardinality = encode_column(np.array(["b", "a", "b"], dtype=object))
        assert cardinality == 2
        assert codes.tolist() == [1, 0, 1]

    def test_numeric_column(self):
        codes, cardinality = encode_column(np.array([30, 10, 20, 10]))
        assert cardinality == 3
        assert codes.tolist() == [2, 0, 1, 0]


class TestFactorizeShapes:
    def test_no_columns_single_group(self):
        ids, count, first = factorize_numpy([], 5)
        assert count == 1
        assert ids.tolist() == [0] * 5
        assert first.tolist() == [0]

    def test_no_columns_no_rows(self):
        ids, count, first = factorize_numpy([], 0)
        assert count == 0
        assert len(ids) == 0 and len(first) == 0

    def test_python_kernel_no_columns(self):
        ids, count, first = factorize_python([], 3)
        assert count == 1 and ids.tolist() == [0, 0, 0]

    def test_two_columns_cross_product(self):
        a = np.array(["x", "x", "y", "y"], dtype=object)
        b = np.array([1, 2, 1, 2])
        ids, count, first = factorize_numpy([a, b], 4)
        assert count == 4
        assert sorted(ids.tolist()) == [0, 1, 2, 3]

    def test_first_rows_are_representatives(self):
        a = np.array(["x", "y", "x"], dtype=object)
        ids, count, first = factorize_numpy([a], 3)
        assert count == 2
        # each first row's member matches its group's member
        for group in range(count):
            representative = a[first[group]]
            members = {a[i] for i in range(3) if ids[i] == group}
            assert members == {representative}


class TestKernelAgreement:
    @given(
        seed=st.integers(0, 5_000),
        n_rows=st.integers(0, 200),
        n_cols=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_numpy_and_python_kernels_agree(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        columns = []
        for _ in range(n_cols):
            if rng.random() < 0.5:
                values = rng.integers(0, 5, n_rows).astype(np.int64)
            else:
                members = np.array(["a", "bb", "ccc", "dd"], dtype=object)
                values = members[rng.integers(0, 4, n_rows)]
            columns.append(values)
        ids_np, count_np, first_np = factorize_numpy(columns, n_rows)
        ids_py, count_py, first_py = factorize_python(columns, n_rows)
        assert count_np == count_py
        assert np.array_equal(ids_np, ids_py)
        keys_np = [tuple(col[r] for col in columns) for r in first_np]
        keys_py = [tuple(col[r] for col in columns) for r in first_py]
        assert keys_np == keys_py


# Cardinalities per regime of fold_codes: a key space inside the counting
# threshold (max(2**16, 4n)), one beyond it (packed-key sort), and one
# whose keys are too wide to share 63 bits with a row number (argsort).
# Narrowed, their code columns are uint8/uint16, uint16/int32 and int32.
REGIMES = {
    "counting": (40, 300),
    "packed": (3_000, 100_000),
    "wide": (1 << 31, 1 << 31),
}


def _code_columns(rng, regime, n_rows, distinct, narrow=False):
    """Random codes under a regime's cardinalities.

    ``distinct`` draws codes from at most a handful of keys (duplicate
    heavy) or spreads them so nearly every row is its own key; ``narrow``
    stores them as ``narrow_codes`` does, else as ``int64``.
    """
    columns = []
    for cardinality in REGIMES[regime]:
        if distinct:
            codes = rng.integers(0, cardinality, n_rows)
        else:
            pool = rng.integers(0, cardinality, 3)
            codes = pool[rng.integers(0, 3, n_rows)]
        codes = narrow_codes(codes, cardinality) if narrow else codes.astype(np.int64)
        columns.append((codes, cardinality))
    return columns


def _folded(columns):
    key = np.zeros(len(columns[0][0]), dtype=np.int64)
    for codes, cardinality in columns:
        key = key * cardinality + codes
    return key


def _assert_fold_matches_oracle(columns, n_rows):
    ids, keys, first = fold_codes(columns, n_rows)
    ids_py, count_py, first_py = factorize_python(
        [codes for codes, _ in columns], n_rows
    )
    assert np.array_equal(ids, ids_py)
    assert np.array_equal(first, first_py)
    assert len(keys) == count_py
    assert np.array_equal(keys, _folded(columns)[first_py])
    assert np.all(np.diff(keys) > 0)


class TestSortGroups:
    """``fold_codes`` and ``sort_groups`` against the row-at-a-time oracle."""

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 400)),
        regime=st.sampled_from(sorted(REGIMES)),
        distinct=st.booleans(),
        narrow=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fold_codes_matches_python_oracle(
        self, seed, n_rows, regime, distinct, narrow
    ):
        rng = np.random.default_rng(seed)
        columns = _code_columns(rng, regime, n_rows, distinct, narrow)
        before = [codes.copy() for codes, _ in columns]
        _assert_fold_matches_oracle(columns, n_rows)
        # the fold works in a buffer of its own, never in its inputs
        assert all(np.array_equal(a, b) for a, (b, _) in zip(before, columns))

    @pytest.mark.parametrize("ratio", [3.5, 4.0, 4.5, 11.8])
    def test_fold_codes_on_both_sides_of_the_counting_crossover(self, ratio):
        # Above 2**16 keys the counting pass runs up to 4 keys per row;
        # 11.8 is the Constant intention's date x customer key.
        n_rows, second = 20_000, 1_000
        first = int(ratio * n_rows) // second
        rng = np.random.default_rng(int(ratio * 10))
        columns = [
            (narrow_codes(rng.integers(0, first, n_rows), first), first),
            (narrow_codes(rng.integers(0, second, n_rows), second), second),
        ]
        _assert_fold_matches_oracle(columns, n_rows)

    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 400)),
        regime=st.sampled_from(sorted(REGIMES)),
        distinct=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_sort_groups_is_a_stable_sort_into_runs(self, seed, n_rows, regime, distinct):
        rng = np.random.default_rng(seed)
        keys = _folded(_code_columns(rng, regime, n_rows, distinct))
        order, run_start, sorted_keys = sort_groups(keys.copy())
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(sorted_keys, np.sort(keys))
        starts = np.flatnonzero(run_start)
        ids_py, count_py, first_py = factorize_python([keys], n_rows)
        assert len(starts) == count_py
        assert np.array_equal(order[starts], first_py)
        assert np.array_equal(ids_py[order][starts], np.arange(count_py))

    def test_sort_groups_sorts_its_argument_in_place(self):
        keys = np.array([5, 1, 5, 0], dtype=np.int64)
        order, run_start, sorted_keys = sort_groups(keys)
        assert sorted_keys is keys
        assert keys.tolist() == [0, 1, 5, 5]
        assert order.tolist() == [3, 1, 0, 2]
        assert run_start.tolist() == [True, True, True, False]

    def test_wide_keys_take_the_argsort_branch_with_the_same_answer(self):
        # 2**62 needs 63 bits; four rows need two more: no room to pack.
        keys = np.array([1 << 62, 5, 1 << 62, 5], dtype=np.int64)
        order, run_start, sorted_keys = sort_groups(keys)
        assert order.tolist() == [1, 3, 0, 2]
        assert np.flatnonzero(run_start).tolist() == [0, 2]
        assert sorted_keys.tolist() == [5, 5, 1 << 62, 1 << 62]

    def test_match_unique_finds_partners_and_rejects_repeats(self):
        build = np.array([7, 3, 9], dtype=np.int64)
        probe = np.array([3, 4, 9, 7, 0, 10], dtype=np.int64)
        assert match_unique(probe, build).tolist() == [1, -1, 2, 0, -1, -1]
        assert build.tolist() == [7, 3, 9]  # sorted on a copy
        assert match_unique(probe, build[:0]).tolist() == [-1] * 6
        with pytest.raises(EngineError, match="not unique"):
            match_unique(probe, np.array([1, 1], dtype=np.int64))
        with pytest.raises(EngineError, match="not unique"):
            match_unique(probe, np.array([4, 2, 4], dtype=np.int64))

    @given(
        seed=st.integers(0, 10_000),
        n_build=st.integers(1, 300),
        ascending=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_unique_matches_a_dict_join_on_both_branches(
        self, seed, n_build, ascending
    ):
        # A strictly ascending build is searched as it is; any other is
        # sorted first.  Both must answer like a dict from key to row.
        rng = np.random.default_rng(seed)
        build = np.sort(rng.choice(4 * n_build, n_build, replace=False))
        if not ascending:
            build = rng.permutation(build)
        probe = rng.integers(-1, 4 * n_build + 1, 200)
        row_of = {int(key): row for row, key in enumerate(build)}
        expected = [row_of.get(int(key), -1) for key in probe]
        assert match_unique(probe, build).tolist() == expected


class TestAggregate:
    def test_sum_is_the_row_order_left_fold_of_each_group(self):
        # Mixed magnitudes: here the association order changes the bits,
        # so only the exact row-order fold can match.  np.add.reduceat
        # over the sorted rows does not — one sort shared by every measure
        # through reduceat cannot replace the scatter-add.
        rng = np.random.default_rng(0)
        n_rows, n_groups = 5_000, 50
        values = rng.normal(0.0, 1.0, n_rows) * rng.choice([1e-8, 1.0, 1e8], n_rows)
        group_ids = rng.integers(0, n_groups, n_rows)
        left_fold = np.array([
            functools.reduce(operator.add, values[group_ids == g].tolist(), 0.0)
            for g in range(n_groups)
        ])
        sums = aggregate(group_ids, n_groups, values, "sum")
        assert sums.tobytes() == left_fold.tobytes()
        order = np.argsort(group_ids, kind="stable")
        starts = np.flatnonzero(np.diff(group_ids[order], prepend=-1))
        reduceat = np.add.reduceat(values[order], starts)
        assert (reduceat != left_fold).any()


class TestDictionaryEncode:
    @pytest.mark.parametrize("column", [
        np.array(["b", "a", "c", "a"], dtype=object),
        np.array([30, 10, 20, 10]),
        np.array([], dtype=object),
    ])
    def test_dictionary_is_sorted_and_decodes_the_column(self, column):
        codes, dictionary = dictionary_encode(column)
        assert list(dictionary) == sorted(set(column.tolist()))
        assert dictionary[codes].tolist() == column.tolist()

    def test_codes_are_stored_no_wider_than_needed(self):
        codes = np.arange(300, dtype=np.int64)
        assert narrow_codes(codes, 256).dtype == np.uint8
        assert narrow_codes(codes, 300).dtype == np.uint16
        assert narrow_codes(codes, 1 << 20).dtype == np.int32
        assert narrow_codes(codes, 1 << 40).dtype == np.int64


class TestRollup:
    """The coded part-of function: one scatter builds it, one gather applies it."""

    CITIES = np.array(["c1", "c2", "c3", "c4"], dtype=object)
    REGIONS = np.array(["east", "west"], dtype=object)

    def rollup(self, parents=(1, 0, 1, 1)):
        rows = np.array([0, 1, 2, 3, 2, 0])
        return Rollup.of(
            self.CITIES, rows, self.REGIONS, np.asarray(parents)[rows]
        )

    def test_the_fine_dictionary_takes_the_lut_as_it_is(self):
        rollup = self.rollup()
        assert rollup.lut_for(self.CITIES) is rollup.lut
        assert rollup.lut.dtype == np.uint8
        assert rollup.coarse[rollup.lut].tolist() == ["west", "east", "west", "west"]

    def test_another_dictionary_maps_onto_the_fine_one(self):
        rollup = self.rollup()
        subset = np.array(["c2", "c4"], dtype=object)
        assert rollup.coarse[rollup.lut_for(subset)].tolist() == ["east", "west"]
        assert rollup.lut_for(self.CITIES.copy()).tolist() == rollup.lut.tolist()
        assert rollup.lut_for(np.array([], dtype=object)).tolist() == []

    @pytest.mark.parametrize("members", [["c2", "c9"], ["a0"], ["c5"]])
    def test_a_member_the_table_lacks_has_no_lut(self, members):
        assert self.rollup().lut_for(np.array(members, dtype=object)) is None

    def test_a_member_with_two_parents_has_no_rollup(self):
        rows = np.array([0, 1, 2, 3, 2])
        coarse = np.array([1, 0, 1, 1, 0])  # c3 in west and east
        assert Rollup.of(self.CITIES, rows, self.REGIONS, coarse) is None


def _keys(*columns):
    """``(codes, dictionary)`` key columns of raw member lists."""
    return [dictionary_encode(np.array(column, dtype=object)) for column in columns]


class TestJoinAndPivotKernels:
    def test_gather_with_nulls_floats_labels_and_empty_sources(self):
        rows = np.array([1, -1, 0])
        floats = gather_with_nulls(np.array([1.5, 2.5]), rows)
        assert floats.dtype == np.float64
        assert floats[0] == 2.5 and np.isnan(floats[1]) and floats[2] == 1.5
        labels = gather_with_nulls(np.array(["a", "b"], dtype=object), rows)
        assert labels.tolist() == ["b", None, "a"]
        empty = gather_with_nulls(np.array([], dtype=object), np.array([-1, -1]))
        assert empty.tolist() == [None, None]
        assert np.isnan(gather_with_nulls(np.array([]), np.array([-1]))).all()

    def test_join_unique_keeps_left_order_and_outer_rows(self):
        left = _keys(["b", "a", "c"])
        right = _keys(["a", "b"])
        rows, matches = join_unique(left, right, 3, 2, outer=False)
        assert rows.tolist() == [0, 1] and matches.tolist() == [1, 0]
        rows, matches = join_unique(left, right, 3, 2, outer=True)
        assert rows.tolist() == [0, 1, 2] and matches.tolist() == [1, 0, -1]

    def test_join_fan_in_slots_matches_by_residual_member_order(self):
        left = _keys(["x", "y"])
        # right rows: (x, 10) (y, 9) (x, 9) — residual members as ints
        right = _keys(["x", "y", "x"])
        residual = [dictionary_encode(np.array([10, 9, 9]))]
        rows, slots = join_fan_in(left, right, residual, 2, 3, outer=False)
        assert rows.tolist() == [0, 1]
        assert slots.tolist() == [[2, 0], [1, -1]]  # 9 before 10

    def test_join_fan_in_without_join_keys_matches_every_row(self):
        residual = [dictionary_encode(np.array([3, 1, 2]))]
        rows, slots = join_fan_in([], [], residual, 2, 3, outer=False)
        assert rows.tolist() == [0, 1]
        assert slots.tolist() == [[1, 2, 0], [1, 2, 0]]

    def test_pivot_rows_reference_and_spread(self):
        rest = _keys(["p", "p", "q", "r"])
        pivot = dictionary_encode(np.array(["it", "fr", "fr", "it"], dtype=object))
        rows, members = pivot_rows(rest, pivot, "it", ["fr"], require_all=False)
        assert rows.tolist() == [0, 3] and members.tolist() == [[1], [-1]]
        rows, members = pivot_rows(rest, pivot, "it", ["fr"], require_all=True)
        assert rows.tolist() == [0] and members.tolist() == [[1]]
        rows, members = pivot_rows(rest, pivot, None, ["fr", "it"], require_all=False)
        assert rows.tolist() == [0, 2, 3]
        assert members.tolist() == [[1, 0], [2, -1], [-1, 3]]

"""Unit tests for the engine's vectorised query processor.

The aggregate kernel is validated against a brute-force Python oracle on a
small star; drill-across and pivot are validated against hand-computed
expectations and against each other (P3 equivalence at the engine level).
"""

import math

import numpy as np
import pytest

from repro.core import EngineError, Predicate
from repro.engine import (
    Aggregate,
    AggregateQuery,
    Catalog,
    ColumnPredicate,
    DimensionJoin,
    DrillAcrossQuery,
    EngineExecutor,
    FACT,
    GroupByColumn,
    PivotQuery,
    Table,
)

# A small, fully hand-checkable star:
#   products: 0 apple/fruit, 1 pear/fruit, 2 milk/dairy
#   stores:   0 Italy, 1 France
FACT_ROWS = [
    # (pkey, skey, qty)
    (0, 0, 10.0), (0, 0, 5.0), (1, 0, 7.0), (2, 0, 3.0),
    (0, 1, 20.0), (1, 1, 8.0), (1, 1, 2.0), (2, 1, 4.0),
]


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    catalog.register(
        Table(
            "product",
            {
                "pkey": np.arange(3, dtype=np.int64),
                "name": np.array(["apple", "pear", "milk"], dtype=object),
                "type": np.array(["fruit", "fruit", "dairy"], dtype=object),
            },
        )
    )
    catalog.register(
        Table(
            "store",
            {
                "skey": np.arange(2, dtype=np.int64),
                "country": np.array(["Italy", "France"], dtype=object),
            },
        )
    )
    catalog.register(
        Table(
            "fact",
            {
                "pkey": np.array([r[0] for r in FACT_ROWS], dtype=np.int64),
                "skey": np.array([r[1] for r in FACT_ROWS], dtype=np.int64),
                "qty": np.array([r[2] for r in FACT_ROWS], dtype=np.float64),
            },
        )
    )
    return catalog


@pytest.fixture(scope="module")
def executor(catalog):
    return EngineExecutor(catalog)


JOINS = (
    DimensionJoin("product", "pkey", "pkey"),
    DimensionJoin("store", "skey", "skey"),
)


def agg_query(group_by, where=(), op="sum"):
    return AggregateQuery(
        fact="fact",
        joins=JOINS,
        where=where,
        group_by=group_by,
        aggregates=(Aggregate("qty", op, "qty"),),
    )


def result_as_dict(result, keys, value="qty"):
    columns = [result.column(k) for k in keys]
    values = result.column(value)
    return {tuple(col[i] for col in columns): values[i] for i in range(len(result))}


class TestAggregate:
    def test_group_by_one_dim_column(self, executor):
        result = executor.execute(agg_query((GroupByColumn("store", "country", "country"),)))
        assert result_as_dict(result, ["country"]) == {
            ("Italy",): 25.0,
            ("France",): 34.0,
        }

    def test_group_by_two_columns(self, executor):
        result = executor.execute(
            agg_query(
                (
                    GroupByColumn("product", "type", "type"),
                    GroupByColumn("store", "country", "country"),
                )
            )
        )
        assert result_as_dict(result, ["type", "country"]) == {
            ("fruit", "Italy"): 22.0,
            ("dairy", "Italy"): 3.0,
            ("fruit", "France"): 30.0,
            ("dairy", "France"): 4.0,
        }

    def test_complete_aggregation(self, executor):
        result = executor.execute(agg_query(()))
        assert len(result) == 1
        assert result.column("qty")[0] == 59.0

    def test_dimension_predicate(self, executor):
        result = executor.execute(
            agg_query(
                (GroupByColumn("product", "name", "product"),),
                where=(ColumnPredicate("store", "country", Predicate.eq("country", "Italy")),),
            )
        )
        assert result_as_dict(result, ["product"]) == {
            ("apple",): 15.0,
            ("pear",): 7.0,
            ("milk",): 3.0,
        }

    def test_fact_predicate(self, executor):
        result = executor.execute(
            AggregateQuery(
                "fact",
                JOINS,
                (ColumnPredicate(FACT, "qty", Predicate.between("qty", 5.0, 10.0)),),
                (GroupByColumn("store", "country", "country"),),
                (Aggregate("qty", "sum", "qty"),),
            )
        )
        assert result_as_dict(result, ["country"]) == {
            ("Italy",): 22.0,
            ("France",): 8.0,
        }

    def test_conjunctive_predicates(self, executor):
        result = executor.execute(
            agg_query(
                (GroupByColumn("product", "name", "product"),),
                where=(
                    ColumnPredicate("store", "country", Predicate.eq("country", "France")),
                    ColumnPredicate("product", "type", Predicate.eq("type", "fruit")),
                ),
            )
        )
        assert result_as_dict(result, ["product"]) == {
            ("apple",): 20.0,
            ("pear",): 10.0,
        }

    def test_empty_selection(self, executor):
        result = executor.execute(
            agg_query(
                (GroupByColumn("product", "name", "product"),),
                where=(ColumnPredicate("store", "country", Predicate.eq("country", "Spain")),),
            )
        )
        assert len(result) == 0

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("sum", 25.0),
            ("count", 4.0),
            ("avg", 6.25),
            ("min", 3.0),
            ("max", 10.0),
        ],
    )
    def test_aggregation_operators(self, executor, op, expected):
        result = executor.execute(
            agg_query(
                (GroupByColumn("store", "country", "country"),),
                where=(ColumnPredicate("store", "country", Predicate.eq("country", "Italy")),),
                op=op,
            )
        )
        assert result.column("qty")[0] == pytest.approx(expected)

    def test_needs_an_aggregate(self):
        with pytest.raises(EngineError):
            AggregateQuery("fact", JOINS, (), (), ())

    def test_unjoined_table_rejected(self):
        with pytest.raises(EngineError):
            AggregateQuery(
                "fact", (), (), (GroupByColumn("product", "name", "p"),),
                (Aggregate("qty", "sum", "qty"),),
            )

    def test_key_space_beyond_int64_is_an_error_not_a_wrapped_key(self):
        """Four 2**16-member grouping columns fold to a 2**64 key space;
        the fold would wrap int64 and silently merge distinct groups."""
        wide = np.arange(1 << 16, dtype=np.int64)
        catalog = Catalog()
        catalog.register(Table(
            "wide", {**{f"k{i}": wide for i in range(4)}, "v": wide * 1.0}
        ))
        query = AggregateQuery(
            "wide", (), (),
            [GroupByColumn(FACT, f"k{i}", f"k{i}") for i in range(4)],
            (Aggregate("v", "sum", "v"),),
        )
        with pytest.raises(EngineError, match="64-bit group key"):
            EngineExecutor(catalog).execute(query)


class TestDrillAcross:
    def left(self):
        return agg_query(
            (GroupByColumn("product", "name", "product"),),
            where=(ColumnPredicate("store", "country", Predicate.eq("country", "Italy")),),
        )

    def right(self):
        return agg_query(
            (GroupByColumn("product", "name", "product"),),
            where=(ColumnPredicate("store", "country", Predicate.eq("country", "France")),),
        )

    def test_inner_join(self, executor):
        query = DrillAcrossQuery(self.left(), self.right(), ("product",), {"qty": "bc_qty"})
        result = executor.execute(query)
        rows = result_as_dict(result, ["product"], value="bc_qty")
        assert rows == {("apple",): 20.0, ("pear",): 10.0, ("milk",): 4.0}
        own = result_as_dict(result, ["product"], value="qty")
        assert own == {("apple",): 15.0, ("pear",): 7.0, ("milk",): 3.0}

    def test_outer_join_fills_nan(self, executor, catalog):
        right = agg_query(
            (GroupByColumn("product", "name", "product"),),
            where=(
                ColumnPredicate("store", "country", Predicate.eq("country", "France")),
                ColumnPredicate("product", "type", Predicate.eq("type", "fruit")),
            ),
        )
        query = DrillAcrossQuery(self.left(), right, ("product",), {"qty": "bc_qty"},
                                 outer=True)
        result = executor.execute(query)
        rows = result_as_dict(result, ["product"], value="bc_qty")
        assert math.isnan(rows[("milk",)])
        assert rows[("apple",)] == 20.0

    def test_non_unique_right_without_multi_rejected(self, executor):
        wide = agg_query(
            (
                GroupByColumn("product", "name", "product"),
                GroupByColumn("store", "country", "country"),
            )
        )
        query = DrillAcrossQuery(self.left(), wide, ("product",), {"qty": "bc"})
        with pytest.raises(EngineError):
            executor.execute(query)

    def test_multi_join_appends_numbered_columns(self, executor):
        wide = agg_query(
            (
                GroupByColumn("product", "name", "product"),
                GroupByColumn("store", "country", "country"),
            )
        )
        query = DrillAcrossQuery(self.left(), wide, ("product",), {"qty": "bc"},
                                 multi=True)
        result = executor.execute(query)
        # each product matches France + Italy rows, ordered by coordinate
        assert "bc_1" in result.column_names and "bc_2" in result.column_names
        rows1 = result_as_dict(result, ["product"], value="bc_1")
        rows2 = result_as_dict(result, ["product"], value="bc_2")
        # 'France' < 'Italy' lexicographically → slot 1 is France
        assert rows1[("apple",)] == 20.0 and rows2[("apple",)] == 15.0

    def test_join_alias_validation(self):
        with pytest.raises(EngineError):
            DrillAcrossQuery(self.left(), self.right(), ("country",), {})


class TestPivot:
    def base(self):
        return agg_query(
            (
                GroupByColumn("product", "name", "product"),
                GroupByColumn("store", "country", "country"),
            )
        )

    def test_pivot_matches_drill_across(self, executor):
        """P3 at the engine level: pivot ≡ get+get+join."""
        pivot = PivotQuery(
            self.base(), "country", "Italy", {"France": {"qty": "bc_qty"}}
        )
        joined = DrillAcrossQuery(
            agg_query(
                (GroupByColumn("product", "name", "product"),
                 GroupByColumn("store", "country", "country")),
                where=(ColumnPredicate("store", "country",
                                       Predicate.eq("country", "Italy")),),
            ),
            agg_query(
                (GroupByColumn("product", "name", "product"),),
                where=(ColumnPredicate("store", "country",
                                       Predicate.eq("country", "France")),),
            ),
            ("product",),
            {"qty": "bc_qty"},
        )
        via_pivot = result_as_dict(executor.execute(pivot), ["product"], "bc_qty")
        via_join = result_as_dict(executor.execute(joined), ["product"], "bc_qty")
        assert via_pivot == via_join

    def test_pivot_require_all_filters(self, executor, catalog):
        base = agg_query(
            (
                GroupByColumn("product", "name", "product"),
                GroupByColumn("store", "country", "country"),
            ),
            where=(ColumnPredicate(FACT, "qty", Predicate.between("qty", 4.0, 50.0)),),
        )
        # milk Italy (3.0) filtered out → France milk has no Italian reference
        strict = executor.execute(
            PivotQuery(base, "country", "Italy", {"France": {"qty": "bc"}},
                       require_all=True)
        )
        assert ("milk",) not in result_as_dict(strict, ["product"], "bc")
        lax = executor.execute(
            PivotQuery(base, "country", "Italy", {"France": {"qty": "bc"}},
                       require_all=False)
        )
        assert len(lax) == len(strict)  # milk has no reference row either way

    def test_reference_slice_retained(self, executor):
        result = executor.execute(
            PivotQuery(self.base(), "country", "France", {"Italy": {"qty": "it"}})
        )
        assert set(result.column("country")) == {"France"}

    def test_unknown_pivot_alias_rejected(self):
        with pytest.raises(EngineError):
            PivotQuery(self.base(), "region", "Italy", {})

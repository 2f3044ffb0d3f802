"""Unit tests for the engine's vectorised query processor.

The aggregate kernel is validated against hand-computed expectations on a
small star; the pushed drill-across and pivot, which the multidimensional
engine runs as cube operators over its gets, against hand-computed
expectations and against each other (P3 equivalence at the engine level).
"""

import math

import numpy as np
import pytest

from repro.core import CubeQuery, EngineError, GroupBySet, Predicate
from repro.datagen.flat import star_from_flat
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
from repro.olap import MultidimensionalEngine

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
        result = executor.execute_aggregate(agg_query((GroupByColumn("store", "country", "country"),)))
        assert result_as_dict(result, ["country"]) == {
            ("Italy",): 25.0,
            ("France",): 34.0,
        }

    def test_group_by_two_columns(self, executor):
        result = executor.execute_aggregate(
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
        result = executor.execute_aggregate(agg_query(()))
        assert len(result) == 1
        assert result.column("qty")[0] == 59.0

    def test_dimension_predicate(self, executor):
        result = executor.execute_aggregate(
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
        result = executor.execute_aggregate(
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
        result = executor.execute_aggregate(
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
        result = executor.execute_aggregate(
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
        result = executor.execute_aggregate(
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
            EngineExecutor(catalog).execute_aggregate(query)


# The same star as one cube, plus a lemon sold only in France: the pushed
# drill-across and pivot are the engine's gets joined or pivoted as cubes.
ENGINE_ROWS = [
    (("apple", "pear", "milk")[pkey], ("fruit", "fruit", "dairy")[pkey],
     ("Italy", "France")[skey], qty)
    for pkey, skey, qty in FACT_ROWS
] + [("lemon", "fruit", "France", 6.0)]


@pytest.fixture(scope="module")
def engine():
    engine = MultidimensionalEngine(Catalog())
    columns = list(zip(*ENGINE_ROWS))
    star_from_flat(
        engine,
        "S",
        Table("flat", {
            "product": np.array(columns[0], dtype=object),
            "type": np.array(columns[1], dtype=object),
            "country": np.array(columns[2], dtype=object),
            "qty": np.array(columns[3], dtype=np.float64),
        }),
        {"Product": ["product", "type"], "Store": ["country"]},
        {"qty": "sum"},
    )
    return engine


def get(engine, levels, *predicates):
    schema = engine.cube("S").schema
    return CubeQuery("S", GroupBySet(schema, levels), predicates, ("qty",))


def cells(cube, value):
    return {
        coordinate[0]: measures[value] for coordinate, measures in cube.cells()
    }


class TestDrillAcross:
    def left(self, engine):
        return get(engine, ["product"], Predicate.eq("country", "Italy"))

    def right(self, engine):
        return get(engine, ["product"], Predicate.eq("country", "France"))

    def test_inner_join(self, engine):
        cube = engine.drill_across(self.left(engine), self.right(engine), ["product"])
        assert cells(cube, "benchmark.qty") == {
            "apple": 20.0, "pear": 10.0, "milk": 4.0,
        }
        assert cells(cube, "qty") == {"apple": 15.0, "pear": 7.0, "milk": 3.0}

    def test_outer_join_fills_nan(self, engine):
        right = get(
            engine, ["product"],
            Predicate.eq("country", "France"), Predicate.eq("type", "fruit"),
        )
        cube = engine.drill_across(self.left(engine), right, ["product"], outer=True)
        rows = cells(cube, "benchmark.qty")
        assert math.isnan(rows["milk"])
        assert rows["apple"] == 20.0
        assert "lemon" not in rows

    def test_non_unique_right_without_multi_rejected(self, engine):
        wide = get(engine, ["product", "country"])
        with pytest.raises(EngineError):
            engine.drill_across(self.left(engine), wide, ["product"])

    def test_multi_join_appends_numbered_columns(self, engine):
        left = get(engine, ["product", "country"], Predicate.eq("country", "Italy"))
        wide = get(engine, ["product", "country"])
        cube = engine.drill_across(left, wide, ["product"], multi=True)
        # each product matches France + Italy rows, ordered by coordinate
        assert "benchmark.qty_1" in cube.measure_names
        assert "benchmark.qty_2" in cube.measure_names
        # 'France' < 'Italy' lexicographically → slot 1 is France
        assert cells(cube, "benchmark.qty_1")["apple"] == 20.0
        assert cells(cube, "benchmark.qty_2")["apple"] == 15.0

    def test_join_alias_validation(self):
        left = agg_query(
            (GroupByColumn("product", "name", "product"),),
            where=(ColumnPredicate("store", "country", Predicate.eq("country", "Italy")),),
        )
        with pytest.raises(EngineError):
            DrillAcrossQuery(left, left, ("country",), {})


class TestPivot:
    def base(self, engine):
        return get(engine, ["product", "country"])

    def test_pivot_matches_drill_across(self, engine):
        """P3 at the engine level: pivot ≡ get+get+join."""
        pivot = engine.pivot_get(
            self.base(engine), "country", "Italy",
            {"France": {"qty": "benchmark.qty"}},
        )
        joined = engine.drill_across(
            get(engine, ["product", "country"], Predicate.eq("country", "Italy")),
            get(engine, ["product"], Predicate.eq("country", "France")),
            ["product"],
        )
        assert cells(pivot, "benchmark.qty") == cells(joined, "benchmark.qty")

    def test_pivot_require_all_filters(self, engine):
        # lemon is sold in France only: it has no Italian neighbour
        strict = engine.pivot_get(
            self.base(engine), "country", "France", {"Italy": {"qty": "it"}},
            require_all=True,
        )
        assert "lemon" not in cells(strict, "it")
        lax = engine.pivot_get(
            self.base(engine), "country", "France", {"Italy": {"qty": "it"}},
            require_all=False,
        )
        assert math.isnan(cells(lax, "it")["lemon"])
        assert len(lax) == len(strict) + 1

    def test_reference_slice_retained(self, engine):
        cube = engine.pivot_get(
            self.base(engine), "country", "France", {"Italy": {"qty": "it"}}
        )
        assert set(cube.coords["country"]) == {"France"}

    def test_unknown_pivot_alias_rejected(self):
        base = agg_query(
            (
                GroupByColumn("product", "name", "product"),
                GroupByColumn("store", "country", "country"),
            )
        )
        with pytest.raises(EngineError):
            PivotQuery(base, "region", "Italy", {})

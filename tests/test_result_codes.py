"""The dictionary codes a result carries, and the joins that read them.

Every producer of an engine result — a cold pass, a cache hit, a batch
memo copy, a fused member, a cache derivation, a drill-across (unique or
fan-in) and a pivot — keeps, per grouping column, the ``(codes,
dictionary)`` pair its pass grouped by, with ``dictionary[codes]`` equal
to the column.  Drill-across and pivot join on those codes; where the two
sides' dictionaries differ they are remapped through the sorted union,
and the answer must equal a join on the decoded values bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.executor import BatchEngineExecutor, SharingReport
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate
from repro.engine import (
    Aggregate,
    AggregateQuery,
    Catalog,
    DimensionJoin,
    DrillAcrossQuery,
    EngineExecutor,
    FACT,
    GroupByColumn,
    PivotQuery,
    Table,
)
from repro.engine.executor import ResultSet
from tests.test_cache import _random_engine


def _assert_codes_decode(result: ResultSet, aliases) -> None:
    """Each alias carries codes that decode to its column exactly."""
    for alias in aliases:
        assert alias in result.codes, f"{alias!r} was not carried"
        codes, dictionary = result.codes[alias]
        assert codes.dtype.itemsize <= 4
        assert dictionary[codes].tolist() == result.column(alias).tolist()
        assert dictionary.tolist() == sorted(set(dictionary.tolist()))


@pytest.mark.parametrize("seed", range(3))
def test_every_producer_carries_codes_that_decode(seed):
    engine, (h0, h1) = _random_engine(seed, n_rows=600)
    schema = engine.cube("RAND").schema
    executor = engine.executor
    fine_levels = [h0.level_names()[0], h1.level_names()[0]]
    measures = ("m_sum", "m_min")

    def aggregate(levels, predicates=()):
        query = CubeQuery("RAND", GroupBySet(schema, levels), predicates, measures)
        return engine.build_aggregate_query(query)

    fine = aggregate(fine_levels)
    cold = executor.execute_aggregate(fine)
    hit = executor.execute_aggregate(fine)
    assert engine.result_cache.stats()["hits"] == 1
    middle = h0.level_names()[1]
    kept = sorted(h0.members_of(middle))[:2]
    derived = executor.execute_aggregate(
        aggregate([h0.level_names()[-1]], (Predicate.isin(middle, kept),))
    )
    assert engine.result_cache.stats()["derivations"] == 1
    for result in (cold, hit):
        _assert_codes_decode(result, fine_levels)
    _assert_codes_decode(derived, [h0.level_names()[-1]])

    batch = BatchEngineExecutor(
        engine.catalog, engine.result_cache, [], SharingReport()
    )
    batch.execute_aggregate(fine)
    memo = batch.execute_aggregate(fine)
    assert batch.report.shared_hits == 1
    _assert_codes_decode(memo, fine_levels)

    coarse = aggregate([h0.level_names()[1]])
    fused, _ = EngineExecutor(engine.catalog).execute_fused(
        [fine, coarse], (), [(), ()]
    )
    _assert_codes_decode(fused[0], fine_levels)
    _assert_codes_decode(fused[1], [h0.level_names()[1]])

    key = fine_levels[0]
    members = sorted(h1.members_of(fine_levels[1]))
    one = aggregate(fine_levels, (Predicate.eq(fine_levels[1], members[0]),))
    joined = executor.execute(DrillAcrossQuery(
        one, aggregate([key]), (key,), {"m_sum": "bc_sum", "m_min": "bc_min"},
        outer=True,
    ))
    _assert_codes_decode(joined, fine_levels)
    fanned = executor.execute(DrillAcrossQuery(
        aggregate([key]), fine, (key,), {"m_sum": "bc"}, multi=True,
    ))
    _assert_codes_decode(fanned, [key])
    pivoted = executor.execute(PivotQuery(
        fine, fine_levels[1], members[0],
        {member: {"m_sum": f"bc_{i}"} for i, member in enumerate(members[1:])},
        require_all=False,
    ))
    _assert_codes_decode(pivoted, fine_levels)


def test_a_result_built_without_codes_encodes_on_demand():
    result = ResultSet({
        "city": np.array(["b", "a", "c", "a"], dtype=object),
        "v": np.arange(4.0),
    })
    assert result.codes == {}
    codes, dictionary = result.encoded("city")
    assert dictionary.tolist() == ["a", "b", "c"]
    assert codes.tolist() == [1, 0, 2, 0]
    assert result.encoded("city") is result.codes["city"]


# ----------------------------------------------------------------------
# Drill-across between sides with different dictionaries
# ----------------------------------------------------------------------
POOL = np.array([f"p{i:02d}" for i in range(40)], dtype=object)


def _unequal_catalog(seed: int) -> Catalog:
    """Two stars whose product and year dictionaries overlap only partly.

    Each fact table has its own product dimension, drawn from a different
    random subset of one member pool, and its own span of years — so each
    side has members the other lacks, on an object and an integer column.
    """
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    for side, years in (("a", (2000, 2006)), ("b", (2003, 2009))):
        names = np.sort(rng.choice(POOL, size=int(rng.integers(8, 25)), replace=False))
        catalog.register(Table(f"dim_{side}", {
            "pkey": np.arange(len(names), dtype=np.int64),
            "name": names,
        }))
        rows = 500
        catalog.register(Table(f"fact_{side}", {
            "pkey": rng.integers(0, len(names), rows).astype(np.int64),
            "year": rng.integers(*years, rows).astype(np.int64),
            "qty": rng.uniform(0.0, 10.0, rows),
        }))
    return catalog


def _side(side: str, by_year: bool = True) -> AggregateQuery:
    group_by = [GroupByColumn(f"dim_{side}", "name", "product")]
    if by_year:
        group_by.append(GroupByColumn(FACT, "year", "year"))
    return AggregateQuery(
        fact=f"fact_{side}",
        joins=(DimensionJoin(f"dim_{side}", "pkey", "pkey"),),
        where=(),
        group_by=group_by,
        aggregates=(Aggregate("qty", "sum", "qty"), Aggregate("qty", "max", "top")),
    )


def _value_join(left, right, join_on, renames, outer) -> ResultSet:
    """The drill-across as a join on decoded values, row by row."""
    index = {
        tuple(right.column(alias)[row] for alias in join_on): row
        for row in range(len(right))
    }
    rows, matches = [], []
    for row in range(len(left)):
        match = index.get(tuple(left.column(alias)[row] for alias in join_on))
        if match is not None or outer:
            rows.append(row)
            matches.append(-1 if match is None else match)
    columns = {name: left.column(name)[rows] for name in left.column_names}
    for name, renamed in renames.items():
        source = right.column(name)
        columns[renamed] = np.array(
            [np.nan if match < 0 else source[match] for match in matches],
            dtype=np.float64,
        )
    return ResultSet(columns)


def _assert_bit_identical(actual: ResultSet, expected: ResultSet) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        got, want = actual.column(name), expected.column(name)
        if want.dtype == np.float64:
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        else:
            assert got.tolist() == want.tolist(), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("outer", [False, True])
def test_drill_across_on_unequal_dictionaries_equals_a_value_join(seed, outer):
    catalog = _unequal_catalog(seed)
    executor = EngineExecutor(catalog)
    left = executor.execute(_side("a"))
    right = executor.execute(_side("b"))
    for alias in ("product", "year"):
        assert left.codes[alias][1].tolist() != right.codes[alias][1].tolist()
    renames = {"qty": "bc_qty", "top": "bc_top"}
    query = DrillAcrossQuery(_side("a"), _side("b"), ("product", "year"), renames,
                             outer=outer)
    joined = executor.execute(query)
    expected = _value_join(left, right, ("product", "year"), renames, outer)
    _assert_bit_identical(joined, expected)
    _assert_codes_decode(joined, ("product", "year"))
    if outer:
        assert np.isnan(joined.column("bc_qty")).any()
    assert len(joined) > 0


def test_fan_in_join_on_unequal_dictionaries_slots_every_match():
    catalog = _unequal_catalog(11)
    executor = EngineExecutor(catalog)
    left = executor.execute(_side("a", by_year=False))
    right = executor.execute(_side("b"))
    joined = executor.execute(DrillAcrossQuery(
        _side("a", by_year=False), _side("b"), ("product",), {"qty": "bc"},
        outer=True, multi=True,
    ))
    years = sorted(set(right.column("year").tolist()))
    expected = {
        (product, year): qty
        for product, year, qty in zip(
            right.column("product"), right.column("year"), right.column("qty")
        )
    }
    assert len(joined) == len(left)
    for row, product in enumerate(joined.column("product")):
        for slot, year in enumerate(years, start=1):
            value = joined.column(f"bc_{slot}")[row]
            want = expected.get((product, year), np.nan)
            assert np.float64(value).view(np.int64) == np.float64(want).view(np.int64)

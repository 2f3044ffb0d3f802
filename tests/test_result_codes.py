"""The dictionary codes a result carries, and the joins that read them.

Every producer of an engine result — a cold pass, a cache hit, a batch
memo copy, a fused member, a cache derivation, a pushed drill-across
(unique or fan-in) and a pushed pivot — keeps, per grouping column, the
``(codes, dictionary)`` pair its pass grouped by, with
``dictionary[codes]`` equal to the column.  The drill-across and pivot
join the cubes of their gets on those codes; where the two sides'
dictionaries differ they are remapped through the sorted union, and the
answer must equal a join on the decoded values bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.executor import BatchEngineExecutor, SharingReport
from repro.core import Cube, CubeSchema, Hierarchy, Level, Measure
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate
from repro.engine import Catalog, EngineExecutor, Table
from repro.engine.executor import ResultSet
from repro.engine.star import DimensionBinding, StarSchema
from repro.olap import MultidimensionalEngine
from tests.test_cache import _random_engine


def _assert_cube_codes_decode(cube: Cube) -> None:
    """Each level of a cube carries codes that decode to its column."""
    result = ResultSet({**cube.coords, **cube.measures})
    result.codes = cube.codes
    _assert_codes_decode(result, cube.group_by.levels)


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

    def get(levels, predicates=()):
        return CubeQuery("RAND", GroupBySet(schema, levels), predicates, measures)

    key = fine_levels[0]
    members = sorted(h1.members_of(fine_levels[1]))
    one = get(fine_levels, (Predicate.eq(fine_levels[1], members[0]),))
    joined = engine.drill_across(one, get([key]), [key], outer=True)
    _assert_cube_codes_decode(joined)
    fanned = engine.drill_across(one, get(fine_levels), [key], multi=True)
    _assert_cube_codes_decode(fanned)
    pivoted = engine.pivot_get(
        get(fine_levels), fine_levels[1], members[0],
        {member: {"m_sum": f"bc_{i}"} for i, member in enumerate(members[1:])},
        require_all=False,
    )
    _assert_cube_codes_decode(pivoted)


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


def _unequal_engine(seed: int) -> MultidimensionalEngine:
    """Two cubes whose product and year dictionaries overlap only partly.

    Each cube's fact table has its own product dimension, drawn from a
    different random subset of one member pool, and its own span of years
    — so each side has members the other lacks, on an object and an
    integer column.
    """
    rng = np.random.default_rng(seed)
    engine = MultidimensionalEngine(Catalog())
    for side, years in (("a", (2000, 2006)), ("b", (2003, 2009))):
        names = np.sort(rng.choice(POOL, size=int(rng.integers(8, 25)), replace=False))
        engine.catalog.register(Table(f"dim_{side}", {
            "pkey": np.arange(len(names), dtype=np.int64),
            "name": names,
        }))
        rows = 500
        engine.catalog.register(Table(f"fact_{side}", {
            "pkey": rng.integers(0, len(names), rows).astype(np.int64),
            "year": rng.integers(*years, rows).astype(np.int64),
            "qty": rng.uniform(0.0, 10.0, rows),
        }))
        schema = CubeSchema(
            side.upper(),
            [Hierarchy("Product", [Level("product")]),
             Hierarchy("Time", [Level("year")])],
            [Measure("qty", "sum"), Measure("top", "max")],
        )
        star = StarSchema(
            side.upper(), f"fact_{side}",
            [DimensionBinding("Product", f"dim_{side}", "pkey", "pkey",
                              {"product": "name"})],
            {"qty": "qty", "top": "qty"},
            degenerate_levels={"year": "year"},
        )
        engine.register_cube(side.upper(), schema, star)
    return engine


def _side(engine, side: str, by_year: bool = True) -> CubeQuery:
    cube = side.upper()
    levels = ["product", "year"] if by_year else ["product"]
    schema = engine.cube(cube).schema
    return CubeQuery(cube, GroupBySet(schema, levels), (), ("qty", "top"))


def _value_join(left: Cube, right: Cube, join_on, outer) -> Cube:
    """The drill-across as a join on decoded values, row by row."""
    index = {
        tuple(right.coords[level][row] for level in join_on): row
        for row in range(len(right))
    }
    rows, matches = [], []
    for row in range(len(left)):
        match = index.get(tuple(left.coords[level][row] for level in join_on))
        if match is not None or outer:
            rows.append(row)
            matches.append(-1 if match is None else match)
    joined = left.take(np.array(rows, dtype=np.int64))
    for name, source in right.measures.items():
        joined.measures[f"benchmark.{name}"] = np.array(
            [np.nan if match < 0 else source[match] for match in matches],
            dtype=np.float64,
        )
    return joined


def _assert_bit_identical(actual: Cube, expected: Cube) -> None:
    assert actual.group_by.levels == expected.group_by.levels
    assert actual.measure_names == expected.measure_names
    for level in expected.group_by.levels:
        assert actual.coords[level].tolist() == expected.coords[level].tolist(), level
    for name, want in expected.measures.items():
        got = actual.measures[name]
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("outer", [False, True])
def test_drill_across_on_unequal_dictionaries_equals_a_value_join(seed, outer):
    engine = _unequal_engine(seed)
    left = engine.get(_side(engine, "a"))
    right = engine.get(_side(engine, "b"))
    for level in ("product", "year"):
        assert left.codes[level][1].tolist() != right.codes[level][1].tolist()
    joined = engine.drill_across(
        _side(engine, "a"), _side(engine, "b"), ("product", "year"), outer=outer
    )
    expected = _value_join(left, right, ("product", "year"), outer)
    _assert_bit_identical(joined, expected)
    _assert_cube_codes_decode(joined)
    if outer:
        assert np.isnan(joined.measure("benchmark.qty")).any()
    assert len(joined) > 0


def test_fan_in_join_on_unequal_dictionaries_slots_every_match():
    engine = _unequal_engine(11)
    left = engine.get(_side(engine, "a"))
    right = engine.get(_side(engine, "b"))
    joined = engine.drill_across(
        _side(engine, "a"), _side(engine, "b"), ("product",),
        outer=True, multi=True,
    )
    years = sorted(set(right.coords["year"].tolist()))
    expected = {
        coordinate: measures["qty"] for coordinate, measures in right.cells()
    }
    assert len(joined) == len(left)
    for row, product in enumerate(joined.coords["product"]):
        for slot, year in enumerate(years, start=1):
            value = joined.measure(f"benchmark.qty_{slot}")[row]
            want = expected.get((product, year), np.nan)
            assert np.float64(value).view(np.int64) == np.float64(want).view(np.int64)

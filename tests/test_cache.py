"""Semantic result cache: correctness, derivation, invalidation.

The central property: with the cache enabled, every answer — cold, exact
hit, or derived from a finer cached result — is *bit-identical* to what
cache-off execution produces, across random star schemas, hierarchies,
and query mixes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.cost import Statistics
from repro.cache import fingerprint_query
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate, PredicateOp
from repro.datagen.flat import star_from_flat
from repro.datagen.random_cube import brute_force_rollup, random_hierarchy
from repro.engine.catalog import Catalog
from repro.engine.executor import EngineExecutor
from repro.engine.kernels import sums_exactly
from repro.engine.query import (
    Aggregate,
    AggregateQuery,
    ColumnPredicate,
    GroupByColumn,
)
from repro.engine.table import Table
from repro.olap.engine import MultidimensionalEngine


# ----------------------------------------------------------------------
# Random star engines (reusing the random-cube hierarchy generator)
# ----------------------------------------------------------------------
def _random_engine(seed: int, n_rows: int = 400):
    """A random 2-hierarchy star engine with integral and fractional measures."""
    rng = np.random.default_rng(seed)
    h0 = random_hierarchy(rng, "H0", depth=3)
    h1 = random_hierarchy(rng, "H1", depth=2)
    hierarchies = [h0, h1]
    columns = {}
    for hierarchy in hierarchies:
        finest = hierarchy.finest_level.name
        members = sorted(hierarchy.members_of(finest))
        chosen = [members[i] for i in rng.integers(0, len(members), n_rows)]
        for level in hierarchy.level_names():
            column = np.empty(n_rows, dtype=object)
            column[:] = [
                hierarchy.rollup_member(member, finest, level) for member in chosen
            ]
            columns[level] = column
    columns["m_sum"] = rng.integers(0, 1000, n_rows).astype(np.float64)
    columns["m_min"] = rng.integers(0, 1000, n_rows).astype(np.float64)
    columns["m_avg"] = rng.uniform(0.0, 100.0, n_rows)
    columns["m_frac"] = np.round(rng.uniform(0.0, 100.0, n_rows), 2)
    engine = MultidimensionalEngine(Catalog())
    star_from_flat(
        engine,
        "RAND",
        Table("flat", columns),
        {h.name: list(h.level_names()) for h in hierarchies},
        {"m_sum": "sum", "m_min": "min", "m_avg": "avg", "m_frac": "sum"},
    )
    return engine, hierarchies


def _random_queries(rng, schema, hierarchies, count: int = 10):
    queries = []
    for _ in range(count):
        levels = [
            h.level_names()[int(rng.integers(0, len(h.levels)))]
            for h in hierarchies
            if rng.random() < 0.8
        ]
        if not levels:
            levels = [hierarchies[0].level_names()[0]]
        predicates = []
        for hierarchy in hierarchies:
            if rng.random() < 0.4:
                level = hierarchy.level_names()[
                    int(rng.integers(0, len(hierarchy.levels)))
                ]
                members = sorted(hierarchy.members_of(level))
                k = int(rng.integers(1, min(3, len(members)) + 1))
                picks = rng.choice(len(members), size=k, replace=False)
                predicates.append(Predicate.isin(level, [members[i] for i in picks]))
        all_measures = ("m_sum", "m_min", "m_avg", "m_frac")
        keep = [m for m in all_measures if rng.random() < 0.7]
        measures = tuple(keep) or ("m_sum",)
        queries.append(
            CubeQuery("RAND", GroupBySet(schema, levels), predicates, measures)
        )
    return queries


def _assert_same_cube(left, right) -> None:
    assert list(left.coords) == list(right.coords)
    assert list(left.measures) == list(right.measures)
    for name in left.coords:
        a, b = left.coords[name], right.coords[name]
        assert len(a) == len(b)
        assert all(x == y for x, y in zip(a.tolist(), b.tolist())), name
    for name in left.measures:
        assert np.array_equal(
            left.measures[name], right.measures[name], equal_nan=True
        ), name


# ----------------------------------------------------------------------
# The property: cache-on answers are bit-identical to cache-off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_cached_answers_bit_identical_across_random_cubes(seed):
    engine, hierarchies = _random_engine(seed)
    reference, _ = _random_engine(seed)
    reference.result_cache.enabled = False
    schema = engine.cube("RAND").schema
    rng = np.random.default_rng(1000 + seed)
    queries = _random_queries(rng, schema, hierarchies)
    # Two passes: the first mixes cold executions with derivations, the
    # second is dominated by exact hits.  Every answer must match the
    # cache-off engine bit for bit.
    for query in queries + queries:
        _assert_same_cube(engine.get(query), reference.get(query))
    stats = engine.result_cache.stats()
    assert stats["hits"] >= len(queries)  # second pass served warm
    assert stats["misses"] + stats["derivations"] >= 1


def test_repeated_get_is_an_exact_hit():
    engine, hierarchies = _random_engine(42)
    schema = engine.cube("RAND").schema
    query = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[0]]), (), ("m_sum",)
    )
    first = engine.get(query)
    second = engine.get(query)
    _assert_same_cube(first, second)
    stats = engine.result_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_drill_up_derives_without_touching_the_fact_table(monkeypatch):
    engine, hierarchies = _random_engine(7)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    fine = CubeQuery(
        "RAND",
        GroupBySet(schema, [h0.level_names()[0], hierarchies[1].level_names()[0]]),
        (),
        ("m_sum", "m_min"),
    )
    engine.get(fine)

    cold_calls = []
    original = EngineExecutor.execute_aggregate

    def spy(self, query):
        cold_calls.append(query)
        return original(self, query)

    monkeypatch.setattr(EngineExecutor, "execute_aggregate", spy)
    coarse = CubeQuery(
        "RAND", GroupBySet(schema, [h0.level_names()[-1]]), (), ("m_sum", "m_min")
    )
    derived = engine.get(coarse)
    assert not cold_calls, "derivation must not re-execute against the fact table"
    assert engine.result_cache.stats()["derivations"] == 1

    monkeypatch.setattr(EngineExecutor, "execute_aggregate", original)
    engine.result_cache.enabled = False
    _assert_same_cube(derived, engine.get(coarse))


def test_derivation_applies_residual_predicates():
    engine, hierarchies = _random_engine(11)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    fine_level, coarse_level = h0.level_names()[0], h0.level_names()[-1]
    engine.get(CubeQuery("RAND", GroupBySet(schema, [fine_level]), (), ("m_sum",)))
    member = sorted(h0.members_of(coarse_level))[0]
    filtered = CubeQuery(
        "RAND",
        GroupBySet(schema, [coarse_level]),
        (Predicate.eq(coarse_level, member),),
        ("m_sum",),
    )
    derived = engine.get(filtered)
    assert engine.result_cache.stats()["derivations"] == 1
    engine.result_cache.enabled = False
    _assert_same_cube(derived, engine.get(filtered))


def test_fractional_sums_fall_back_to_cold_execution():
    engine, hierarchies = _random_engine(13)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    engine.get(
        CubeQuery("RAND", GroupBySet(schema, [h0.level_names()[0]]), (), ("m_frac",))
    )
    coarse = CubeQuery(
        "RAND", GroupBySet(schema, [h0.level_names()[-1]]), (), ("m_frac",)
    )
    warm = engine.get(coarse)
    # Re-associating fractional partial sums would drift by ulps, so the
    # exactness gate refuses the derivation and executes cold instead.
    stats = engine.result_cache.stats()
    assert stats["derivations"] == 0
    assert stats["misses"] == 2
    engine.result_cache.enabled = False
    _assert_same_cube(warm, engine.get(coarse))


def _integral_partials_engine(seed: int = 5, n_rows: int = 600):
    """A star whose 2-decimal measure sums to an integer in every ``day``.

    Each day's last row is chosen so that the row-order sum of the day —
    the cold scan's fold — lands on an integer, while the months over
    those days still sum their fractional rows.
    """
    rng = np.random.default_rng(seed)
    day = rng.integers(0, 60, n_rows)
    amount = np.round(rng.uniform(0.0, 10.0, n_rows), 2)
    for d in np.unique(day):
        rows = np.flatnonzero(day == d)
        head = 0.0
        for value in amount[rows[:-1]]:
            head += value
        for target in range(int(head) + 1, int(head) + 200):
            last = round(target - head, 2)
            if head + last == target:
                amount[rows[-1]] = last
                break
        else:  # pragma: no cover - the seed is fixed
            raise AssertionError(f"no integral completion for day {d}")
    engine = MultidimensionalEngine(Catalog())
    star_from_flat(
        engine,
        "DAYS",
        Table("flat", {
            "day": np.array([f"d{d:02d}" for d in day], dtype=object),
            "month": np.array([f"m{d // 10}" for d in day], dtype=object),
            "amount": amount,
        }),
        {"Time": ["day", "month"]},
        {"amount": "sum"},
    )
    return engine


def test_integral_partials_of_a_fractional_measure_are_not_re_added():
    engine = _integral_partials_engine()
    reference = _integral_partials_engine()
    reference.result_cache.enabled = False
    schema = engine.cube("DAYS").schema
    fine = engine.get(CubeQuery("DAYS", GroupBySet(schema, ["day"]), (), ("amount",)))
    # The cached partials pass the float gate; the fact column does not.
    assert sums_exactly(fine.measures["amount"])
    coarse = CubeQuery("DAYS", GroupBySet(schema, ["month"]), (), ("amount",))
    warm = engine.get(coarse)
    stats = engine.result_cache.stats()
    assert stats["derivations"] == 0
    assert stats["misses"] == 2
    _assert_same_cube(warm, reference.get(coarse))


def _ssb_quantity_get(engine, level):
    schema = engine.cube("SSB").schema
    return engine.build_aggregate_query(
        CubeQuery("SSB", GroupBySet(schema, [level]), (), ("quantity",))
    )


def _degenerate_engine():
    """A single-table star whose two-level hierarchy lives on the fact table."""
    from repro.core.hierarchy import Hierarchy, Level
    from repro.core.schema import CubeSchema, Measure
    from repro.engine.star import StarSchema

    rng = np.random.default_rng(3)
    cities = rng.integers(0, 40, 500)
    catalog = Catalog()
    catalog.register(Table("flat_fact", {
        "f_city": np.asarray([f"city{c:02d}" for c in cities], dtype=object),
        "f_region": np.asarray([f"region{c % 7}" for c in cities], dtype=object),
        "f_quantity": rng.integers(1, 50, 500).astype(np.float64),
    }))
    schema = CubeSchema(
        "FLAT",
        [Hierarchy("Geo", [Level("city"), Level("region")])],
        [Measure("quantity", "sum")],
    )
    star = StarSchema(
        "FLAT", "flat_fact", [], {"quantity": "f_quantity"},
        degenerate_levels={"city": "f_city", "region": "f_region"},
    )
    engine = MultidimensionalEngine(catalog)
    engine.register_cube("FLAT", schema, star)
    return engine


@pytest.mark.parametrize("source, fine, coarse", [
    ("SSB", "month", "year"),
    ("SSB", "c_city", "c_region"),
    ("SSB", "category", "mfgr"),
    ("FLAT", "city", "region"),  # degenerate levels: the fact table binds both
])
def test_a_derived_answer_is_a_cold_answer(source, fine, coarse):
    from repro.datagen import ssb_engine

    if source == "SSB":
        engine = ssb_engine(lineorder_rows=4_000, seed=5, with_budget=False)
    else:
        engine = _degenerate_engine()
    schema = engine.cube(source).schema

    def run(level):
        return engine.executor.execute_aggregate(engine.build_aggregate_query(
            CubeQuery(source, GroupBySet(schema, [level]), (), ("quantity",))
        ))

    run(fine)
    derived = run(coarse)
    assert engine.result_cache.stats()["derivations"] == 1
    engine.result_cache.enabled = False
    cold = run(coarse)
    derived_codes, derived_dictionary = derived.codes[coarse]
    cold_codes, cold_dictionary = cold.codes[coarse]
    assert derived_dictionary is cold_dictionary
    assert derived_codes.dtype == cold_codes.dtype
    assert np.array_equal(derived_codes, cold_codes)
    assert derived.column(coarse).tolist() == cold.column(coarse).tolist()
    assert derived.column("quantity").tobytes() == cold.column("quantity").tobytes()


def test_a_non_functional_rollup_refuses_to_derive():
    """A city with two regions has no roll-up: derivation must run cold."""
    from repro.datagen import ssb_engine

    engine = ssb_engine(lineorder_rows=20_000, seed=5, with_budget=False)
    customer = engine.catalog.table("ssb_customer")
    columns = {name: customer.column(name).copy() for name in customer.column_names}
    cities, counts = np.unique(columns["c_city"], return_counts=True)
    city = cities[np.argmax(counts)]
    row = int(np.flatnonzero(columns["c_city"] == city)[0])
    regions = np.unique(columns["c_region"])
    columns["c_region"][row] = regions[regions != columns["c_region"][row]][0]
    engine.catalog.register(Table("ssb_customer", columns), replace=True)

    engine.executor.execute_aggregate(_ssb_quantity_get(engine, "c_city"))
    before = engine.result_cache.stats()["derivations"]
    warm = engine.executor.execute_aggregate(_ssb_quantity_get(engine, "c_region"))
    assert engine.result_cache.stats()["derivations"] == before
    engine.result_cache.enabled = False
    cold = engine.executor.execute_aggregate(_ssb_quantity_get(engine, "c_region"))
    assert warm.column("c_region").tolist() == cold.column("c_region").tolist()
    assert warm.column("quantity").tobytes() == cold.column("quantity").tobytes()


def test_sums_exactly_gate():
    assert sums_exactly(np.array([], dtype=np.float64))
    assert sums_exactly(np.array([1.0, 2.0, 3e9]))
    assert not sums_exactly(np.array([1.5, 2.0]))
    assert not sums_exactly(np.array([np.nan, 1.0]))
    assert not sums_exactly(np.full(4, 2.0**52))


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _aggregate_query(where=(), group_by=None, aggregates=None):
    return AggregateQuery(
        fact="f",
        joins=(),
        where=tuple(where),
        group_by=tuple(group_by or (GroupByColumn("f", "a", "a"),)),
        aggregates=tuple(aggregates or (Aggregate("m", "sum", "m"),)),
    )


def test_fingerprint_normalizes_predicate_spelling():
    eq = _aggregate_query(
        where=[ColumnPredicate("f", "c", Predicate.eq("l", "x"))]
    )
    single_in = _aggregate_query(
        where=[ColumnPredicate("f", "c", Predicate("l", PredicateOp.IN, ("x",)))]
    )
    assert fingerprint_query(eq) == fingerprint_query(single_in)

    forward = _aggregate_query(
        where=[ColumnPredicate("f", "c", Predicate("l", PredicateOp.IN, ("x", "y")))]
    )
    backward = _aggregate_query(
        where=[ColumnPredicate("f", "c", Predicate("l", PredicateOp.IN, ("y", "x")))]
    )
    assert fingerprint_query(forward) == fingerprint_query(backward)


def test_fingerprint_ignores_predicate_order_but_not_content():
    p1 = ColumnPredicate("f", "c", Predicate.eq("l", "x"))
    p2 = ColumnPredicate("f", "d", Predicate.eq("k", "y"))
    assert fingerprint_query(_aggregate_query(where=[p1, p2])) == fingerprint_query(
        _aggregate_query(where=[p2, p1])
    )
    p3 = ColumnPredicate("f", "d", Predicate.eq("k", "z"))
    assert fingerprint_query(_aggregate_query(where=[p1, p2])) != fingerprint_query(
        _aggregate_query(where=[p1, p3])
    )


def test_permuted_in_spelling_is_served_from_cache():
    engine, hierarchies = _random_engine(17)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    level = h0.level_names()[0]
    members = sorted(h0.members_of(level))[:2]
    canonical = CubeQuery(
        "RAND",
        GroupBySet(schema, [level]),
        (Predicate.isin(level, members),),
        ("m_sum",),
    )
    permuted = CubeQuery(
        "RAND",
        GroupBySet(schema, [level]),
        (Predicate(level, PredicateOp.IN, tuple(reversed(members))),),
        ("m_sum",),
    )
    first = engine.get(canonical)
    second = engine.get(permuted)
    _assert_same_cube(first, second)
    stats = engine.result_cache.stats()
    assert stats["hits"] + stats["derivations"] >= 1
    assert stats["misses"] == 1


def test_drill_across_results_are_cached_and_invalidated():
    engine, hierarchies = _random_engine(47)
    schema = engine.cube("RAND").schema
    level = hierarchies[0].level_names()[0]
    left = CubeQuery("RAND", GroupBySet(schema, [level]), (), ("m_sum",))
    right = CubeQuery("RAND", GroupBySet(schema, [level]), (), ("m_min",))
    first = engine.drill_across(left, right, [level])
    before = engine.result_cache.stats()["hits"]
    second = engine.drill_across(left, right, [level])
    # The composite entry answers before the sides are even consulted.
    assert engine.result_cache.stats()["hits"] == before + 1
    _assert_same_cube(first, second)

    fact = engine.catalog.table("rand_fact")
    engine.catalog.register(
        Table("rand_fact", {n: fact.column(n) for n in fact.column_names}),
        replace=True,
    )
    assert engine.result_cache.stats()["entries"] == 0


def test_pivot_results_are_cached_and_invalidated():
    engine, hierarchies = _random_engine(47)
    schema = engine.cube("RAND").schema
    level = hierarchies[0].level_names()[0]
    pivot = hierarchies[1].level_names()[0]
    members = sorted(hierarchies[1].members_of(pivot))
    base = CubeQuery("RAND", GroupBySet(schema, [level, pivot]), (), ("m_sum",))
    renames = {
        member: {"m_sum": f"benchmark.m_sum_{i}"}
        for i, member in enumerate(members[1:], start=1)
    }
    first = engine.pivot_get(base, pivot, members[0], renames, require_all=False)
    before = engine.result_cache.stats()["hits"]
    second = engine.pivot_get(base, pivot, members[0], renames, require_all=False)
    # The composite entry answers before the base is even consulted.
    assert engine.result_cache.stats()["hits"] == before + 1
    _assert_same_cube(first, second)

    fact = engine.catalog.table("rand_fact")
    engine.catalog.register(
        Table("rand_fact", {n: fact.column(n) for n in fact.column_names}),
        replace=True,
    )
    assert engine.result_cache.stats()["entries"] == 0


def test_derived_rollup_matches_brute_force_oracle():
    """A coarser get derived from a cached finer one re-aggregates the
    finer cells exactly as a cell-by-cell roll-up does."""
    for seed in range(3):
        engine, (h0, h1) = _random_engine(seed)
        schema = engine.cube("RAND").schema
        fine = engine.get(CubeQuery(
            "RAND",
            GroupBySet(schema, [h0.level_names()[0], h1.level_names()[0]]),
            (), ("m_sum",),
        ))
        target = GroupBySet(schema, [h0.level_names()[1]])
        coarse = engine.get(CubeQuery("RAND", target, (), ("m_sum",)))
        assert engine.result_cache.stats()["derivations"] == 1
        oracle = brute_force_rollup(fine, target, "m_sum")
        assert {
            coordinate: values["m_sum"] for coordinate, values in coarse.cells()
        } == oracle


# ----------------------------------------------------------------------
# Invalidation & eviction
# ----------------------------------------------------------------------
def test_catalog_replace_invalidates_cached_results():
    engine, hierarchies = _random_engine(23)
    schema = engine.cube("RAND").schema
    query = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[0]]), (), ("m_sum",)
    )
    stale = engine.get(query)

    fact = engine.catalog.table("rand_fact")
    doubled = Table(
        "rand_fact",
        {
            name: (fact.column(name) * 2.0 if name == "m_sum" else fact.column(name))
            for name in fact.column_names
        },
    )
    engine.catalog.register(doubled, replace=True)
    assert engine.result_cache.stats()["invalidations"] >= 1

    fresh = engine.get(query)
    assert np.array_equal(fresh.measures["m_sum"], stale.measures["m_sum"] * 2.0)


def test_view_drop_keeps_view_derived_results():
    engine, hierarchies = _random_engine(29)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    query = CubeQuery(
        "RAND", GroupBySet(schema, [h0.level_names()[0]]), (), ("m_sum",)
    )
    aggregate = engine.build_aggregate_query(query)
    view = engine.materialize("RAND", [h0.level_names()[0]])
    assert engine.build_aggregate_query(query) == aggregate
    engine.result_cache.clear()
    assert engine.result_cache.would_hit(aggregate) == "derive"
    derived = engine.get(query)

    before = engine.result_cache.stats()["invalidations"]
    engine.drop_view(view.name)
    assert engine.result_cache.stats()["invalidations"] == before
    assert engine.result_cache.would_hit(aggregate) == "exact"
    engine.result_cache.clear()
    assert engine.result_cache.would_hit(aggregate) is None

    engine.result_cache.enabled = False
    _assert_same_cube(derived, engine.get(query))


def test_cell_budget_evicts_least_recently_used():
    engine, hierarchies = _random_engine(31)
    schema = engine.cube("RAND").schema
    engine.result_cache.cell_budget = 8
    for hierarchy in hierarchies:
        for level in hierarchy.level_names():
            engine.get(CubeQuery("RAND", GroupBySet(schema, [level]), (), ("m_sum",)))
    stats = engine.result_cache.stats()
    assert stats["evictions"] >= 1
    assert stats["cached_cells"] <= 8


def test_oversized_results_are_not_cached():
    engine, hierarchies = _random_engine(37)
    schema = engine.cube("RAND").schema
    engine.result_cache.cell_budget = 1
    query = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[0]]), (), ("m_sum",)
    )
    engine.get(query)
    assert engine.result_cache.stats()["entries"] == 0


# ----------------------------------------------------------------------
# Cost-model probe and session observability
# ----------------------------------------------------------------------
def test_cost_model_sees_warm_gets():
    engine, hierarchies = _random_engine(41)
    schema = engine.cube("RAND").schema
    stats = Statistics(engine)
    query = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[0]]), (), ("m_sum",)
    )
    assert stats.cache_probe(query) is None
    engine.get(query)
    assert stats.cache_probe(query) == "exact"
    coarser = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[-1]]), (), ("m_sum",)
    )
    assert stats.cache_probe(coarser) == "derive"


def test_cost_probe_refuses_the_derivation_the_lookup_refuses():
    engine, hierarchies = _random_engine(13)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    engine.get(
        CubeQuery("RAND", GroupBySet(schema, [h0.level_names()[0]]), (), ("m_frac",))
    )
    coarse = CubeQuery(
        "RAND", GroupBySet(schema, [h0.level_names()[-1]]), (), ("m_frac",)
    )
    assert Statistics(engine).cache_probe(coarse) is None
    engine.get(coarse)
    stats = engine.result_cache.stats()
    assert stats["derivations"] == 0
    assert stats["misses"] == 2


def test_session_cache_stats_and_clear():
    from repro.api import AssessSession

    engine, hierarchies = _random_engine(43)
    session = AssessSession(engine)
    schema = engine.cube("RAND").schema
    query = CubeQuery(
        "RAND", GroupBySet(schema, [hierarchies[0].level_names()[0]]), (), ("m_sum",)
    )
    engine.get(query)
    engine.get(query)
    stats = session.cache_stats()
    assert stats["hits"] == 1 and stats["entries"] == 1
    session.clear_cache()
    assert session.cache_stats()["entries"] == 0
    assert session.cache_stats()["hits"] == 1  # counters survive a clear


def test_cache_cli_subcommand(capsys):
    from repro.cli import cache_main

    assert cache_main(["--cube", "sales", "--rows", "2000", "--passes", "2"]) == 0
    out = capsys.readouterr().out
    assert "result cache:" in out
    assert "pass 2 (warm)" in out

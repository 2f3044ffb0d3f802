"""Differential oracle suite: four execution strategies, one answer.

Every query here is executed four ways —

1. **python kernels**: a row-at-a-time pure-Python evaluation of the
   star aggregate (the oracle; no NumPy group-by, no engine code);
2. **serial engine**: the vectorised executor with parallelism off;
3. **parallel engine**: the morsel-driven executor at parallelism
   ∈ {2, 3, 8};
4. **warm cache**: the semantic result cache serving a repeat of the
   same query.

— and the results must be **bit-identical** across all four (the oracle
is compared on gate-passing measures, where any association order sums
exactly; fractional measures are exactly the ones the engine refuses to
parallelize or derive, so they exercise the fallback paths and must
still match bit-for-bit between the engine arms).

The second half runs the four reference intentions — the paper's
Constant / External / Sibling / Past benchmark types — through full
assess statements under the same four strategies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AssessSession
from repro.batch import results_identical
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate
from repro.datagen.flat import star_from_flat
from repro.datagen.random_cube import random_hierarchy
from repro.engine.catalog import Catalog
from repro.engine.persist import compress_catalog
from repro.engine.query import Aggregate, AggregateQuery
from repro.engine.table import Table
from repro.experiments.statements import INTENTIONS, prepare_engine, statement_text
from repro.obs import tracing
from repro.olap.engine import MultidimensionalEngine

PARALLEL_DEGREES = (2, 3, 8)

# Integral-valued measures sum exactly in any order, so the oracle (and
# the parallel merge) must reproduce the serial engine to the last bit.
ORACLE_MEASURES = {"m_sum": "sum", "m_min": "min", "m_avg": "avg"}
ALL_MEASURES = ("m_sum", "m_min", "m_avg", "m_frac")


# ----------------------------------------------------------------------
# Random star cubes (flat columns retained for the python oracle)
# ----------------------------------------------------------------------
def _random_star(seed: int, n_rows: int = 1500):
    """A random 2-hierarchy star; returns (flat columns, engine, hierarchies)."""
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
    columns["m_min"] = rng.integers(-500, 500, n_rows).astype(np.float64)
    columns["m_avg"] = rng.integers(0, 100, n_rows).astype(np.float64)
    columns["m_frac"] = np.round(rng.uniform(0.0, 100.0, n_rows), 2)
    engine = MultidimensionalEngine(Catalog())
    star_from_flat(
        engine,
        "RAND",
        Table("flat", dict(columns)),
        {h.name: list(h.level_names()) for h in hierarchies},
        {"m_sum": "sum", "m_min": "min", "m_avg": "avg", "m_frac": "sum"},
    )
    return columns, engine, hierarchies


def _random_queries(rng, schema, hierarchies, count: int = 8):
    queries = []
    for number in range(count):
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
                predicates.append(
                    Predicate.isin(level, [members[i] for i in picks])
                )
        keep = [m for m in ORACLE_MEASURES if rng.random() < 0.7]
        if rng.random() < 0.25:
            keep.append("m_frac")  # exercises the serial-fallback gate
        measures = tuple(keep) or ("m_sum",)
        queries.append(
            CubeQuery("RAND", GroupBySet(schema, levels), predicates, measures)
        )
    return queries


def _python_oracle(columns, query):
    """Row-at-a-time evaluation over the flat table: {coords: {measure: value}}.

    Pure Python accumulation — no NumPy reductions — so agreement with
    the engine is meaningful.  Only gate-passing (integral) measures are
    evaluated: their sums are exact in any association order, which is
    precisely the bit-identity contract under test.
    """
    levels = list(query.group_by.levels)
    measures = [m for m in query.measures if m in ORACLE_MEASURES]
    n_rows = len(columns[levels[0]])
    groups = {}
    for row in range(n_rows):
        if any(
            not predicate.matches(columns[predicate.level][row])
            for predicate in query.predicates
        ):
            continue
        key = tuple(columns[level][row] for level in levels)
        bucket = groups.setdefault(key, {m: [] for m in measures})
        for measure in measures:
            bucket[measure].append(float(columns[measure][row]))
    out = {}
    for key, bucket in groups.items():
        cell = {}
        for measure, values in bucket.items():
            op = ORACLE_MEASURES[measure]
            if op == "sum":
                total = 0.0
                for value in values:
                    total += value
                cell[measure] = total
            elif op == "min":
                cell[measure] = min(values)
            else:  # avg: exact integral sum, then one float64 division
                total = 0.0
                for value in values:
                    total += value
                cell[measure] = total / float(len(values))
        out[key] = cell
    return out


def _assert_matches_oracle(cube, oracle, levels):
    engine_keys = set()
    for row in range(len(cube)):
        key = tuple(cube.coords[level][row] for level in levels)
        engine_keys.add(key)
        expected = oracle[key]
        for measure, value in expected.items():
            got = float(cube.measures[measure][row])
            assert got == value, (key, measure, got, value)
    assert engine_keys == set(oracle)


def _assert_same_cube(left, right):
    assert list(left.coords) == list(right.coords)
    assert list(left.measures) == list(right.measures)
    for name in left.coords:
        assert left.coords[name].tolist() == right.coords[name].tolist(), name
    for name in left.measures:
        a, b = left.measures[name], right.measures[name]
        if a.dtype == np.float64 and b.dtype == np.float64:
            assert a.tobytes() == b.tobytes(), name  # bit-identical
        else:
            assert a.tolist() == b.tolist(), name


# ----------------------------------------------------------------------
# Part 1: random cubes, engine-level queries, four strategies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_random_cubes_four_ways(seed):
    columns, serial_engine, hierarchies = _random_star(seed)
    serial_engine.result_cache.enabled = False
    schema = serial_engine.cube("RAND").schema

    parallel_engines = {}
    for degree in PARALLEL_DEGREES:
        _, engine, _ = _random_star(seed)
        engine.result_cache.enabled = False
        engine.configure(parallelism=degree, morsel_rows=128, min_rows=128)
        parallel_engines[degree] = engine

    _, warm_engine, _ = _random_star(seed)
    assert warm_engine.result_cache.enabled

    rng = np.random.default_rng(9000 + seed)
    queries = _random_queries(rng, schema, hierarchies)

    for query in queries:
        levels = list(query.group_by.levels)
        reference = serial_engine.get(query)

        # 1. python kernels (the row-at-a-time oracle)
        _assert_matches_oracle(reference, _python_oracle(columns, query), levels)
        # 3. parallel at every degree
        for degree, engine in parallel_engines.items():
            _assert_same_cube(engine.get(query), reference)
        # 4. warm cache: first call populates, second must serve identical
        warm_engine.get(query)
        _assert_same_cube(warm_engine.get(query), reference)

    # The parallel arms must have actually gone morsel-parallel (the
    # query mix always contains gate-passing measures).
    for degree, engine in parallel_engines.items():
        assert engine.metrics.get("engine.parallel.queries") >= 1, degree
    assert warm_engine.result_cache.stats()["hits"] >= len(queries)


# ----------------------------------------------------------------------
# Part 2: the four benchmark types (Constant/External/Sibling/Past)
# ----------------------------------------------------------------------
SSB_ROWS = 3000

# Reference intentions assess ``revenue`` (fractional: exercises the
# serial-fallback gate under parallel arms); the quantity variants swap
# in the integral measure so the morsel-parallel scan genuinely runs.
QUANTITY_VARIANTS = {
    "Constant": """
        with SSB by date, customer
        assess quantity against 50
        using ratio(quantity, 50)
        labels {[0, 0.5): low, [0.5, 1.5]: expected, (1.5, inf): high}
    """,
    "External": """
        with SSB by month, part
        assess quantity against BUDGET.expected_revenue
        using normalizedDifference(quantity, benchmark.expected_revenue)
        labels {[-inf, -0.1): under, [-0.1, 0.1]: onTrack, (0.1, inf): over}
    """,
    "Sibling": """
        with SSB for s_region = 'ASIA' by part, s_region
        assess quantity against s_region = 'AMERICA'
        using percOfTotal(difference(quantity, benchmark.quantity))
        labels {[-inf, -0.0001): bad, [-0.0001, 0.0001]: ok, (0.0001, inf): good}
    """,
    "Past": """
        with SSB for month = '1998-06' by month, customer
        assess quantity against past 4
        using ratio(quantity, benchmark.quantity)
        labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}
    """,
}


def _ssb_session(parallelism=None):
    session = AssessSession(prepare_engine(SSB_ROWS))
    if parallelism:
        session.set_parallelism(parallelism, morsel_rows=256, min_rows=256)
    return session


@pytest.fixture(scope="module")
def ssb_arms():
    serial = _ssb_session()
    serial.engine.result_cache.enabled = False
    parallel = {}
    for degree in PARALLEL_DEGREES:
        arm = _ssb_session(parallelism=degree)
        arm.engine.result_cache.enabled = False
        parallel[degree] = arm
    warm = _ssb_session()
    return serial, parallel, warm


@pytest.mark.parametrize("intention", INTENTIONS)
@pytest.mark.parametrize("variant", ("reference", "quantity"))
def test_benchmark_types_four_ways(ssb_arms, intention, variant):
    serial, parallel, warm = ssb_arms
    text = (
        statement_text(intention)
        if variant == "reference"
        else QUANTITY_VARIANTS[intention]
    )
    reference = serial.assess(text)
    for degree, arm in parallel.items():
        assert results_identical(arm.assess(text), reference), (intention, degree)
    first = warm.assess(text)
    again = warm.assess(text)  # served by the result cache
    assert results_identical(first, reference), intention
    assert results_identical(again, reference), intention


def test_parallel_arms_actually_parallelized(ssb_arms):
    """After the quantity variants ran, every parallel arm must show
    morsel-parallel executions — fallback-only arms would make the suite
    vacuous."""
    _, parallel, warm = ssb_arms
    for degree, arm in parallel.items():
        assert arm.engine.metrics.get("engine.parallel.queries") >= 1, degree
    assert warm.engine.result_cache.stats()["hits"] >= 1


SHARE_OF_TOTAL = """
    with SSB for s_region = 'ASIA' by c_city, year, mfgr, s_region
    assess revenue against s_region = 'EUROPE'
    using percOfTotal(difference(revenue, benchmark.revenue))
    labels {[-inf, 0): below, [0, inf): above}
"""


def _canonical_cells(result):
    """Coordinates, bit patterns and labels of every cell, in canonical order."""
    order = result.order()
    cube = result.cube
    coords = [cube.coords[level][order].tolist() for level in cube.group_by.levels]
    numbers = [
        np.asarray(cube.measure(name), dtype=np.float64)[order].tobytes()
        for name in (result.measure, result.benchmark_measure,
                     result.comparison_measure)
    ]
    return coords, numbers, cube.measure(result.label_measure)[order].tolist()


def test_perc_of_total_is_bit_identical_across_plans_at_four_levels():
    """NP, JOP and POP hand ``percOfTotal`` the same cells in different
    orders; its total must not depend on that order.  Summed in arrival
    order it did: NP and POP differed by one ulp on 1,776 of 1,808 cells."""
    session = AssessSession(prepare_engine(20_000, seed=7))
    cells = {}
    for plan in ("NP", "JOP", "POP"):
        session.clear_cache()
        result = session.assess(SHARE_OF_TOTAL, plan=plan)
        assert result.plan_name == plan and len(result) == 1808
        cells[plan] = _canonical_cells(result)
    assert cells["JOP"] == cells["NP"]
    assert cells["POP"] == cells["NP"]


def test_zscore_is_bit_identical_across_plans_at_four_levels():
    """NP, JOP and POP are free to hand ``zscore`` the cells in different
    orders; its mean and deviation, like ``percOfTotal``'s total, must not
    depend on that order."""
    session = AssessSession(prepare_engine(20_000, seed=7))
    statement = SHARE_OF_TOTAL.replace("percOfTotal", "zscore")
    cells = {}
    for plan in ("NP", "JOP", "POP"):
        session.clear_cache()
        result = session.assess(statement, plan=plan)
        assert result.plan_name == plan and len(result) == 1808
        cells[plan] = _canonical_cells(result)
    assert cells["JOP"] == cells["NP"]
    assert cells["POP"] == cells["NP"]


# ----------------------------------------------------------------------
# Part 3: one aggregation pipeline — a single get is the fused batch of
# one, whatever the tier and the storage
# ----------------------------------------------------------------------
PIPELINE_ROWS = 1500
PIPELINE_MORSEL = 128
PIPELINE_BUDGET = 4_096  # far below the 1500-row grouping-state estimate
PIPELINE_TIERS = {
    "serial": {},
    "parallel-2": {"parallelism": 2},
    "parallel-3": {"parallelism": 3},
    "budget": {"budget": PIPELINE_BUDGET},
    "parallel+budget": {"parallelism": 2, "budget": PIPELINE_BUDGET},
}
PIPELINE_AGGREGATES = {
    # sum/count/min/max/avg over integral columns: every tier may merge
    "exact": (("m_sum", "sum"), ("m_sum", "count"), ("m_min", "min"),
              ("m_min", "max"), ("m_avg", "avg")),
    # fractional sums fail the exactness gate: every tier must decline
    "fractional": (("m_frac", "sum"), ("m_frac", "avg")),
}


def _pipeline_engine(storage, parallelism=None, budget=None, seed=3):
    """A random star on the asked storage, pinned to the asked tier."""
    _, engine, hierarchies = _random_star(seed, PIPELINE_ROWS)
    engine.result_cache.enabled = False
    if storage == "zone-mapped":
        # Clustered on the H0 key, so predicates on H0 levels really prune.
        fact = engine.cube("RAND").star.fact_table
        clustered = compress_catalog(
            engine.catalog, zone_rows=PIPELINE_MORSEL, cluster={fact: "h0_fk"}
        )
        for table in clustered:
            engine.catalog.register(table, replace=True)
    # Configured in code, so the environment's settings do not apply.
    engine.configure(
        parallelism=parallelism, morsel_rows=PIPELINE_MORSEL, min_rows=0,
        memory_budget=budget,
    )
    return engine, hierarchies


def _pipeline_queries(engine, hierarchies, aggregates):
    """Gets over coarse and fine keys, one of them with a pruning slice."""
    schema = engine.cube("RAND").schema
    h0, h1 = hierarchies
    slice_level = h0.level_names()[-1]
    members = sorted(h0.members_of(slice_level))[:1]
    shapes = [
        ([h0.level_names()[0], h1.level_names()[0]], []),
        ([h0.level_names()[0]], [Predicate.isin(slice_level, members)]),
        ([h1.level_names()[-1]], []),
    ]
    queries = []
    for levels, predicates in shapes:
        built = engine.build_aggregate_query(CubeQuery(
            "RAND", GroupBySet(schema, levels), predicates, ALL_MEASURES
        ))
        column_of = {agg.alias: agg.column for agg in built.aggregates}
        queries.append(AggregateQuery(
            built.fact, built.joins, built.where, built.group_by,
            [
                Aggregate(column_of[measure], op, f"{op}_{measure}")
                for measure, op in aggregates
            ],
        ))
    return queries


def _assert_same_result(left, right):
    assert left.column_names == right.column_names
    for name in left.column_names:
        a, b = left.column(name), right.column(name)
        if a.dtype == np.float64:
            assert a.tobytes() == b.tobytes(), name  # bit-identical
        else:
            assert a.tolist() == b.tolist(), name


@pytest.mark.parametrize("kind", sorted(PIPELINE_AGGREGATES))
@pytest.mark.parametrize("storage", ("plain", "zone-mapped"))
@pytest.mark.parametrize("tier", sorted(PIPELINE_TIERS))
def test_single_get_is_the_fused_batch_of_one(tier, storage, kind):
    reference, hierarchies = _pipeline_engine(storage)
    engine, _ = _pipeline_engine(storage, **PIPELINE_TIERS[tier])
    executor, counters = engine.executor, engine.metrics
    aggregates = PIPELINE_AGGREGATES[kind]
    for expected_query, query in zip(
        _pipeline_queries(reference, hierarchies, aggregates),
        _pipeline_queries(engine, hierarchies, aggregates),
    ):
        expected = reference.executor.execute_aggregate(expected_query)

        scans = counters.get("engine.scans")
        rows = counters.get("engine.rows_scanned")
        with tracing() as tracer:
            single = executor.execute_aggregate(query)
        assert counters.get("engine.scans") == scans + 1
        (span,) = [s for root in tracer.roots for s in root.find("engine.scan")]
        assert span.attrs["rows_in"] == counters.get("engine.rows_scanned") - rows
        assert span.attrs["rows_out"] == len(single)
        assert span.attrs["cells_out"] == len(single) * len(single.column_names)

        (fused,), _ = executor.execute_fused([query], query.where, [()])
        assert counters.get("engine.scans") == scans + 2

        _assert_same_result(single, expected)
        _assert_same_result(fused, expected)

    # The arms must have taken the tier they claim (or, for fractional
    # sums, declined it) — otherwise the differential is vacuous.
    taken = "spill" if "budget" in tier else tier.split("-")[0]
    if taken != "serial":
        ran = "queries" if kind == "exact" else "fallbacks"
        assert counters.get(f"engine.{taken}.{ran}") >= 1
    engine.configure(parallelism=1)


@pytest.mark.parametrize("tier", ("parallel-2", "budget"))
def test_fused_fallback_member_scans_only_surviving_rows(tier):
    """A gate-failing member of a parallel or spilled fused pass runs as
    its own one-morsel pass: bit-identical to standalone, over the pruned
    ranges — not over the whole (possibly memory-mapped) fact column."""
    reference, hierarchies = _pipeline_engine("zone-mapped")
    engine, _ = _pipeline_engine("zone-mapped", **PIPELINE_TIERS[tier])
    exact, fractional = [("m_sum", "sum")], [("m_frac", "sum")]
    _, sliced_exact, _ = _pipeline_queries(engine, hierarchies, exact)
    _, sliced_frac, _ = _pipeline_queries(engine, hierarchies, fractional)
    _, reference_frac, _ = _pipeline_queries(reference, hierarchies, fractional)

    counters = reference.metrics
    before = counters.get("engine.rows_scanned")
    standalone = reference.executor.execute_aggregate(reference_frac)
    surviving = counters.get("engine.rows_scanned") - before
    assert 0 < surviving < PIPELINE_ROWS  # the slice really prunes

    counters = engine.metrics
    before = counters.get("engine.rows_scanned")
    results, derived = engine.executor.execute_fused(
        [sliced_exact, sliced_frac], sliced_exact.where, [(), ()]
    )
    assert derived == [True, False]
    assert counters.get("engine.fused_fallbacks") == 1
    _assert_same_result(results[1], standalone)
    # one shared pass plus one fallback pass, each over the surviving rows
    assert counters.get("engine.rows_scanned") - before == 2 * surviving
    engine.configure(parallelism=1)

"""Unit tests for the morsel-driven parallel layer.

Covers the pieces in isolation — range splitting, config eligibility,
the deterministic merge, key decoding — plus the engine-level contracts:
gate fallback to serial, metrics/span emission, and the cost model's
serial-vs-parallel pricing.  End-to-end
bit-identity across parallelism degrees lives in
``tests/test_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.cost import (
    MERGE_ROW_WEIGHT,
    MORSEL_OVERHEAD,
    Statistics,
    estimate_plan_cost,
)
from repro.api import AssessSession
from repro.core import Predicate
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery
from repro.datagen import sales_engine
from repro.parallel import (
    DEFAULT_MORSEL_ROWS,
    AggSpec,
    KeySpec,
    MorselResult,
    MorselTask,
    ParallelConfig,
    decode_keys,
    merge_morsels,
    morsel_ranges,
    run_morsel,
)


# ----------------------------------------------------------------------
# morsel_ranges
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_rows,morsel_rows",
    [(0, 10), (1, 10), (10, 10), (11, 10), (100, 7), (65_536, 65_536)],
)
def test_morsel_ranges_partition_exactly(n_rows, morsel_rows):
    ranges = morsel_ranges(n_rows, morsel_rows)
    if n_rows == 0:
        assert ranges == []
        return
    assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
    for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]):
        assert hi == next_lo  # contiguous, no gaps or overlap
    assert all(hi - lo <= morsel_rows for lo, hi in ranges)
    assert sum(hi - lo for lo, hi in ranges) == n_rows


def test_morsel_ranges_clamps_degenerate_morsel_size():
    assert morsel_ranges(3, 0) == [(0, 1), (1, 2), (2, 3)]


# ----------------------------------------------------------------------
# ParallelConfig
# ----------------------------------------------------------------------
def test_config_defaults_and_eligibility():
    assert ParallelConfig(degree=2).morsel_rows == DEFAULT_MORSEL_ROWS
    config = ParallelConfig(degree=4, morsel_rows=100)
    assert config.enabled
    assert config.min_rows == 100  # defaults to the morsel size
    assert not config.eligible(50)  # below the floor
    assert not config.eligible(100)  # one morsel only: stay serial
    assert config.eligible(101)  # two morsels


def test_config_degree_one_never_parallelizes():
    config = ParallelConfig(degree=1, morsel_rows=10)
    assert not config.enabled
    assert not config.eligible(10_000_000)


def test_map_ordered_preserves_task_order():
    config = ParallelConfig(degree=4, morsel_rows=10)
    try:
        tasks = list(range(32))
        assert config.map_ordered(lambda x: x * x, tasks) == [x * x for x in tasks]
    finally:
        config.close()


def test_close_is_idempotent():
    config = ParallelConfig(degree=2)
    config.pool()
    config.close()
    config.close()


# ----------------------------------------------------------------------
# run_morsel + merge_morsels: synthetic determinism checks
# ----------------------------------------------------------------------
def _fact_task(index, lo, hi, codes, cardinality, values, ops):
    return MorselTask(
        index=index,
        lo=lo,
        hi=hi,
        joins=(),
        fact_predicates=(),
        dim_predicates=(),
        keys=(KeySpec("fact", None, codes[lo:hi], cardinality),),
        aggs=tuple(
            AggSpec(op, None if op == "count" else values[lo:hi]) for op in ops
        ),
    )


def test_merge_reproduces_whole_table_aggregation():
    rng = np.random.default_rng(0)
    n, cardinality = 1000, 7
    codes = rng.integers(0, cardinality, n).astype(np.int64)
    values = rng.integers(0, 100, n).astype(np.float64)
    ops = ("sum", "count", "min", "max")

    results = [
        run_morsel(_fact_task(i, lo, hi, codes, cardinality, values, ops))
        for i, (lo, hi) in enumerate(morsel_ranges(n, 137))
    ]
    merged_keys, merged = merge_morsels(results, ops)

    expect_keys, ids = np.unique(codes, return_inverse=True)
    assert np.array_equal(merged_keys, expect_keys)
    assert np.array_equal(merged[0], np.bincount(ids, weights=values))
    assert np.array_equal(merged[1], np.bincount(ids).astype(np.float64))
    for slot, ufunc, seed in ((2, np.minimum, np.inf), (3, np.maximum, -np.inf)):
        expect = np.full(len(expect_keys), seed)
        ufunc.at(expect, ids, values)
        assert np.array_equal(merged[slot], expect)


def test_merge_is_morsel_size_invariant():
    """The merged output must not depend on how the table was morselled."""
    rng = np.random.default_rng(1)
    n, cardinality = 2000, 11
    codes = rng.integers(0, cardinality, n).astype(np.int64)
    values = rng.integers(-50, 50, n).astype(np.float64)
    ops = ("sum", "min")

    outputs = []
    for morsel_rows in (100, 333, 1024, 5000):
        results = [
            run_morsel(_fact_task(i, lo, hi, codes, cardinality, values, ops))
            for i, (lo, hi) in enumerate(morsel_ranges(n, morsel_rows))
        ]
        outputs.append(merge_morsels(results, ops))
    keys0, merged0 = outputs[0]
    for keys, merged in outputs[1:]:
        assert np.array_equal(keys, keys0)
        for a, b in zip(merged, merged0):
            assert a.tobytes() == b.tobytes()  # bit-identical


def test_merge_empty_results():
    keys, merged = merge_morsels([], ["sum"])
    assert len(keys) == 0 and len(merged) == 1 and len(merged[0]) == 0


def test_decode_keys_inverts_the_fold():
    rng = np.random.default_rng(2)
    cardinalities = [5, 3, 7]
    cols = [rng.integers(0, c, 400).astype(np.int64) for c in cardinalities]
    combined = np.zeros(400, dtype=np.int64)
    for codes, cardinality in zip(cols, cardinalities):
        combined = combined * cardinality + codes
    keys = np.unique(combined)
    decoded = decode_keys(keys, cardinalities)
    refold = np.zeros(len(keys), dtype=np.int64)
    for codes, cardinality in zip(decoded, cardinalities):
        assert codes.min() >= 0 and codes.max() < cardinality
        refold = refold * cardinality + codes
    assert np.array_equal(refold, keys)


# ----------------------------------------------------------------------
# Engine-level: gate fallback, metrics, spans, warm cache
# ----------------------------------------------------------------------
def _parallel_session(degree=2, n_rows=4000):
    session = AssessSession(sales_engine(n_rows=n_rows, seed=5))
    session.set_parallelism(degree, morsel_rows=512, min_rows=512)
    return session


def _query(session, levels, measures, predicates=()):
    schema = session.engine.cube("SALES").schema
    return CubeQuery("SALES", GroupBySet(schema, levels), predicates, measures)


def test_parallel_scan_is_bit_identical_and_counted():
    session = _parallel_session()
    serial = AssessSession(sales_engine(n_rows=4000, seed=5))
    serial.engine.result_cache.enabled = False
    session.engine.result_cache.enabled = False

    # quantity is integral (passes the exactness gate); storeSales is
    # fractional and would gate the whole query to serial.
    query = _query(session, ["month", "product"], ("quantity",),
                   (Predicate.isin("country", ["Italy", "France"]),))
    ours = session.engine.get(query)
    theirs = serial.engine.get(query)
    for name in ours.measures:
        assert ours.measures[name].tobytes() == theirs.measures[name].tobytes()
    metrics = session.engine.metrics
    assert metrics.get("engine.parallel.queries") >= 1
    assert metrics.get("engine.parallel.morsels") >= 2


def test_non_integral_sum_falls_back_to_serial():
    session = _parallel_session()
    engine = session.engine
    engine.result_cache.enabled = False
    fact = engine.catalog.table(engine.cube("SALES").star.fact_table)
    # storeCost is fractional, so the float-exactness gate rejects it.
    name = "storeCost"
    assert not fact.sums_exactly(name)

    before = engine.metrics.get("engine.parallel.fallbacks")
    engine.get(_query(session, ["year"], (name,)))
    assert engine.metrics.get("engine.parallel.fallbacks") == before + 1
    assert engine.metrics.get("engine.parallel.queries") == 0


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.children)


def test_parallel_emits_morsel_and_merge_spans():
    from repro.obs import tracing

    session = _parallel_session()
    session.engine.result_cache.enabled = False
    with tracing() as tracer:
        session.engine.get(_query(session, ["month"], ("quantity",)))
    spans = list(_walk_spans(tracer.roots))
    names = [span.name for span in spans]
    assert "parallel.morsel" in names
    assert "parallel.merge" in names
    scan = next(s for s in spans if s.name == "engine.scan")
    assert scan.attrs.get("parallel") is True
    assert scan.attrs.get("morsels") >= 2


def test_warm_cache_serves_parallel_results_identically():
    session = _parallel_session()
    query = _query(session, ["month", "country"], ("quantity",))
    cold = session.engine.get(query)
    warm = session.engine.get(query)
    assert session.engine.result_cache.stats()["hits"] >= 1
    for name in cold.measures:
        assert cold.measures[name].tobytes() == warm.measures[name].tobytes()


def test_set_parallelism_off_restores_serial():
    session = _parallel_session()
    assert session.parallelism > 1
    session.set_parallelism(None)
    assert session.parallelism == 1
    assert session.engine.parallel is None
    session.engine.result_cache.enabled = False
    before = session.engine.metrics.get("engine.parallel.queries")
    session.engine.get(_query(session, ["year"], ("quantity",)))
    assert session.engine.metrics.get("engine.parallel.queries") == before


# ----------------------------------------------------------------------
# Cost model: parallel pricing
# ----------------------------------------------------------------------
def test_cost_model_prices_parallel_below_serial_on_big_scans():
    serial = AssessSession(sales_engine(n_rows=20_000, seed=5), parallelism=1)
    parallel = _parallel_session(degree=4, n_rows=20_000)
    for session in (serial, parallel):
        session.engine.result_cache.enabled = False

    # Coarse group-by over a big scan: the split work dominates the
    # morsel dispatch + merge overhead, so the model must price parallel
    # below serial (a fine group-by over a small scan stays serial).
    statement = """
        with SALES by year assess quantity against 1000
        using ratio(quantity, 1000)
        labels {[0, 1): low, [1, inf): high}
    """
    plan_serial = serial.plan(statement)
    plan_parallel = parallel.plan(statement)
    cost_serial = estimate_plan_cost(plan_serial, serial.engine)
    cost_parallel = estimate_plan_cost(plan_parallel, parallel.engine)
    assert cost_parallel.total < cost_serial.total
    assert "parallel" in cost_parallel.node_modes.values()
    assert "serial" in cost_serial.node_modes.values()


def test_statistics_morsels_and_degree():
    session = _parallel_session(degree=3, n_rows=4000)
    stats = Statistics(session.engine)
    assert stats.parallel_degree("SALES") == 3
    assert stats.morsels("SALES") == -(-4000 // 512)
    session.set_parallelism(None)
    assert stats.parallel_degree("SALES") == 1


def test_parallel_cost_formula_components():
    # Small sanity anchor: the formula's constants are what the docs say.
    assert MORSEL_OVERHEAD > 0 and MERGE_ROW_WEIGHT > 0

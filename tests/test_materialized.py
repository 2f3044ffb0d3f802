"""Unit tests for materialized views: pinned entries of the result cache.

A view answers a get through the cache's one lookup, by derivation, so
every view answer below is compared bit for bit against the fact-table
answer: the same get on an engine without the view, or with the cache
switched off.
"""

import numpy as np
import pytest

from repro.algebra.cost import Statistics, estimate_plan_cost
from repro.algebra.plan import GetNode
from repro.core import CubeQuery, EngineError, GroupBySet, Predicate
from repro.datagen import ssb_engine
from repro.datagen.flat import star_from_flat
from repro.engine.catalog import Catalog
from repro.engine.table import Table
from repro.obs import tracing
from repro.olap.engine import MultidimensionalEngine


@pytest.fixture()
def engine():
    """A private small engine per test: views mutate engine state."""
    return ssb_engine(lineorder_rows=20_000, seed=5, with_budget=False)


def cold(engine, query):
    """The get's cube from the fact table: the cache, views included, off."""
    engine.result_cache.enabled = False
    try:
        return engine.get(query)
    finally:
        engine.result_cache.enabled = True


def from_views(engine, query):
    """The get's cube from a cleared cache, where only views remain."""
    engine.result_cache.clear()
    return engine.get(query)


def probe(engine, query):
    """The cost model's warm probe of a get on a cleared cache."""
    engine.result_cache.clear()
    return Statistics(engine).cache_probe(query)


def scans(engine):
    return engine.metrics.get("engine.scans")


def assert_same_bits(left, right):
    assert list(left.coords) == list(right.coords)
    for level in left.coords:
        assert left.coords[level].tolist() == right.coords[level].tolist(), level
    assert list(left.measures) == list(right.measures)
    for name, values in left.measures.items():
        assert np.array_equal(
            values, right.measures[name], equal_nan=values.dtype.kind == "f"
        ), name


def with_parallelism(engine, parallelism):
    """Serial, or morsel-parallel with morsels small enough to merge."""
    if parallelism > 1:
        engine.configure(parallelism=parallelism, morsel_rows=4096, min_rows=0)
    return engine


def ssb_query(engine, levels, predicates=(), measures=("revenue",)):
    schema = engine.cube("SSB").schema
    return CubeQuery("SSB", GroupBySet(schema, levels), predicates, measures)


class TestMaterialize:
    def test_view_registered_and_stored(self, engine):
        view = engine.materialize("SSB", ["month", "category"])
        assert view.name in engine.view_names()
        assert not engine.catalog.has_table(view.name)
        assert all(not name.startswith("mv_") for name in engine.catalog.table_names())
        query = ssb_query(engine, ["month", "category"], measures=view.measures)
        assert view.row_count == len(cold(engine, query))

    def test_only_distributive_measures_stored(self, engine):
        view = engine.materialize("SSB", ["month"])
        assert "discount" not in view.measures  # avg measure
        assert "revenue" in view.measures

    def test_duplicate_name_rejected(self, engine):
        engine.materialize("SSB", ["month"], name="v1")
        with pytest.raises(EngineError):
            engine.materialize("SSB", ["year"], name="v1")
        assert engine.view_names() == ("v1",)

    def test_drop_view(self, engine):
        view = engine.materialize("SSB", ["month"])
        engine.drop_view(view.name)
        assert view.name not in engine.view_names()
        with pytest.raises(EngineError):
            engine.drop_view(view.name)
        with pytest.raises(EngineError):
            engine.drop_view("no_such_view")

    def test_clear_and_cell_budget_keep_the_view(self, engine):
        engine.materialize("SSB", ["month", "category"], name="kept")
        engine.result_cache.clear()
        engine.result_cache.cell_budget = 8
        for region in engine.ordered_members("SSB", "s_region"):  # 2 cells each
            predicate = Predicate.eq("s_region", region)
            engine.get(ssb_query(engine, ["s_region"], (predicate,), ("quantity",)))
        stats = engine.result_cache.stats()
        assert stats["evictions"] >= 1
        assert stats["cached_cells"] <= 8
        assert engine.view_names() == ("kept",)
        query = ssb_query(engine, ["month"], measures=("quantity",))
        assert probe(engine, query) == "derive"
        assert_same_bits(cold(engine, query), from_views(engine, query))

    def test_disabled_cache_serves_no_view(self, engine):
        query = ssb_query(engine, ["year"], measures=("quantity",))
        engine.materialize("SSB", ["month", "category"])
        engine.result_cache.clear()
        engine.result_cache.enabled = False
        before = scans(engine)
        assert Statistics(engine).cache_probe(query) is None
        assert engine.result_cache.would_hit(engine.build_aggregate_query(query)) is None
        engine.get(query)
        assert scans(engine) == before + 1

    def test_replacing_the_fact_table_discards_the_view(self, engine):
        """A view never answers from a fact table that has been replaced."""
        query = ssb_query(engine, ["month"], measures=("quantity",))
        original = cold(engine, query)
        view = engine.materialize("SSB", ["month"])
        fact = engine.catalog.table("ssb_lineorder")
        doubled = Table("ssb_lineorder", {
            name: fact.column(name) * 2 if name == "lo_quantity" else fact.column(name)
            for name in fact.column_names
        })
        engine.catalog.register(doubled, replace=True)
        assert view.name not in engine.view_names()

        answer = from_views(engine, query)
        fresh = ssb_engine(lineorder_rows=20_000, seed=5, with_budget=False)
        fresh.catalog.register(doubled, replace=True)
        assert_same_bits(cold(fresh, query), answer)
        assert np.array_equal(answer.measures["quantity"], original.measures["quantity"] * 2)


class TestRouting:
    def test_exact_match_routes_and_agrees(self, engine):
        # Equal levels: one view row per group, the identity — fractional
        # revenue derives.
        query = ssb_query(engine, ["month", "category"])
        engine.materialize("SSB", ["month", "category"])
        assert probe(engine, query) == "derive"
        assert_same_bits(cold(engine, query), from_views(engine, query))

    def test_subset_group_by_routes(self, engine):
        engine.materialize("SSB", ["month", "category", "s_region"])
        query = ssb_query(engine, ["category"], measures=("quantity",))
        assert probe(engine, query) == "derive"
        assert_same_bits(cold(engine, query), from_views(engine, query))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_rollup_from_view_skips_the_fact_scan(self, engine, parallelism):
        # A month × category view holds an exact integral ancestor of year.
        with_parallelism(engine, parallelism)
        query = ssb_query(engine, ["year"], measures=("quantity",))
        expected = cold(ssb_engine(lineorder_rows=20_000, seed=5, with_budget=False), query)
        engine.materialize("SSB", ["month", "category"])
        engine.result_cache.clear()
        before = scans(engine)
        answer = engine.get(query)
        assert scans(engine) == before
        assert_same_bits(expected, answer)

        # Fractional revenue by year is refused by the exactness gate.
        revenue = ssb_query(engine, ["year"])
        assert probe(engine, revenue) is None
        before = scans(engine)
        assert_same_bits(cold(engine, revenue), from_views(engine, revenue))
        assert scans(engine) == before + 2

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_fractional_sum_on_coarser_levels_stays_on_the_fact_table(
        self, engine, parallelism
    ):
        # Re-adding the view's revenue partials re-associates the fact
        # scan's row-order sums: most of the 25 category cells would differ
        # in the last bits, so the get is not derived from the view.
        with_parallelism(engine, parallelism)
        engine.materialize("SSB", ["month", "category", "s_region"])
        query = ssb_query(engine, ["category"])
        assert probe(engine, query) is None
        expected = cold(engine, query)
        assert len(expected) == 25
        assert_same_bits(expected, from_views(engine, query))

    def test_predicate_level_must_be_in_view(self, engine):
        engine.materialize("SSB", ["month", "category"])
        query = ssb_query(
            engine, ["month"], predicates=(Predicate.eq("s_region", "ASIA"),)
        )
        # s_region is not stored: must fall back to the fact table
        assert probe(engine, query) is None

    def test_predicate_on_view_level_routes(self, engine):
        engine.materialize("SSB", ["month", "s_region"])
        query = ssb_query(
            engine,
            ["month"],
            predicates=(Predicate.eq("s_region", "ASIA"),),
            measures=("quantity",),
        )
        assert probe(engine, query) == "derive"
        assert_same_bits(cold(engine, query), from_views(engine, query))

    def test_avg_measure_falls_back(self, engine):
        engine.materialize("SSB", ["month"])
        query = ssb_query(engine, ["month"], measures=("discount",))
        assert probe(engine, query) is None

    def test_count_measure_reaggregates_by_summing(self):
        rng = np.random.default_rng(3)
        n_rows = 20_000
        flat = Table("flat", {
            "month": np.array(
                [f"m{m:02d}" for m in rng.integers(0, 12, n_rows)], dtype=object
            ),
            "store": np.array(
                [f"s{s:02d}" for s in rng.integers(0, 40, n_rows)], dtype=object
            ),
            "orders": np.ones(n_rows),
        })
        for parallelism in (1, 2):
            engine = with_parallelism(MultidimensionalEngine(Catalog()), parallelism)
            star_from_flat(
                engine, "ORDERS", flat, {"Time": ["month"], "Store": ["store"]},
                {"orders": "count"},
            )
            schema = engine.cube("ORDERS").schema
            query = CubeQuery("ORDERS", GroupBySet(schema, ["month"]), (), ("orders",))
            engine.materialize("ORDERS", ["month", "store"])  # finer: counts summed
            assert probe(engine, query) == "derive"
            routed = from_views(engine, query)
            assert_same_bits(cold(engine, query), routed)
            assert routed.measures["orders"].sum() == n_rows

    def test_smallest_covering_view_wins(self, engine):
        engine.materialize("SSB", ["date", "category"], name="big")
        engine.materialize("SSB", ["year", "category"], name="small")
        query = ssb_query(engine, ["category"], measures=("quantity",))
        engine.result_cache.clear()
        with tracing() as tracer:
            answer = engine.get(query)
        (event,) = [
            span for root in tracer.roots
            for span in root.find("cache.rollup-derivation")
        ]
        assert event.attrs["source_view"] == "small"
        assert_same_bits(cold(engine, query), answer)

    def test_pushed_query_ignores_views(self, engine):
        queries = [
            ssb_query(engine, ["year"], measures=("quantity",)),
            ssb_query(engine, ["month", "category"]),
            ssb_query(engine, ["month"], (Predicate.eq("s_region", "ASIA"),)),
        ]
        before = [engine.build_aggregate_query(query) for query in queries]
        sql = [engine.sql_for_get(query) for query in queries]
        engine.materialize("SSB", ["month", "category", "s_region"])
        assert [engine.build_aggregate_query(query) for query in queries] == before
        assert [engine.sql_for_get(query) for query in queries] == sql
        assert all("ssb_lineorder" in text for text in sql)


class TestRoutingThroughPlans:
    STATEMENT = """
        with SSB for s_region = 'ASIA' by category, s_region
        assess revenue against s_region = 'AMERICA'
        using difference(revenue, benchmark.revenue)
        labels {[-inf, 0): behind, [0, inf): ahead}
    """

    def test_sibling_pop_uses_view(self, engine):
        """Views answer the base get under the pushed pivot of POP."""
        from repro.api import AssessSession

        session = AssessSession(engine)
        before = session.assess(self.STATEMENT, plan="POP")
        sql = session.pushed_sql(session.plan(self.STATEMENT, "POP"))
        engine.materialize("SSB", ["category", "s_region"])
        engine.result_cache.clear()
        plan = session.plan(self.STATEMENT, "POP")
        (get,) = [node for node in plan.nodes() if isinstance(node, GetNode)]
        assert Statistics(engine).cache_probe(get.query) == "derive"
        assert estimate_plan_cost(plan, engine).node_modes[id(get)] == "derive"
        scanned = scans(engine)
        after = session.assess(self.STATEMENT, plan="POP")
        assert scans(engine) == scanned
        assert_same_bits(before.cube, after.cube)
        assert session.pushed_sql(session.plan(self.STATEMENT, "POP")) == sql

    def test_explain_analyze_reports_cache_derive(self, engine):
        from repro.api import AssessSession

        session = AssessSession(engine)
        engine.materialize("SSB", ["category", "s_region"])
        engine.result_cache.clear()
        report = session.explain_analyze(self.STATEMENT, plan="POP")
        (annotations,) = report.annotations
        provenances = {
            a.node.describe(): a.provenance for a in annotations if a.provenance
        }
        assert "cache-derive" in provenances.values(), provenances

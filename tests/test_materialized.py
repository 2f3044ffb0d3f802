"""Unit tests for materialized views and query routing.

A routed answer must be bit-identical to the fact-table answer: every
comparison below reads the measure arrays bit for bit, each arm from a
cleared cache so the view (or the fact table) really answers it.
"""

import numpy as np
import pytest

from repro.core import CubeQuery, EngineError, GroupBySet, Predicate
from repro.datagen import ssb_engine
from repro.datagen.flat import star_from_flat
from repro.engine.catalog import Catalog
from repro.engine.table import Table
from repro.olap.engine import MultidimensionalEngine


@pytest.fixture()
def engine():
    """A private small engine per test: views mutate engine state."""
    return ssb_engine(lineorder_rows=20_000, seed=5, with_budget=False)


def answer(engine, query, views):
    """The get's cube with view routing on or off, from a cleared cache."""
    engine.use_materialized_views = views
    engine.result_cache.clear()
    try:
        return engine.get(query)
    finally:
        engine.use_materialized_views = True


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


class TestMaterialize:
    def test_view_registered_and_stored(self, engine):
        view = engine.materialize("SSB", ["month", "category"])
        assert view.name in engine.view_names()
        assert engine.catalog.has_table(view.table_name)
        assert view.row_count == len(engine.catalog.table(view.table_name))

    def test_only_distributive_measures_stored(self, engine):
        view = engine.materialize("SSB", ["month"])
        assert "discount" not in view.measures  # avg measure
        assert "revenue" in view.measures

    def test_duplicate_name_rejected(self, engine):
        engine.materialize("SSB", ["month"], name="v1")
        with pytest.raises(EngineError):
            engine.materialize("SSB", ["year"], name="v1")

    def test_drop_view(self, engine):
        view = engine.materialize("SSB", ["month"])
        engine.drop_view(view.name)
        assert view.name not in engine.view_names()
        assert not engine.catalog.has_table(view.table_name)
        with pytest.raises(EngineError):
            engine.drop_view(view.name)


class TestRouting:
    def query(self, engine, levels, predicates=(), measures=("revenue",)):
        schema = engine.cube("SSB").schema
        return CubeQuery("SSB", GroupBySet(schema, levels), predicates, measures)

    def test_exact_match_routes_and_agrees(self, engine):
        # Equal levels: one view row per group, the identity — fractional
        # revenue routes.
        query = self.query(engine, ["month", "category"])
        engine.materialize("SSB", ["month", "category"])
        assert "mv_ssb" in engine.sql_for_get(query)
        assert_same_bits(answer(engine, query, False), answer(engine, query, True))

    def test_subset_group_by_routes(self, engine):
        engine.materialize("SSB", ["month", "category", "s_region"])
        query = self.query(engine, ["category"], measures=("quantity",))
        assert "mv_ssb" in engine.sql_for_get(query)
        assert_same_bits(answer(engine, query, False), answer(engine, query, True))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_fractional_sum_on_coarser_levels_stays_on_the_fact_table(
        self, engine, parallelism
    ):
        # Re-adding the view's revenue partials re-associates the fact
        # scan's row-order sums: most of the 25 category cells would differ
        # in the last bits, so the get is not routed.
        with_parallelism(engine, parallelism)
        engine.materialize("SSB", ["month", "category", "s_region"])
        query = self.query(engine, ["category"])
        assert "ssb_lineorder" in engine.sql_for_get(query)
        cold = answer(engine, query, False)
        assert len(cold) == 25
        assert_same_bits(cold, answer(engine, query, True))

    def test_predicate_level_must_be_in_view(self, engine):
        engine.materialize("SSB", ["month", "category"])
        query = self.query(
            engine, ["month"], predicates=(Predicate.eq("s_region", "ASIA"),)
        )
        # s_region is not stored: must fall back to the fact table
        assert "ssb_lineorder" in engine.sql_for_get(query)

    def test_predicate_on_view_level_routes(self, engine):
        engine.materialize("SSB", ["month", "s_region"])
        query = self.query(
            engine,
            ["month"],
            predicates=(Predicate.eq("s_region", "ASIA"),),
            measures=("quantity",),
        )
        assert "mv_ssb" in engine.sql_for_get(query)
        assert_same_bits(answer(engine, query, False), answer(engine, query, True))

    def test_avg_measure_falls_back(self, engine):
        engine.materialize("SSB", ["month"])
        query = self.query(engine, ["month"], measures=("discount",))
        assert "ssb_lineorder" in engine.sql_for_get(query)

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
            assert "mv_orders" in engine.sql_for_get(query)
            routed = answer(engine, query, True)
            assert_same_bits(answer(engine, query, False), routed)
            assert routed.measures["orders"].sum() == n_rows

    def test_smallest_covering_view_wins(self, engine):
        engine.materialize("SSB", ["date", "category"], name="big")
        engine.materialize("SSB", ["year", "category"], name="small")
        query = self.query(engine, ["category"], measures=("quantity",))
        assert "small" in engine.sql_for_get(query)

    def test_toggle_disables_routing(self, engine):
        engine.materialize("SSB", ["month"])
        query = self.query(engine, ["month"])
        engine.use_materialized_views = False
        assert "ssb_lineorder" in engine.sql_for_get(query)
        engine.use_materialized_views = True
        assert "mv_ssb" in engine.sql_for_get(query)


class TestRoutingThroughPlans:
    def test_sibling_pop_uses_view(self, engine):
        """Views route transparently under the pushed pivot of POP."""
        from repro.api import AssessSession

        session = AssessSession(engine)
        statement = """
            with SSB for s_region = 'ASIA' by category, s_region
            assess revenue against s_region = 'AMERICA'
            using difference(revenue, benchmark.revenue)
            labels {[-inf, 0): behind, [0, inf): ahead}
        """
        before = session.assess(statement, plan="POP")
        engine.materialize("SSB", ["category", "s_region"])
        engine.result_cache.clear()
        after = session.assess(statement, plan="POP")
        assert_same_bits(before.cube, after.cube)
        sql = session.pushed_sql(session.plan(statement, "POP"))[0]
        assert "mv_ssb" in sql

"""Unit tests for the materialized-view advisor."""

import numpy as np
import pytest

from repro.olap.advisor import advise_views, workload_gets


SIBLING = """
with SSB for s_region = 'ASIA' by category, s_region
assess revenue against s_region = 'AMERICA'
using difference(revenue, benchmark.revenue)
labels {[-inf, 0): behind, [0, inf): ahead}
"""
BY_YEAR = """
with SSB by year, c_region assess revenue against 100000000
using ratio(revenue, 100000000) labels {[0, 1): under, [1, inf): over}
"""


@pytest.fixture()
def workload(ssb_session):
    return [ssb_session.parse(SIBLING), ssb_session.parse(BY_YEAR),
            ssb_session.parse(SIBLING)]


class TestWorkloadGets:
    def test_collects_gets_from_best_plans(self, ssb_session, workload):
        gets = workload_gets(workload, ssb_session.engine)
        # sibling best plan = POP (1 combined get) ×2 + constant NP (1 get)
        assert len(gets) == 3


class TestAdviseViews:
    def test_recommends_covering_views(self, ssb_session, workload):
        recommendations = advise_views(ssb_session.engine, workload)
        assert recommendations
        top = recommendations[0]
        # the repeated sibling get dominates the saving
        assert set(top.levels) == {"category", "s_region"}
        assert top.queries_covered == 2
        assert top.estimated_saving > 0

    def test_savings_sorted_descending(self, ssb_session, workload):
        recommendations = advise_views(ssb_session.engine, workload)
        savings = [r.estimated_saving for r in recommendations]
        assert savings == sorted(savings, reverse=True)

    def test_low_compression_candidates_dropped(self, ssb_session):
        # date × customer is nearly as large as the fact table: no benefit
        statement = ssb_session.parse(
            """with SSB by date, customer assess revenue against 1
               using ratio(revenue, 1) labels {[0, inf): any}"""
        )
        recommendations = advise_views(
            ssb_session.engine, [statement], min_compression=5.0
        )
        assert all(
            set(r.levels) != {"customer", "date"} for r in recommendations
        )

    def test_recommendation_is_materializable_and_routes(self, ssb_session, workload):
        from repro.algebra.cost import Statistics
        from repro.algebra.plan import GetNode

        engine = ssb_session.engine
        recommendations = advise_views(engine, workload)
        top = recommendations[0]
        engine.result_cache.clear()
        cold = ssb_session.assess(SIBLING, plan="POP")
        engine.materialize(top.source, top.levels, name="advised")
        try:
            engine.result_cache.clear()
            plan = ssb_session.plan(ssb_session.parse(SIBLING), "POP")
            gets = [node for node in plan.nodes() if isinstance(node, GetNode)]
            assert [Statistics(engine).cache_probe(g.query) for g in gets] == ["derive"]
            result = ssb_session.assess(SIBLING, plan="POP")
            assert len(result) > 0
            for name, values in cold.cube.measures.items():
                assert np.array_equal(
                    values, result.cube.measures[name],
                    equal_nan=values.dtype.kind == "f",
                ), name
        finally:
            engine.drop_view("advised")

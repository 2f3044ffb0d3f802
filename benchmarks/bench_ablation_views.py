"""Ablation — materialized views on/off.

The paper's setup created materialized views on the Oracle star "to improve
performances".  This ablation quantifies what a view buys our engine: the
Sibling intention's gets are answered either from the lineorder fact table
or by derivation from a view pre-aggregated at exactly the needed
granularity.  A view is a pinned entry of the result cache, so both arms
run with the cache on and cleared before every round: the off arm has no
view to derive from, the on arm has one.
"""

import pytest

from benchmarks.conftest import rounds_for


@pytest.fixture(scope="module")
def view_scale(runner):
    """The mid ladder rung, with the result cache on for this module."""
    scale = runner.scales[min(1, len(runner.scales) - 1)]
    cache = runner.session(scale).engine.result_cache
    cache.enabled = True
    yield scale
    cache.clear()
    cache.enabled = False


@pytest.mark.parametrize("views", [False, True], ids=["views-off", "views-on"])
def test_ablation_materialized_views(benchmark, runner, view_scale, views):
    engine = runner.session(view_scale).engine
    if views:
        engine.materialize("SSB", ["part", "s_region"], name="mv_ablation")
    try:
        runner.run_once("Sibling", view_scale, "POP")  # warm dictionaries
        result = benchmark.pedantic(
            runner.run_once,
            args=("Sibling", view_scale, "POP"),
            setup=engine.result_cache.clear,
            rounds=rounds_for(runner, view_scale),
            iterations=1,
        )
    finally:
        if views:
            engine.drop_view("mv_ablation")
    benchmark.extra_info["views"] = views
    benchmark.extra_info["scale"] = view_scale
    assert len(result) > 0

"""Batched execution: CSE, fused scans, and the bit-identity property.

The central property mirrors the cache suite's: over random star schemas
and random statement batches, ``AssessSession.execute_many`` is
*bit-identical* to assessing the same statements one by one on an equal
session — including when the result cache serves some of the batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import batch_diagnostics
from repro.api import AssessSession
from repro.batch import plan_fusion, results_identical
from repro.cache.fingerprint import fingerprint_query
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate

from tests.test_cache import _random_engine


# ----------------------------------------------------------------------
# Random statement batches over the random star engines
# ----------------------------------------------------------------------
LABELS = "labels {(-inf, 0.5): low, [0.5, inf): high}"


def _random_statements(rng, hierarchies, count: int = 8):
    """Random statement texts over the RAND cube (constant + sibling)."""
    texts = []
    for _ in range(count):
        levels = [
            h.level_names()[int(rng.integers(0, len(h.levels)))]
            for h in hierarchies
            if rng.random() < 0.8
        ]
        if not levels:
            levels = [hierarchies[0].level_names()[0]]
        measure = ("m_sum", "m_min", "m_avg", "m_frac")[int(rng.integers(0, 4))]
        predicate = ""
        if rng.random() < 0.5:
            hierarchy = hierarchies[int(rng.integers(0, len(hierarchies)))]
            level = hierarchy.level_names()[
                int(rng.integers(0, len(hierarchy.levels)))
            ]
            members = sorted(hierarchy.members_of(level))
            member = members[int(rng.integers(0, len(members)))]
            predicate = f"for {level} = '{member}' "
        if rng.random() < 0.25 and len(hierarchies) >= 2:
            # sibling benchmark: slice a level of one hierarchy to a member,
            # group by a level of the *other* hierarchy plus the sliced one
            slicing, grouping = hierarchies[0], hierarchies[1]
            level = slicing.level_names()[
                int(rng.integers(0, len(slicing.levels)))
            ]
            members = sorted(slicing.members_of(level))
            other = grouping.level_names()[
                int(rng.integers(0, len(grouping.levels)))
            ]
            if len(members) >= 2:
                ours, theirs = (
                    members[i]
                    for i in rng.choice(len(members), size=2, replace=False)
                )
                texts.append(
                    f"with RAND for {level} = '{ours}' "
                    f"by {other}, {level} "
                    f"assess {measure} against {level} = '{theirs}' "
                    f"using difference({measure}, benchmark.{measure}) "
                    f"{LABELS}"
                )
                continue
        threshold = int(rng.integers(1, 500))
        texts.append(
            f"with RAND {predicate}by {', '.join(levels)} "
            f"assess {measure} against {threshold} "
            f"using ratio({measure}, {threshold}) {LABELS}"
        )
    return texts


@pytest.mark.parametrize("seed", range(5))
def test_execute_many_bit_identical_to_sequential(seed):
    """The property: batch answers == one-by-one answers, bit for bit."""
    engine, hierarchies = _random_engine(seed)
    reference_engine, _ = _random_engine(seed)
    batch_session = AssessSession(engine)
    reference_session = AssessSession(reference_engine)
    rng = np.random.default_rng(500 + seed)
    statements = _random_statements(rng, hierarchies)
    statements.append(statements[0])  # duplicate: served from the batch memo

    # Warm both result caches identically first, so part of the batch is
    # answered by cache hits interleaved with cold fused scans.
    for text in statements[:2]:
        batch_session.assess(text)
        reference_session.assess(text)

    batch = batch_session.execute_many(statements)
    sequential = [reference_session.assess(text) for text in statements]

    assert len(batch) == len(statements)
    for ours, theirs in zip(batch.results, sequential):
        assert results_identical(ours, theirs)
    # the duplicate never re-executes: unique queries < statements
    assert batch.report.statements == len(statements)


@pytest.mark.parametrize("plan", ["best", "auto", "NP"])
def test_execute_many_plan_modes_agree(plan):
    engine, hierarchies = _random_engine(42)
    reference_engine, _ = _random_engine(42)
    session = AssessSession(engine)
    reference = AssessSession(reference_engine)
    rng = np.random.default_rng(4242)
    statements = _random_statements(rng, hierarchies, count=5)
    batch = session.execute_many(statements, plan=plan)
    for ours, text in zip(batch.results, statements):
        assert results_identical(ours, reference.assess(text, plan=plan))


def test_execute_many_empty_batch():
    engine, _ = _random_engine(3)
    session = AssessSession(engine)
    batch = session.execute_many([])
    assert len(batch) == 0
    assert batch.report.statements == 0
    assert batch.report.engine_scans == 0


# ----------------------------------------------------------------------
# Fusion planning: CSE, grouping, predicate subsumption
# ----------------------------------------------------------------------
def _aggregate(engine, schema, levels, predicates=(), measures=("m_sum",)):
    return engine.build_aggregate_query(
        CubeQuery("RAND", GroupBySet(schema, levels), list(predicates), measures)
    )


def test_plan_fusion_groups_compatible_scans():
    engine, hierarchies = _random_engine(7)
    schema = engine.cube("RAND").schema
    h0 = hierarchies[0]
    fine, coarse = h0.level_names()[0], h0.level_names()[-1]
    member = sorted(h0.members_of(coarse))[0]
    same_where = [Predicate.eq(coarse, member)]

    q_fine = _aggregate(engine, schema, [fine], same_where)
    q_coarse = _aggregate(engine, schema, [coarse], same_where)
    groups = plan_fusion([q_fine, q_coarse])
    assert len(groups) == 1
    assert len(groups[0]) == 2
    assert all(member.residual == () for member in groups[0].members)

    # identical fingerprints collapse before grouping (CSE)
    assert len(plan_fusion([q_fine, q_fine])) == 0

    # singleton shapes never form a group
    assert plan_fusion([q_fine]) == []


def test_plan_fusion_subsumption_residual():
    """A strictly wider predicate set joins the group with a residual."""
    engine, hierarchies = _random_engine(8)
    schema = engine.cube("RAND").schema
    h0, h1 = hierarchies
    lvl0, lvl1 = h0.level_names()[-1], h1.level_names()[-1]
    m0 = sorted(h0.members_of(lvl0))[0]
    m1 = sorted(h1.members_of(lvl1))[0]
    base = [Predicate.eq(lvl0, m0)]
    wider = [Predicate.eq(lvl0, m0), Predicate.eq(lvl1, m1)]

    q_base = _aggregate(engine, schema, [h0.level_names()[0]], base)
    q_wider = _aggregate(engine, schema, [h1.level_names()[0]], wider)
    groups = plan_fusion([q_base, q_wider])
    assert len(groups) == 1
    group = groups[0]
    by_fingerprint = {m.fingerprint: m for m in group.members}
    assert by_fingerprint[fingerprint_query(q_base)].residual == ()
    residual = by_fingerprint[fingerprint_query(q_wider)].residual
    assert len(residual) == 1  # only the extra predicate survives as residual
    # the scan itself is the narrow (base) predicate set
    assert set(group.scan_where) == set(q_base.where)


# ----------------------------------------------------------------------
# Fused execution kernels: derivation vs fallback, bit-identity
# ----------------------------------------------------------------------
def test_execute_fused_matches_direct_execution():
    engine, hierarchies = _random_engine(9)
    schema = engine.cube("RAND").schema
    executor = engine.executor
    h0, h1 = hierarchies
    queries = [
        _aggregate(engine, schema, [h0.level_names()[0]], measures=("m_sum", "m_min")),
        _aggregate(engine, schema, [h0.level_names()[-1]], measures=("m_sum",)),
        _aggregate(engine, schema, [h1.level_names()[0]], measures=("m_avg",)),
        _aggregate(engine, schema, [h0.level_names()[1]], measures=("m_frac",)),
    ]
    fused, derived = executor.execute_fused(
        queries, queries[0].where, [()] * len(queries)
    )
    # integral sum/min derive; avg and fractional sums take the fallback
    assert derived == [True, True, False, False]
    for query, result in zip(queries, fused):
        direct = executor.execute_aggregate(query)
        assert list(result.columns) == list(direct.columns)
        for name in result.columns:
            ours, theirs = result.columns[name], direct.columns[name]
            if ours.dtype == np.float64:
                assert ours.tobytes() == theirs.tobytes(), name
            else:
                assert ours.tolist() == theirs.tolist(), name


def test_batch_scans_fewer_than_statements():
    """The CI smoke property at unit scale: shared scans beat one-per-query."""
    engine, hierarchies = _random_engine(11)
    engine.result_cache.enabled = False
    session = AssessSession(engine)
    h0 = hierarchies[0]
    statements = [
        f"with RAND by {level} assess m_sum against 100 "
        f"using ratio(m_sum, 100) {LABELS}"
        for level in h0.level_names()
    ]
    batch = session.execute_many(statements)
    assert batch.report.engine_scans < len(statements)
    assert batch.report.fused_groups >= 1


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("plan,counter", [
    ("JOP", "engine.drill_across"), ("POP", "engine.pivots"),
])
def test_repeated_composite_is_one_cse_hit(plan, counter, cache):
    """A statement repeated in one batch takes its pushed drill-across or
    pivot from the batch memo: one CSE hit, and the join runs once."""
    hits = []
    for copies in (1, 2):
        engine, (h0, h1) = _random_engine(21)
        engine.result_cache.enabled = cache
        level, other = h0.level_names()[0], h1.level_names()[0]
        target, sibling = sorted(h0.members_of(level))[:2]
        text = (
            f"with RAND for {level} = '{target}' by {level}, {other} "
            f"assess m_sum against {level} = '{sibling}' "
            f"using ratio(m_sum, benchmark.m_sum) {LABELS}"
        )
        batch = AssessSession(engine).execute_many([text] * copies, plan=plan)
        assert batch.report.plan_names == [plan] * copies
        assert engine.metrics.get(counter) == 1
        assert engine.metrics.get("batch.cse_hits") == batch.report.shared_hits
        hits.append(batch.report.shared_hits)
    assert hits[1] == hits[0] + 1


# ----------------------------------------------------------------------
# Batch-aware cost model
# ----------------------------------------------------------------------
def test_choose_plan_batch_prices_shared_nodes_once():
    from repro.algebra.cost import choose_plan_batch

    engine, hierarchies = _random_engine(12)
    session = AssessSession(engine)
    text = (
        f"with RAND by {hierarchies[0].level_names()[0]} "
        f"assess m_sum against 100 using ratio(m_sum, 100) {LABELS}"
    )
    statements = [session.parse(text), session.parse(text)]
    plans, costs = choose_plan_batch(statements, engine)
    assert len(plans) == len(costs) == 2
    assert plans[0].name == plans[1].name
    # the second statement sees the first's chosen nodes as warm
    assert min(costs[1].values()) < min(costs[0].values())


# ----------------------------------------------------------------------
# Batch diagnostics (ASSESS3xx)
# ----------------------------------------------------------------------
def test_batch_diagnostics_empty_batch_warns():
    bag = batch_diagnostics([])
    assert bag.codes() == ("ASSESS301",)
    assert not bag.has_errors


def test_batch_diagnostics_duplicates_warn():
    text = "with RAND by h assess m_sum against 1 using ratio(m_sum, 1) " + LABELS
    other = text.replace("against 1", "against 2")
    bag = batch_diagnostics([text, other, "  " + text.replace("  ", " ")])
    assert bag.codes() == ("ASSESS302",)
    assert not bag.has_errors
    assert "statement 3 duplicates statement 1" in bag.diagnostics[0].message


def test_batch_diagnostics_clean_batch():
    assert batch_diagnostics(["with A ...", "with B ..."]).codes() == ()


# ----------------------------------------------------------------------
# Reporting surface
# ----------------------------------------------------------------------
def test_sharing_report_render_and_dict():
    engine, hierarchies = _random_engine(13)
    engine.result_cache.enabled = False
    session = AssessSession(engine)
    level = hierarchies[0].level_names()[0]
    text = (
        f"with RAND by {level} assess m_sum against 100 "
        f"using ratio(m_sum, 100) {LABELS}"
    )
    batch = session.execute_many([text, text])
    report = batch.report
    as_dict = report.to_dict()
    assert as_dict["statements"] == 2
    assert as_dict["unique_queries"] == 1
    assert report.shared_hits >= 1
    rendered = report.render()
    assert "shared (CSE) hits" in rendered and "engine scans" in rendered
    assert len(batch.seconds) == 2 and all(s >= 0 for s in batch.seconds)

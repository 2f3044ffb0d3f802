"""Metamorphic tests for the P1–P3 rewrite properties (Section 5.1).

The metamorphic relation: for any assess statement, every feasible plan
— NP (naive), JOP (P2: join pushed to SQL), POP (P3: join replaced by
pivot) — must produce identical cells.  Statements are *randomized* over
the SSB cube: random group-by sets, random slices, random benchmark type
(constant / external / sibling / past), plain ``assess`` and left-outer
``assess*``, with the sibling/past variants exercising **partial joins**
``⋈_{l1..lm}`` (the benchmark join ranges over the group-by levels minus
the sliced level, so widening the group-by widens the join level set).

The result cache is disabled throughout: with it on, different plans
could be served the same memoized pushed query, making cross-plan
identity partially vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AssessSession
from repro.experiments.statements import INTENTIONS, prepare_engine, statement_text

SSB_ROWS = 2000


def _bits(value):
    """A float's exact bit pattern (NaN-stable); non-floats pass through."""
    import struct

    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def identical_cells(left, right) -> bool:
    """Bit-exact equality of two results' assessment cells.

    Compares what the statement *means* — coordinates, target value,
    benchmark value, comparison, label — to the last bit (no rounding,
    NaN bit patterns included).  Auxiliary columns (e.g. the lagged
    ``benchmark.<m>_k`` helpers the JOP/POP past pipelines keep) are
    plan-shape artifacts and excluded.
    """

    def cells(result):
        return {
            cell.coordinate: (
                _bits(cell.value),
                _bits(cell.benchmark),
                _bits(cell.comparison),
                cell.label,
            )
            for cell in result
        }

    return len(left) == len(right) and cells(left) == cells(right)

LABELS = "labels {[-inf, 0.9): low, [0.9, 1.1]: mid, (1.1, inf): high}"


@pytest.fixture(scope="module")
def session():
    session = AssessSession(prepare_engine(SSB_ROWS))
    session.engine.result_cache.enabled = False
    return session


def _members(session, level):
    return session.engine.ordered_members("SSB", level)


def _random_statement(rng, session):
    """One random assess statement; returns (text, expected benchmark kind)."""
    kind = ("constant", "external", "sibling", "past")[int(rng.integers(0, 4))]
    measure = "quantity" if rng.random() < 0.6 else "revenue"
    star = "*" if kind != "constant" and rng.random() < 0.4 else ""

    if kind == "constant":
        group_by = ["year"] if rng.random() < 0.5 else ["month", "category"]
        constant = int(rng.integers(10, 5000))
        slice_ = ""
        if rng.random() < 0.5:
            year = _members(session, "year")[int(rng.integers(0, 5))]
            slice_ = f"for year = '{year}' "
        return (
            f"with SSB {slice_}by {', '.join(group_by)} "
            f"assess {measure} against {constant} "
            f"using ratio({measure}, {constant}) {LABELS}"
        ), kind

    if kind == "external":
        # BUDGET lives at (month, part); the group-by must match it.
        return (
            f"with SSB by month, part "
            f"assess{star} {measure} against BUDGET.expected_revenue "
            f"using normalizedDifference({measure}, benchmark.expected_revenue) "
            f"{LABELS}"
        ), kind

    if kind == "sibling":
        level = "s_region" if rng.random() < 0.5 else "c_region"
        members = _members(session, level)
        ours, theirs = rng.choice(len(members), size=2, replace=False)
        # Extra levels widen the partial join ⋈_{l1..lm}.
        extra = ["category"] if rng.random() < 0.5 else ["mfgr", "year"]
        group_by = extra + [level]
        return (
            f"with SSB for {level} = '{members[ours]}' "
            f"by {', '.join(group_by)} "
            f"assess{star} {measure} against {level} = '{members[theirs]}' "
            f"using ratio({measure}, benchmark.{measure}) {LABELS}"
        ), kind

    # past: slice one month late enough to have k predecessors
    months = _members(session, "month")
    k = int(rng.integers(2, 5))
    month = months[int(rng.integers(k, len(months)))]
    extra = ["c_region"] if rng.random() < 0.5 else ["mfgr"]
    return (
        f"with SSB for month = '{month}' by {', '.join(['month'] + extra)} "
        f"assess{star} {measure} against past {k} "
        f"using ratio({measure}, benchmark.{measure}) {LABELS}"
    ), kind


def _assert_all_plans_identical(session, text):
    statement = session.parse(text)
    plans = session.plans(statement)
    assert "NP" in plans
    names = list(plans)
    reference = session.execute_plan(plans[names[0]], statement)
    for name in names[1:]:
        other = session.execute_plan(plans[name], statement)
        assert identical_cells(other, reference), (names[0], name, text)
    return names


@pytest.mark.parametrize("seed", range(12))
def test_randomized_statements_same_cells_under_all_plans(session, seed):
    rng = np.random.default_rng(seed)
    text, kind = _random_statement(rng, session)
    names = _assert_all_plans_identical(session, text)
    if kind in ("sibling", "past"):
        # P3 applies: both gets range over the same cube.
        assert "POP" in names, (kind, names)
    if kind != "constant":
        assert "JOP" in names, (kind, names)


@pytest.mark.parametrize("intention", INTENTIONS)
def test_reference_intentions_same_cells_under_all_plans(session, intention):
    _assert_all_plans_identical(session, statement_text(intention))


@pytest.mark.parametrize("intention", ("External", "Sibling", "Past"))
def test_left_outer_assess_star_same_cells_under_all_plans(session, intention):
    """The ``assess*`` left-outer variants of the joining intentions."""
    text = statement_text(intention).replace("assess revenue", "assess* revenue")
    _assert_all_plans_identical(session, text)


def test_partial_join_width_sweep(session):
    """The sibling benchmark's partial join over 1, 2, and 3 join levels."""
    for extra in (["category"], ["category", "year"], ["mfgr", "year", "c_region"]):
        group_by = extra + ["s_region"]
        text = (
            f"with SSB for s_region = 'ASIA' by {', '.join(group_by)} "
            f"assess quantity against s_region = 'AMERICA' "
            f"using ratio(quantity, benchmark.quantity) {LABELS}"
        )
        names = _assert_all_plans_identical(session, text)
        assert "POP" in names


def test_parallel_execution_preserves_the_metamorphic_relation():
    """All plans, all parallelism degrees, one answer — the rewrite
    properties and the morsel merge must compose."""
    serial = AssessSession(prepare_engine(SSB_ROWS))
    serial.engine.result_cache.enabled = False
    parallel = AssessSession(prepare_engine(SSB_ROWS))
    parallel.engine.result_cache.enabled = False
    parallel.set_parallelism(3, morsel_rows=256, min_rows=256)

    text = (
        "with SSB for s_region = 'ASIA' by category, s_region "
        "assess quantity against s_region = 'AMERICA' "
        f"using ratio(quantity, benchmark.quantity) {LABELS}"
    )
    statement = serial.parse(text)
    reference = serial.execute_plan(serial.plans(statement)["NP"], statement)
    statement_p = parallel.parse(text)
    for name, plan in parallel.plans(statement_p).items():
        result = parallel.execute_plan(plan, statement_p)
        assert identical_cells(result, reference), name
    assert parallel.engine.metrics.get("engine.parallel.queries") >= 1


def test_past_slices_in_member_order_on_integer_periods():
    """An int64 time level orders its past slices numerically in every
    plan: 10 follows 9 (it sorts before 7 by ``repr``)."""
    from repro.datagen.flat import star_from_flat
    from repro.engine.catalog import Catalog
    from repro.engine.table import Table
    from repro.olap.engine import MultidimensionalEngine

    periods = np.repeat(np.arange(1, 13, dtype=np.int64), 3)
    products = np.empty(len(periods), dtype=object)
    products[:] = ["p1", "p2", "p3"] * 12
    steps = np.tile([1.0, 2.0, 3.0], 12)
    quantity = 100.0 + periods * steps + (periods % 3) * 5.0
    engine = MultidimensionalEngine(Catalog())
    star_from_flat(
        engine,
        "SHOP",
        Table("flat", {"period": periods, "product": products, "quantity": quantity}),
        {"Time": ["period"], "Product": ["product"]},
        {"quantity": "sum"},
    )
    session = AssessSession(engine)
    text = (
        "with SHOP for period = 11 by period, product "
        f"assess quantity against past 4 {LABELS}"
    )
    names = _assert_all_plans_identical(session, text)
    assert names == ["NP", "JOP", "POP"]


def test_past_grouped_by_the_time_level_alone(session):
    """A past benchmark whose join key is empty (group-by = the time
    level): every target cell matches every past slice."""
    month = _members(session, "month")[6]
    text = (
        f"with SSB for month = '{month}' by month "
        f"assess quantity against past 3 {LABELS}"
    )
    names = _assert_all_plans_identical(session, text)
    assert "JOP" in names
    statement = session.parse(text)
    assert len(session.execute_plan(session.plans(statement)["JOP"], statement)) == 1

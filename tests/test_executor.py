"""Unit tests for plan execution: timings, assess*, labeling dispatch."""

import math

import pytest

from repro.algebra import (
    ALL_STEPS,
    PlanExecutor,
    STEP_COMPARE,
    STEP_GET_BENCHMARK,
    STEP_GET_COMBINED,
    STEP_GET_TARGET,
    STEP_JOIN,
    STEP_LABEL,
    STEP_TRANSFORM,
    build_plan,
)
from repro.core import FunctionError


SIBLING = """
with SALES for type = 'Fresh Fruit', country = 'Italy' by product, country
assess quantity against country = 'France'
using percOfTotal(difference(quantity, benchmark.quantity))
labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf): good}
"""
PAST = """
with SALES for month = '1997-07', store = 'SmartMart' by month, store
assess storeSales against past 4
using ratio(storeSales, benchmark.storeSales)
labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}
"""


class TestTimingBuckets:
    def test_np_buckets(self, sales_session):
        result = sales_session.assess(SIBLING, plan="NP")
        assert STEP_GET_TARGET in result.timings
        assert STEP_GET_BENCHMARK in result.timings
        assert STEP_JOIN in result.timings
        assert STEP_COMPARE in result.timings
        assert STEP_LABEL in result.timings
        assert STEP_GET_COMBINED not in result.timings
        assert all(v >= 0 for v in result.timings.values())

    def test_jop_buckets(self, sales_session):
        result = sales_session.assess(SIBLING, plan="JOP")
        assert STEP_GET_COMBINED in result.timings
        assert STEP_GET_TARGET not in result.timings
        assert STEP_JOIN not in result.timings

    def test_past_np_has_transform(self, sales_session):
        result = sales_session.assess(PAST, plan="NP")
        assert STEP_TRANSFORM in result.timings  # pivot + regression + project

    def test_total_time_sums_buckets(self, sales_session):
        result = sales_session.assess(SIBLING, plan="NP")
        assert result.total_time() == pytest.approx(sum(result.timings.values()))

    def test_all_buckets_are_known_steps(self, sales_session):
        for plan in ("NP", "JOP", "POP"):
            result = sales_session.assess(PAST, plan=plan)
            assert set(result.timings) <= set(ALL_STEPS)


class TestResultContract:
    def test_five_components_per_cell(self, sales_session):
        result = sales_session.assess(SIBLING)
        for cell in result:
            assert len(cell.coordinate) == 2
            assert isinstance(cell.value, float)
            assert isinstance(cell.benchmark, float)
            assert isinstance(cell.comparison, float)
            assert cell.label in ("bad", "ok", "good")

    def test_plan_name_recorded(self, sales_session):
        assert sales_session.assess(SIBLING, plan="POP").plan_name == "POP"

    def test_label_of_lookup(self, sales_session):
        result = sales_session.assess(SIBLING)
        first = result.cells()[0]
        assert result.label_of(first.coordinate) == first.label

    def test_to_table_renders(self, sales_session):
        text = sales_session.assess(SIBLING).to_table(limit=2)
        assert "product" in text and "label" in text
        assert len(text.splitlines()) == 4  # header + rule + 2 rows


class TestAssessStar:
    def test_unmatched_cells_get_null_labels(self, figure1_session):
        # France has no 'Banana'; extend Italy with one so assess* shows nulls
        engine = figure1_session.engine
        # Italy slice has Apple/Pear/Lemon; France benchmark misses nothing.
        # Slice on France against Italy instead, after removing a French row:
        result = figure1_session.assess(
            """with SALES for type = 'Fresh Fruit', country = 'Italy'
               by product, country
               assess* quantity against country = 'Spain'
               using difference(quantity, benchmark.quantity)
               labels {[-inf, 0): below, [0, inf): above}"""
        )
        # Spain sells no fresh fruit at all: every cell survives with nulls.
        assert len(result) == 3
        for cell in result:
            assert cell.label is None
            assert math.isnan(cell.benchmark)

    def test_inner_assess_drops_unmatched(self, figure1_session):
        result = figure1_session.assess(
            """with SALES for type = 'Fresh Fruit', country = 'Italy'
               by product, country
               assess quantity against country = 'Spain'
               using difference(quantity, benchmark.quantity)
               labels {[-inf, 0): below, [0, inf): above}"""
        )
        assert len(result) == 0


class TestLabelingDispatch:
    def test_named_labeling_from_registry(self, sales_session):
        result = sales_session.assess(
            "with SALES by month assess storeSales labels quartiles"
        )
        assert set(result.label_counts()) == {"Q1", "Q2", "Q3", "Q4"}

    def test_non_labeling_function_rejected(self, sales_session):
        with pytest.raises(FunctionError):
            sales_session.assess(
                "with SALES by month assess storeSales labels minMaxNorm"
            )

    def test_unknown_labeling_function_rejected(self, sales_session):
        with pytest.raises(FunctionError):
            sales_session.assess(
                "with SALES by month assess storeSales labels fancyLabels"
            )

    def test_predeclared_range_labeling(self, sales_session):
        from repro.core import five_stars_rules

        sales_session.define_labeling("fivestars", five_stars_rules())
        result = sales_session.assess(
            """with SALES by month assess storeSales against 50000
               using signedMinMaxNorm(difference(storeSales, 50000))
               labels fivestars"""
        )
        assert set(result.label_counts()) <= {"*", "**", "***", "****", "*****"}


class TestPredictionDispatch:
    def test_non_prediction_method_rejected(self, sales_session):
        statement = sales_session.parse(PAST)
        statement.benchmark.method = "difference"  # not a prediction function
        plan = build_plan(statement, sales_session.engine, "NP")
        executor = PlanExecutor(sales_session.engine, sales_session.registry)
        with pytest.raises(FunctionError):
            executor.execute(plan, statement)

    def test_alternative_predictors_run(self, sales_session):
        statement = sales_session.parse(PAST)
        for method in ("movingAverage", "naiveLast", "exponentialSmoothing"):
            statement.benchmark.method = method
            plan = build_plan(statement, sales_session.engine, "NP")
            executor = PlanExecutor(sales_session.engine, sales_session.registry)
            result = executor.execute(plan, statement)
            assert len(result) == 1


ANCESTOR = """
with SALES by product, country assess quantity against ancestor type
using ratio(quantity, benchmark.quantity)
labels {[0, 0.2): small, [0.2, 1]: large}
"""


def _rollup_join_python(node, left, right):
    """Row-at-a-time ancestor join over hydrated part-of maps (the oracle)."""
    import numpy as np

    from repro.core.cube import Cube, qualified

    hierarchy = left.schema.hierarchy_of_level(node.level)
    position = left.group_by.position_of(node.level)
    right_index = right.coordinate_index()

    keep = []
    matches = []
    for row, coordinate in enumerate(left.coordinates()):
        member = coordinate[position]
        ancestor = hierarchy.rollup_member(member, node.level, node.ancestor_level)
        key = list(coordinate)
        key[position] = ancestor
        match = right_index.get(tuple(key))
        if match is not None:
            keep.append(row)
            matches.append(match)
        elif node.outer:
            keep.append(row)
            matches.append(-1)
    index = np.asarray(keep, dtype=np.intp)
    coords = {name: column[index] for name, column in left.coords.items()}
    measures = {name: column[index] for name, column in left.measures.items()}
    match_index = np.asarray(matches, dtype=np.intp)
    for name, column in right.measures.items():
        gathered = np.asarray(column, dtype=np.float64)
        safe = np.where(match_index < 0, 0, match_index)
        values = (
            gathered[safe].copy() if len(gathered)
            else np.full(len(match_index), np.nan)
        )
        values[match_index < 0] = np.nan
        measures[qualified(node.alias, name)] = values
    return Cube(left.schema, left.group_by, coords, measures)


def _rollup_join_sides(session, text, outer):
    """The ancestor join node of a statement's NP plan and its two inputs."""
    from repro.algebra.plan import RollupJoinNode

    statement = session.parse(text)
    plan = build_plan(statement, session.engine, "NP")
    executor = PlanExecutor(session.engine, session.registry)
    nodes = [n for n in plan.nodes() if isinstance(n, RollupJoinNode)]
    assert len(nodes) == 1
    node = nodes[0]
    node.outer = outer
    timings = {}
    left = executor._run(node.left, timings)
    right = executor._run(node.right, timings)
    return executor, node, left, right


def _assert_bit_identical(fast, slow):
    import numpy as np

    assert len(fast) == len(slow)
    assert fast.coordinates() == slow.coordinates()
    assert list(fast.measure_names) == list(slow.measure_names)
    for name in fast.measure_names:
        a, b = fast.measure(name), slow.measure(name)
        if a.dtype == object:  # labels
            assert a.tolist() == b.tolist(), name
        else:
            assert a.astype(np.float64).tobytes() == b.astype(np.float64).tobytes(), name


class TestRollupJoinVectorized:
    """The coded ancestor join must agree with the row-at-a-time oracle."""

    @pytest.mark.parametrize("outer", [False, True])
    def test_matches_python_oracle(self, sales_session, outer):
        executor, node, left, right = _rollup_join_sides(
            sales_session, ANCESTOR, outer
        )
        _assert_bit_identical(
            executor._rollup_join(node, left, right),
            _rollup_join_python(node, left, right),
        )

    def test_ancestor_statement_end_to_end(self, sales_session):
        result = sales_session.assess(ANCESTOR, plan="NP")
        assert len(result) > 0
        assert set(result.label_counts()) <= {"small", "large"}


SSB_ANCESTORS = [
    "with SSB by c_city assess quantity against ancestor c_region "
    "using ratio(quantity, benchmark.quantity) labels {[0, 0.1): small, [0.1, inf]: large}",
    "with SSB for year = '1995' by month, category assess revenue against ancestor year "
    "using ratio(revenue, benchmark.revenue) labels {[0, 0.1): small, [0.1, inf]: large}",
    "with SSB by brand, s_region assess quantity against ancestor mfgr "
    "using ratio(quantity, benchmark.quantity) labels {[0, 0.1): small, [0.1, inf]: large}",
]


class TestRollupJoinOnCodes:
    """Ancestor statements need no hydrated part-of maps: the join rolls
    up through the engine's coded part-of table."""

    @pytest.fixture(scope="class")
    def engines(self):
        from repro.datagen import ssb_engine
        from repro.olap import hydrate_hierarchies

        plain = ssb_engine(lineorder_rows=8_000, seed=3, with_budget=False)
        hydrated = ssb_engine(lineorder_rows=8_000, seed=3, with_budget=False)
        registered = hydrated.cube("SSB")
        hydrate_hierarchies(registered.schema, registered.star, hydrated.catalog)
        return plain, hydrated

    @pytest.mark.parametrize("outer", [False, True])
    @pytest.mark.parametrize("text", SSB_ANCESTORS)
    def test_unhydrated_matches_oracle_on_hydrated(self, engines, text, outer):
        from repro import AssessSession

        plain, hydrated = engines
        executor, node, left, right = _rollup_join_sides(
            AssessSession(plain), text, outer
        )
        fast = executor._rollup_join(node, left, right)
        _, node, left, right = _rollup_join_sides(
            AssessSession(hydrated), text, outer
        )
        _assert_bit_identical(fast, _rollup_join_python(node, left, right))
        hierarchy = plain.cube("SSB").schema.hierarchy_of_level(node.level)
        assert not hierarchy.members_of(node.level)  # never hydrated

    @pytest.mark.parametrize("text", SSB_ANCESTORS)
    def test_statement_bit_identical_to_hydrated_engine(self, engines, text):
        from repro import AssessSession

        plain, hydrated = engines
        fast = AssessSession(plain).assess(text, plan="NP").cube
        slow = AssessSession(hydrated).assess(text, plan="NP").cube
        _assert_bit_identical(fast, slow)

    def test_a_non_functional_part_of_order_raises(self):
        import numpy as np

        from repro import AssessSession
        from repro.core.errors import SchemaError
        from repro.datagen import ssb_engine
        from repro.engine.table import Table

        engine = ssb_engine(lineorder_rows=2_000, seed=3, with_budget=False)
        customer = engine.catalog.table("ssb_customer")
        columns = {name: customer.column(name).copy() for name in customer.column_names}
        cities, counts = np.unique(columns["c_city"], return_counts=True)
        row = int(np.flatnonzero(columns["c_city"] == cities[np.argmax(counts)])[0])
        regions = np.unique(columns["c_region"])
        columns["c_region"][row] = regions[regions != columns["c_region"][row]][0]
        engine.catalog.register(Table("ssb_customer", columns), replace=True)
        with pytest.raises(SchemaError, match="no part-of function"):
            AssessSession(engine).assess(SSB_ANCESTORS[0], plan="NP")

"""Unit tests for the AssessSession public API."""

import numpy as np
import pytest

from repro.api import AssessSession
from repro.core import AssessStatement, FunctionError, PlanError
from repro.core.deadline import Deadline, DeadlineExceeded


SIBLING = """
with SALES for type = 'Fresh Fruit', country = 'Italy' by product, country
assess quantity against country = 'France'
using percOfTotal(difference(quantity, benchmark.quantity))
labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf): good}
"""


class TestSessionBasics:
    def test_parse_returns_statement(self, sales_session):
        statement = sales_session.parse(SIBLING)
        assert isinstance(statement, AssessStatement)

    def test_assess_accepts_text_or_statement(self, sales_session):
        by_text = sales_session.assess(SIBLING)
        by_statement = sales_session.assess(sales_session.parse(SIBLING))
        assert len(by_text) == len(by_statement)
        assert by_text.label_counts() == by_statement.label_counts()

    def test_plan_names(self, sales_session):
        assert sales_session.plan(SIBLING, "NP").name == "NP"
        assert sales_session.plan(SIBLING, "best").name == "POP"
        assert set(sales_session.plans(SIBLING)) == {"NP", "JOP", "POP"}

    def test_feasible_plans(self, sales_session):
        assert sales_session.feasible_plans(SIBLING) == ("NP", "JOP", "POP")

    def test_infeasible_plan_raises(self, sales_session):
        with pytest.raises(PlanError):
            sales_session.assess(
                "with SALES by month assess storeSales labels quartiles",
                plan="POP",
            )

    def test_execute_prebuilt_plan(self, sales_session):
        statement = sales_session.parse(SIBLING)
        plan = sales_session.plan(statement, "JOP")
        result = sales_session.execute_plan(plan, statement)
        assert result.plan_name == "JOP"


class TestExplain:
    def test_explain_contains_tree_and_sql(self, sales_session):
        text = sales_session.explain(SIBLING, plan="POP")
        assert "Plan POP" in text
        assert "-- pushed query 1" in text
        assert "pivot (" in text

    def test_np_explain_has_two_queries(self, sales_session):
        text = sales_session.explain(SIBLING, plan="NP")
        assert "-- pushed query 2" in text

    def test_pushed_sql_counts(self, sales_session):
        statement = sales_session.parse(SIBLING)
        assert len(sales_session.pushed_sql(sales_session.plan(statement, "NP"))) == 2
        assert len(sales_session.pushed_sql(sales_session.plan(statement, "JOP"))) == 1
        assert len(sales_session.pushed_sql(sales_session.plan(statement, "POP"))) == 1


class TestUserFunctions:
    def test_register_cell_function(self, sales_session):
        sales_session.register_function(
            "halfGap", "cell", lambda a, b: (a - b) / 2.0, arity=2
        )
        result = sales_session.assess(
            """with SALES by month assess storeSales against 1000
               using halfGap(storeSales, 1000) labels quartiles"""
        )
        assert len(result) == 24

    def test_registrations_are_session_local(self, sales):
        first = AssessSession(sales)
        second = AssessSession(sales)
        first.register_function("onlyHere", "cell", lambda a: a, arity=1)
        assert first.registry.has("onlyHere")
        assert not second.registry.has("onlyHere")

    def test_duplicate_registration_rejected(self, sales_session):
        sales_session.register_function("dup", "cell", lambda a: a, arity=1)
        with pytest.raises(FunctionError):
            sales_session.register_function("dup", "cell", lambda a: a, arity=1)

    def test_define_labeling_roundtrip(self, sales_session):
        from repro.core import Interval, LabelRule

        sales_session.define_labeling(
            "passFail",
            [
                LabelRule(Interval(float("-inf"), 0, False, False), "fail"),
                LabelRule(Interval(0, float("inf"), True, False), "pass"),
            ],
        )
        result = sales_session.assess(
            """with SALES by month assess storeSales against 50000
               using difference(storeSales, 50000) labels passFail"""
        )
        assert set(result.label_counts()) <= {"pass", "fail"}


class TestResultPresentation:
    def test_label_counts(self, sales_session):
        counts = sales_session.assess(SIBLING).label_counts()
        assert sum(counts.values()) == 4

    def test_cells_sorted(self, sales_session):
        cells = sales_session.assess(SIBLING).cells()
        coordinates = [c.coordinate for c in cells]
        assert coordinates == sorted(coordinates)


class TestDeadline:
    def test_spent_deadline_stops_before_the_first_operator(self, sales_session):
        with pytest.raises(DeadlineExceeded, match="plan execution"):
            sales_session.assess(SIBLING, deadline=Deadline(0))
        with pytest.raises(DeadlineExceeded, match="plan execution"):
            sales_session.execute_many([SIBLING, SIBLING], deadline=Deadline(0))

    def test_deadline_binds_one_call_only(self, sales_session):
        with pytest.raises(DeadlineExceeded):
            sales_session.assess(SIBLING, deadline=Deadline(0))
        assert len(sales_session.assess(SIBLING, deadline=Deadline(60))) == 4
        assert len(sales_session.assess(SIBLING)) == 4

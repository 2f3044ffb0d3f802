"""Unit tests for the experiment harness (runner + reporting)."""

import struct

import pytest

from repro.experiments import (
    ExperimentRunner,
    FEASIBLE_PLANS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    render_fig3,
    render_fig4,
    render_table1,
    render_table2,
    render_table3,
    statement_text,
)
from repro.experiments.statements import INTENTIONS


@pytest.fixture(scope="module")
def runner():
    # A deliberately tiny two-rung ladder so the full pipeline stays fast.
    return ExperimentRunner(ladder={"SSB1": 8_000, "SSB10": 24_000})


class TestStatements:
    def test_four_intentions(self):
        assert INTENTIONS == ("Constant", "External", "Sibling", "Past")

    @pytest.mark.parametrize("intention", INTENTIONS)
    def test_reference_statements_parse(self, runner, intention):
        statement = runner.statement(intention, "SSB1")
        assert statement.benchmark.kind.lower().startswith(intention.lower()[:4])

    def test_statement_text_is_clean(self):
        text = statement_text("Sibling")
        assert text.startswith("with SSB")
        assert "  " not in text.splitlines()[0]

    def test_feasibility_matches_paper(self, runner):
        for intention in INTENTIONS:
            assert runner.plans_for(intention) == FEASIBLE_PLANS[intention]


class TestRunner:
    def test_sessions_cached(self, runner):
        assert runner.session("SSB1") is runner.session("SSB1")

    def test_run_once_returns_result(self, runner):
        result = runner.run_once("Sibling", "SSB1", "POP")
        assert len(result) > 0
        assert result.plan_name == "POP"

    def test_run_timed_shape(self, runner):
        out = runner.run_timed("Past", "SSB1", "NP", repetitions=2)
        assert out["seconds"] > 0
        assert out["cells"] > 0
        assert "transform" in out["breakdown"]

    def test_target_cardinalities_ordering(self, runner):
        cards = {i: runner.target_cardinality(i, "SSB1") for i in INTENTIONS}
        assert cards["Past"] < cards["Sibling"] < cards["Constant"]

    def test_cardinality_grows_with_scale(self, runner):
        for intention in INTENTIONS:
            small = runner.target_cardinality(intention, "SSB1")
            large = runner.target_cardinality(intention, "SSB10")
            assert large > small

    def test_all_plans_agree_on_reference_statements(self, runner):
        """Every feasible plan, cold and then served from the result
        cache, answers every cell with NP's float64 bit pattern and label."""

        def cells(result):
            return {
                cell.coordinate: (struct.pack("<d", cell.comparison), cell.label)
                for cell in result
            }

        cache = runner.session("SSB1").engine.result_cache
        for intention in INTENTIONS:
            reference = cells(runner.run_once(intention, "SSB1", "NP"))
            for plan in runner.plans_for(intention):
                cold = cells(runner.run_once(intention, "SSB1", plan))
                assert cold == reference, f"{intention}/{plan} cold diverges"
                cache.clear()
                cache.enabled = True
                try:
                    runner.run_once(intention, "SSB1", plan)
                    hits = cache.stats()["hits"]
                    warm = cells(runner.run_once(intention, "SSB1", plan))
                    assert cache.stats()["hits"] > hits, f"{intention}/{plan}"
                finally:
                    cache.enabled = False
                    cache.clear()
                assert warm == reference, f"{intention}/{plan} warm diverges"

    def test_table1_structure(self, runner):
        table = runner.table1()
        assert set(table) == set(INTENTIONS)
        for row in table.values():
            assert row["total"] == row["sql"] + row["python"]

    def test_fig4_covers_all_plans(self, runner):
        data = runner.fig4(repetitions=1)
        assert set(data) == {"NP", "JOP", "POP"}
        for per_scale in data.values():
            assert set(per_scale) == {"SSB1", "SSB10"}


class TestPaperReference:
    def test_tables_cover_all_intentions(self):
        for table in (PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3):
            assert set(table) == set(INTENTIONS)

    def test_paper_table3_best_never_worse_than_np(self):
        for per_scale in PAPER_TABLE3.values():
            for best, np_time in per_scale.values():
                assert best <= np_time


class TestReports:
    def test_render_table1(self, runner):
        text = render_table1(runner.table1())
        assert "Table 1" in text
        assert "HOLDS" in text

    def test_render_table2(self, runner):
        text = render_table2(runner.table2(), runner.ladder)
        assert "Table 2" in text
        assert "grows" in text

    def test_render_fig3_and_table3(self, runner):
        data = runner.fig3(repetitions=1)
        fig3_text = render_fig3(data, runner.ladder)
        assert "Figure 3" in fig3_text
        assert "plan ordering" in fig3_text
        table3_text = render_table3(runner.table3(data), runner.ladder)
        assert "Table 3" in table3_text
        assert "(0.60)" in table3_text  # paper column present

    def test_render_fig4(self, runner):
        text = render_fig4(runner.fig4(repetitions=1), runner.ladder)
        assert "Figure 4" in text
        assert "compare+label" in text

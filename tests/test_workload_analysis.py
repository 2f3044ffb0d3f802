"""Unit tests of the whole-workload static analysis (repro.analysis.flow).

The soundness of the "safe" verdicts (warm/fusable-exact/parallel-safe)
against actual execution lives in ``test_workload_soundness.py``; here we
test the scanner, the binding environment, the diagnostics, the report
surface, and the CLI/JSON plumbing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CODES,
    WORKLOAD_CODES,
    WORKLOAD_SCHEMA_VERSION,
    AnalysisContext,
    analyze_workload,
    scan_workload,
)
from repro.analysis.flow import Exactness, classify_chunk
from repro.analysis.flow.workload import directive_diagnostics
from repro.api import AssessSession
from repro.experiments.statements import prepare_engine

REPO_ROOT = Path(__file__).resolve().parent.parent
BATCH_EXAMPLE = REPO_ROOT / "examples" / "ssb_batch_workload.assess"

LABELS = "labels {[0, 0.9): low, [0.9, 1.1]: ok, (1.1, inf): high}"


def stmt(body: str) -> str:
    return f"{body} assess quantity against 100 using ratio(quantity, 100) {LABELS}"


@pytest.fixture(scope="module")
def engine():
    return prepare_engine(lineorder_rows=2000)


@pytest.fixture(scope="module")
def context(engine):
    return AnalysisContext(
        schemas=lambda name: engine.cube(name).schema, engine=engine
    )


# ---------------------------------------------------------------------------
# Catalog / codes
# ---------------------------------------------------------------------------
def test_workload_codes_in_catalog():
    assert set(WORKLOAD_CODES) == {
        "ASSESS500", "ASSESS501", "ASSESS502", "ASSESS503",
        "ASSESS504", "ASSESS505", "ASSESS506", "ASSESS507",
        "ASSESS508",
    }
    for code in WORKLOAD_CODES:
        assert code in ALL_CODES


# ---------------------------------------------------------------------------
# Scanner and directives
# ---------------------------------------------------------------------------
def test_scan_workload_classifies_chunks():
    text = """
    define labeling quartiles {[0, 0.25): q1, [0.25, inf): rest};
    materialize SSB by month, category;
    with SSB by month assess quantity against 10 using ratio(quantity, 10)
    labels {[0, 1): a, [1, inf): b};
    """
    items = scan_workload(text)
    assert [item.kind for item in items] == ["labeling", "view", "statement"]
    assert items[0].name == "quartiles"
    assert items[1].cube == "SSB"
    assert items[1].levels == ("month", "category")


def test_malformed_directive_gets_assess500():
    item = classify_chunk("materialize by nothing", 0)
    assert item.kind == "invalid"
    bag = directive_diagnostics(item)
    assert [d.code for d in bag.sorted()] == ["ASSESS500"]
    assert bag.has_errors


def test_dead_labeling_definition_warns_501(context):
    text = (
        "define labeling quartiles {[0, 0.25): q1, [0.25, inf): rest};\n"
        + stmt("with SSB by month")
    )
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS501" in codes


def test_used_labeling_is_not_dead_and_known(context):
    text = (
        "define labeling quartiles {[0, 0.25): q1, [0.25, inf): rest};\n"
        "with SSB by month assess quantity against 100 "
        "using ratio(quantity, 100) labels quartiles"
    )
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS501" not in codes
    # The directive also registers the name, so ASSESS133 stays silent.
    assert "ASSESS133" not in codes


def test_shadowed_definition_warns_502(context):
    text = (
        "define labeling quartiles {[0, 0.5): lo, [0.5, inf): hi};\n"
        "define labeling quartiles {[0, 0.25): q1, [0.25, inf): rest};\n"
        "with SSB by month assess quantity against 100 "
        "using ratio(quantity, 100) labels quartiles"
    )
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS502" in codes


def test_duplicate_statement_info_503(context):
    text = stmt("with SSB for year = '1997' by month") + ";\n" + stmt(
        "with SSB for year = '1997' by month"
    )
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS503" in codes


# ---------------------------------------------------------------------------
# Verdicts on the example workload
# ---------------------------------------------------------------------------
def test_batch_example_report(context):
    report = analyze_workload(
        BATCH_EXAMPLE.read_text(), context=context, origin="batch"
    )
    assert not report.has_errors
    assert len(report.statements) == 10

    # Roll-up derivations: 'by category' is answerable from
    # 'by month, category' (statement 2).
    targets = {edge.target for edge in report.derivations}
    assert 2 in targets  # by category <- by month, category
    for edge in report.derivations:
        assert edge.source < edge.target  # flow order

    # All ten statements share the year = '1997' scan.
    assert len(report.fusions) == 1
    fusion = report.fusions[0]
    assert fusion.statements == tuple(range(10))
    assert fusion.exact  # quantity is integral and small
    assert fusion.verdict == "fusable-exact"
    assert report.fusable_scan_keys

    # quantity sums exactly; verdict is definite, not unknown.
    assert report.exactness_of("SSB", "quantity") is Exactness.EXACT

    # Every statement gets a cardinality bound with a finite ceiling.
    assert len(report.bounds) == 10
    for bound in report.bounds:
        assert bound.cells.lo == 0.0
        assert bound.cells.hi < float("inf")
        assert bound.cost.hi < float("inf")
        assert not bound.admission_warning

    # Info diagnostics surfaced on the statements.
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS504" in codes
    assert "ASSESS505" in codes

    rendered = report.render(verbose=True)
    assert "sharing plan" in rendered
    assert "derivation edges" in rendered
    assert report.summary() in rendered


def test_inexact_measure_warns_506(context):
    text = (
        "with SSB for year = '1997' by month assess revenue against 100 "
        "using ratio(revenue, 100) " + LABELS
    )
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS506" in codes
    assert report.exactness_of("SSB", "revenue") is Exactness.INEXACT
    info = report.statements[0]
    assert info.parallel_safe is False


def test_admission_warning_507(context):
    report = analyze_workload(
        stmt("with SSB by month, part"), context=context, admission_cells=10
    )
    codes = [d.code for _, d in report.diagnostics()]
    assert "ASSESS507" in codes
    assert report.bounds[0].admission_warning


def test_materialize_directive_withholds_claims(context):
    text = (
        "materialize SSB by month, category;\n"
        + stmt("with SSB for year = '1997' by month, category")
        + ";\n"
        + stmt("with SSB for year = '1997' by category")
    )
    report = analyze_workload(text, context=context)
    # Routing may change once the view exists: no warm claims.
    assert report.derivations == []
    assert report.warm_fingerprints == set()


@pytest.mark.parametrize(
    "levels, dead",
    [
        # month × category holds an exact ancestor of the integral
        # quantity by year: the engine derives that get from it.
        ("month, category", False),
        # No get groups by, or rolls up from, the supplier region.
        ("s_region", True),
    ],
)
def test_view_is_used_when_a_get_derives_from_it(context, levels, dead):
    text = f"materialize SSB by {levels};\n" + stmt("with SSB by year")
    report = analyze_workload(text, context=context)
    codes = [d.code for _, d in report.diagnostics()]
    assert ("ASSESS501" in codes) == dead


def test_schema_less_context_still_reports():
    report = analyze_workload(
        stmt("with SSB by month") + ";\n" + "materialize by nothing",
        context=AnalysisContext(schemas=None),
    )
    assert len(report.statements) == 2
    assert report.has_errors  # the malformed directive
    assert report.derivations == []


# ---------------------------------------------------------------------------
# Report JSON schema
# ---------------------------------------------------------------------------
def test_report_json_schema(context):
    report = analyze_workload(BATCH_EXAMPLE.read_text(), context=context)
    document = report.to_json()
    json.dumps(document)  # must be serializable
    assert document["workload_schema_version"] == WORKLOAD_SCHEMA_VERSION
    assert set(document) == {
        "workload_schema_version", "origin", "statements", "derivations",
        "fusions", "exactness", "bounds", "summary",
    }
    statement = document["statements"][0]
    assert {"index", "kind", "statement", "cube", "group_by", "measures",
            "plan", "composite", "parallel_safe", "diagnostics"} <= set(statement)
    for info in document["statements"]:
        for diagnostic in info["diagnostics"]:
            assert {"code", "severity", "message", "span", "hint",
                    "source"} <= set(diagnostic)
            assert diagnostic["code"] in ALL_CODES
            assert diagnostic["severity"] in ("error", "warning", "info")


def test_session_analyze_workload(engine):
    session = AssessSession(engine)
    report = session.analyze_workload(BATCH_EXAMPLE.read_text())
    assert report.fusions and report.fusions[0].exact


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_workload_json():
    proc = run_cli(
        "lint", "--workload", "--format=json", "--cube", "ssb",
        "--rows", "2000", str(BATCH_EXAMPLE),
    )
    assert proc.returncode == 0, proc.stderr
    document = json.loads(proc.stdout)
    assert document["schema_version"] == WORKLOAD_SCHEMA_VERSION
    assert document["mode"] == "workload"
    assert len(document["workloads"]) == 1
    workload = document["workloads"][0]
    assert workload["origin"].endswith("ssb_batch_workload.assess")
    assert workload["fusions"]


def test_cli_statement_json():
    proc = run_cli(
        "lint", "--format=json", "--cube", "none", str(BATCH_EXAMPLE),
    )
    assert proc.returncode == 0, proc.stderr
    document = json.loads(proc.stdout)
    assert document["mode"] == "statement"
    assert document["schema_version"] == WORKLOAD_SCHEMA_VERSION
    assert len(document["results"]) == 10


def test_cli_workload_text():
    proc = run_cli(
        "lint", "--workload", "--cube", "ssb", "--rows", "2000",
        str(BATCH_EXAMPLE),
    )
    assert proc.returncode == 0, proc.stderr
    assert "sharing plan" in proc.stdout
    assert "fusable-exact" in proc.stdout

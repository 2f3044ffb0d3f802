"""One semantic checker: the parse path and the lint path agree.

``parse_statement`` / ``session.parse`` and ``analyze_text`` must accept
exactly the same statements, and on a reject the raised error must carry
the first error diagnostic's message and span start.  The corpus is
every statement the repository holds: the example files, the language
reference, the per-code cases of ``test_analysis_statement.py``, the five
benchmark workloads, and a set of probes over the §3.1/§4.1 rules.
"""

from __future__ import annotations

import ast
import glob
import importlib.util
import os
import re
import sys

import pytest

from repro import AssessSession
from repro.analysis import AnalysisContext, analyze_text
from repro.analysis.lint import extract_statements, statements_from_python
from repro.core.errors import ParseError, ReproError, ValidationError
from repro.experiments.statements import demo_engine
from repro.parser import parse_statement
from repro.parser.parser import bind_statement, parse_raw

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STATEMENT = re.compile(r"^\s*with\s", re.IGNORECASE)

COMPLETE = "labels {(-inf, 0.9): bad, [0.9, 1.1]: ok, (1.1, inf): good}"

PROBES = [
    # for clause
    "with SALES for nolevel = 'x' by month assess quantity labels quartiles",
    "with SALES for country = 'Italy', country = 'France' "
    "by product assess quantity labels quartiles",
    # external benchmarks
    "with SSB by year assess revenue against BUDGET.expected_revenue "
    "using difference(revenue, benchmark.expected_revenue) labels quartiles",
    "with SSB by month, category assess revenue against BUDGET.bogus "
    "using difference(revenue, benchmark.bogus) labels quartiles",
    # using clause
    f"with SALES by month assess quantity using nosuchfn(quantity) {COMPLETE}",
    f"with SALES by month assess quantity using difference(quantity) {COMPLETE}",
    f"with SALES by month assess quantity using quantity / 0 {COMPLETE}",
    f"with SALES by month assess quantity using ratio(quantity, 0) {COMPLETE}",
    f"with SALES by month assess quantity using ratio(foo.quantity, 2) {COMPLETE}",
    f"with SALES by month assess quantity using ratio(quantity, population) "
    f"{COMPLETE}",
    # labels clause
    "with SALES by month assess quantity labels ratio",
    # sibling, past and ancestor benchmarks
    "with SALES for country = 'Italy' by product "
    "assess quantity against country = 'France' labels quartiles",
    "with SALES for country = 'France' by product, country "
    "assess quantity against country = 'France' labels quartiles",
    "with SSB for c_region = 'ASIA' by c_region "
    "assess revenue against past 2 labels quartiles",
    "with SSB for c_region = 'ASIA' by year, c_region "
    "assess revenue against past 2 labels quartiles",
    "with SALES by product assess quantity against ancestor country "
    "labels quartiles",
    "with SALES by country assess quantity against ancestor city "
    "labels quartiles",
]


def _read(path):
    with open(path) as handle:
        return handle.read()


def _example_statements():
    texts = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.assess"))):
        texts.extend(extract_statements(_read(path)))
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        texts.extend(statements_from_python(_read(path)))
    return texts


def _doc_statements():
    """Code spans of the language reference that read as statements
    (the grammar's own fragments, which do not parse, included)."""
    text = _read(os.path.join(ROOT, "docs", "language.md"))
    spans = re.findall(r"`([^`\n]+)`", text)
    return [span for span in spans if _STATEMENT.match(span)]


def _analysis_test_statements():
    """Every string expression of ``test_analysis_statement.py`` that
    evaluates to a statement (concatenations with its constants too)."""
    path = os.path.join(ROOT, "tests", "test_analysis_statement.py")
    source = _read(path)
    tree = ast.parse(source)
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    names[target.id] = ast.literal_eval(
                        _substitute(node.value, names)
                    )
                except ValueError:
                    pass
    inner = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            inner.update((id(node.left), id(node.right)))
    texts = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Constant, ast.BinOp)) or id(node) in inner:
            continue
        try:
            value = ast.literal_eval(_substitute(node, names))
        except (ValueError, TypeError):
            continue
        if isinstance(value, str) and _STATEMENT.match(value):
            texts.append(value)
    return texts


def _substitute(node, names):
    """``node`` with module-level string names replaced by their values."""

    class Inline(ast.NodeTransformer):
        def visit_Name(self, name):
            if name.id in names:
                return ast.copy_location(ast.Constant(names[name.id]), name)
            return name

    return Inline().visit(ast.parse(ast.unparse(node), mode="eval")).body


def _bench_statements():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    texts = []
    for name in ("cold_scan", "warm_explore", "batch_fused", "served_small",
                 "served_wide"):
        texts.extend(workloads.build(name, 7).statements())
    return texts


# corpus -> (statements, the engines they were written for: the demo
# cubes of the CLI and the benchmark, or the test fixtures, whose BUDGET
# cube sits at another group-by)
CORPORA = {
    "examples": (_example_statements, "demo"),
    "docs": (_doc_statements, "demo"),
    "analysis_tests": (_analysis_test_statements, "fixtures"),
    "bench": (_bench_statements, "demo"),
    "probes": (lambda: list(PROBES), "fixtures"),
}


def test_corpora_are_not_empty():
    sizes = {name: len(set(build())) for name, (build, _) in CORPORA.items()}
    assert sizes["examples"] >= 10
    assert sizes["docs"] >= 1
    assert sizes["analysis_tests"] >= 30
    assert sizes["bench"] >= 50
    assert sizes["probes"] == 17


@pytest.fixture(scope="module")
def engines(sales, ssb):
    return {
        "demo": [demo_engine("sales", 2_000), demo_engine("ssb", 4_000)],
        "fixtures": [sales, ssb],
    }


def _corpus(name, engines):
    build, kind = CORPORA[name]
    sessions = [AssessSession(engine) for engine in engines[kind]]
    for text in dict.fromkeys(build()):
        yield text, _session_for(sessions, text)


def _session_for(sessions, text):
    try:
        source = parse_raw(text).source
    except ParseError:
        return sessions[0]
    for session in sessions:
        if session.engine.has_cube(source):
            return session
    return sessions[0]


def _disagreement(text, parse, context):
    """``None`` when ``parse`` and ``analyze_text`` agree on ``text``."""
    statement, bag = analyze_text(text, context)
    errors = bag.errors()
    try:
        parse(text)
    except ReproError as error:
        if not errors:
            return f"parse raised {error.args[0]!r}; lint found no error"
        first = errors[0]
        expected_class = (
            ParseError if first.code in ("ASSESS001", "ASSESS101")
            else ValidationError
        )
        start = first.span.start if first.span is not None else -1
        got = (type(error).__name__, error.args[0], error.position)
        want = (expected_class.__name__, first.message, start)
        if not isinstance(error, expected_class) or got[1:] != want[1:]:
            return f"parse raised {got}; lint's first error is {first.code} {want}"
        return None
    if errors:
        return f"parse accepted; lint rejected with {bag.codes()}"
    assert statement is not None
    return None


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_session_parse_agrees_with_analyze_text(corpus, engines):
    disagreements = []
    for text, session in _corpus(corpus, engines):
        context = AnalysisContext.for_session(session)
        found = _disagreement(text, session.parse, context)
        if found is not None:
            disagreements.append(f"{text!r}: {found}")
    assert not disagreements, "\n".join(disagreements)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_parse_statement_agrees_with_analyze_text(corpus, engines):
    disagreements = []
    for text, session in _corpus(corpus, engines):
        engine = session.engine

        def resolver(name, engine=engine):
            return engine.cube(name).schema

        found = _disagreement(
            text,
            lambda text: parse_statement(text, resolver),
            AnalysisContext(schemas=resolver),
        )
        if found is not None:
            disagreements.append(f"{text!r}: {found}")
    assert not disagreements, "\n".join(disagreements)


# Statements breaking one rule that a constructor guards: binding them
# without the passes must raise the message the passes report, because
# both run the same rule function.
GUARDED = [
    "with SALES by mnth assess quantity labels quartiles",
    "with SALES by product, type assess quantity labels quartiles",
    "with SALES by month assess bogus labels quartiles",
    "with SALES for nolevel = 'x' by month assess quantity labels quartiles",
    "with SALES for country = 'Italy' by product "
    "assess quantity against country = 'France' labels quartiles",
    "with SALES by product, country "
    "assess quantity against country = 'France' labels quartiles",
    "with SALES for country = 'France' by product, country "
    "assess quantity against country = 'France' labels quartiles",
    "with SSB for year = '1997' by year "
    "assess revenue against past 0 labels quartiles",
    "with SSB for c_region = 'ASIA' by c_region "
    "assess revenue against past 2 labels quartiles",
    "with SSB for c_region = 'ASIA' by year, c_region "
    "assess revenue against past 2 labels quartiles",
    "with SALES by product assess quantity against ancestor country "
    "labels quartiles",
    "with SALES by country assess quantity against ancestor city "
    "labels quartiles",
    "with SALES by product assess quantity against ancestor galaxy "
    "labels quartiles",
    "with SALES by month assess quantity labels {[5, 2]: bad}",
    "with SALES by month assess quantity labels {[0, 2]: a, [1, 3]: b}",
]


@pytest.mark.parametrize("text", GUARDED)
def test_constructor_guards_raise_the_passes_message(text, sales, ssb):
    engine = sales if "SALES" in text else ssb
    context = AnalysisContext.for_engines([engine])
    _, bag = analyze_text(text, context)
    (finding,) = bag.errors()
    schema = engine.cube(parse_raw(text).source).schema
    with pytest.raises(ReproError) as raised:
        bind_statement(parse_raw(text), schema)
    assert raised.value.args[0] == finding.message

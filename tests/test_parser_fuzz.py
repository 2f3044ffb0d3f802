"""Seeded parser fuzzing: diagnostics, never unstructured exceptions.

A token-mutation fuzzer over the ``examples/*.assess`` corpus (plus the
bundled experiment statements): every mutated text is fed to
``analyze_text``, which must either return a statement or a
:class:`DiagnosticBag` whose error entries all carry an ``ASSESSxxx`` code
and a span inside the source text — and must **never** raise — and to
``parse_statement``, which must raise nothing but the first of those
errors as a positioned :class:`~repro.core.errors.ReproError`.

The original fuzz campaign (seed 20260806, 6000 mutants) surfaced one
defect, pinned below: unexpected-EOF parse errors produced a diagnostic
span of ``[len(text), len(text) + 1)`` — one character *past* the end of
the source (``Span.from_text`` now clamps; see
``src/repro/core/diagnostics.py``).
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pytest

from repro.analysis import AnalysisContext, analyze_text, extract_statements
from repro.core.errors import ReproError
from repro.datagen import sales_engine
from repro.experiments.statements import STATEMENTS, prepare_engine
from repro.parser.parser import parse_statement

CODE_RE = re.compile(r"ASSESS\d{3}")

TOKEN_RE = re.compile(r"\s+|[A-Za-z_][A-Za-z0-9_.]*|'[^']*'|-?\d+(?:\.\d+)?|.")

# Mutation vocabulary: keywords, punctuation, literals, and hostile
# fragments (unterminated strings, control chars, non-ASCII).
POOL = (
    "with", "by", "assess", "assess*", "against", "using", "labels", "for",
    "past", "(", ")", "{", "}", "[", "]", ",", ":", ";", "=", "'", "'''",
    "inf", "-inf", "0.5", "42", "zzz", "BUDGET.", "benchmark.", "\x00", "π",
    "'unterminated", "]]", "{{", "))",
)


@pytest.fixture(scope="module")
def resolver():
    schemas = {}
    for engine in (sales_engine(n_rows=200), prepare_engine(200)):
        for name in engine.cube_names():
            schemas[name] = engine.cube(name).schema
    return lambda name: schemas[name]


@pytest.fixture(scope="module")
def corpus():
    statements = []
    pattern = os.path.join(os.path.dirname(__file__), "..", "examples", "*.assess")
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            statements.extend(extract_statements(handle.read()))
    statements.extend(text.strip() for text in STATEMENTS.values())
    assert len(statements) >= 10  # the corpus must not silently vanish
    return statements


def _mutate(rng, text: str) -> str:
    tokens = TOKEN_RE.findall(text)
    n = len(tokens)
    kind = int(rng.integers(0, 6))
    if kind == 0 and n:
        del tokens[int(rng.integers(0, n))]
    elif kind == 1 and n:
        tokens.insert(int(rng.integers(0, n)), POOL[int(rng.integers(0, len(POOL)))])
    elif kind == 2 and n:
        tokens[int(rng.integers(0, n))] = POOL[int(rng.integers(0, len(POOL)))]
    elif kind == 3 and n > 1:
        i = int(rng.integers(0, n - 1))
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif kind == 4:
        return text[: int(rng.integers(0, len(text) + 1))]
    else:
        i = int(rng.integers(0, n)) if n else 0
        tokens = tokens[:i] + [POOL[int(rng.integers(0, len(POOL)))]] + tokens[i:]
    return "".join(tokens)


def _assert_structured(text: str, resolver) -> None:
    """The fuzzing invariant for one input text."""
    try:
        statement, bag = analyze_text(text, AnalysisContext(schemas=resolver))
    except Exception as error:  # noqa: BLE001 - the invariant under test
        pytest.fail(
            f"analyze_text raised {type(error).__name__}: {error!r} "
            f"on input {text!r}"
        )
    try:
        parse_statement(text, resolver)
    except ReproError as error:
        first = bag.errors()[0]
        assert (error.args[0], error.position) == (first.message, first.span.start)
    except Exception as error:  # noqa: BLE001 - the invariant under test
        pytest.fail(
            f"parse_statement raised {type(error).__name__}: {error!r} "
            f"on input {text!r}"
        )
    if statement is None:
        errors = bag.errors()
        assert errors, f"no statement and no error diagnostic for {text!r}"
        for diagnostic in errors:
            assert CODE_RE.fullmatch(diagnostic.code), (diagnostic.code, text)
            span = diagnostic.span
            assert span is not None, (diagnostic.code, text)
            assert 0 <= span.start <= span.end <= len(text), (
                diagnostic.code, span.start, span.end, len(text), text,
            )
            assert span.line >= 1 and span.column >= 1


@pytest.mark.parametrize("seed", (20260806, 1, 2, 3))
def test_token_mutation_fuzz(resolver, corpus, seed):
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        text = corpus[int(rng.integers(0, len(corpus)))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate(rng, text)
        _assert_structured(text, resolver)


# ----------------------------------------------------------------------
# Pinned crashers (fuzzer-found): spans must stay inside the text
# ----------------------------------------------------------------------
EOF_SPAN_CRASHERS = (
    # Truncation mid-clause: the parser hits EOF wanting more tokens and
    # used to report a span one character past the end of the source.
    "with SSB for year = '1997' ",
    "with SSB by month, part\nassess revenue against BUDGET.expected",
    "with SSB for year = '1997' by month\nassess quant",
    "with SSB by date, customer\n        assess revenue against 50000\n"
    "        using ratio(revenue, 50000)\n        labels {[",
    "with SSB for year = '1997', mfgr = 'MFGR#1' by ca",
)


@pytest.mark.parametrize("text", EOF_SPAN_CRASHERS)
def test_pinned_eof_span_regressions(resolver, text):
    _assert_structured(text, resolver)
    _, bag = analyze_text(text, AnalysisContext(schemas=resolver))
    assert any(d.span.end <= len(text) for d in bag.errors())


@pytest.mark.parametrize(
    "text",
    (
        "",
        " ",
        "with",
        "with NOPE by x assess y labels quartiles",
        "labels labels labels",
        "with SSB by month assess quantity against 'unterminated",
        "with SSB by month assess quantity \x00 labels quartiles",
    ),
)
def test_degenerate_inputs_stay_structured(resolver, text):
    _assert_structured(text, resolver)

"""Unit tests for the statement tokenizer and parser (Section 4.1 syntax)."""

import glob
import importlib.util
import os
import sys

import numpy as np
import pytest

from repro.analysis import extract_statements
from repro.api import AssessSession
from repro.core import (
    AncestorBenchmark,
    ConstantBenchmark,
    ExternalBenchmark,
    NamedLabeling,
    ParseError,
    PastBenchmark,
    PredicateOp,
    RangeLabeling,
    SiblingBenchmark,
    ZeroBenchmark,
)
from repro.datagen import budget_schema, sales_engine, sales_schema
from repro.experiments.statements import STATEMENTS
from repro.parser import TokenType, parse_statement, tokenize

from . import tokenizer_oracle
from .test_parser_fuzz import _mutate

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture(scope="module")
def schemas():
    return {"SALES": sales_schema(), "BUDGET": budget_schema()}


class TestTokenizer:
    def test_keywords_are_idents(self):
        tokens = tokenize("with SALES by month")
        assert [t.type for t in tokens] == [TokenType.IDENT] * 4 + [TokenType.END]

    def test_string_literal(self):
        tokens = tokenize("'Fresh Fruit'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "Fresh Fruit"

    def test_escaped_quote(self):
        tokens = tokenize("'O''Brien'")
        assert tokens[0].value == "O'Brien"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("0.9 1000")
        assert tokens[0].value == "0.9"
        assert tokens[1].value == "1000"

    def test_punctuation(self):
        tokens = tokenize("{[0, 0.9): bad}")
        types = [t.type for t in tokens[:-1]]
        assert types == [
            TokenType.LBRACE, TokenType.LBRACKET, TokenType.NUMBER,
            TokenType.COMMA, TokenType.NUMBER, TokenType.RPAREN,
            TokenType.COLON, TokenType.IDENT, TokenType.RBRACE,
        ]

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("with SALES @ by")

    def test_hash_in_identifiers(self):
        tokens = tokenize("MFGR#12")
        assert tokens[0].value == "MFGR#12"

    def test_trailing_whitespace_scans_in_linear_time(self):
        # Each trailing position of a search used to rescan to the end.
        tokens = tokenize("with" + " " * 200_000)
        assert [t.type for t in tokens] == [TokenType.IDENT, TokenType.END]
        assert tokens[-1].position == 200_004


# ----------------------------------------------------------------------
# A digit str.isdigit accepts but float does not (superscripts, circled
# digits) is an unexpected character, not a NUMBER float() rejects.
# ----------------------------------------------------------------------
SUPERSCRIPT_STATEMENT = (
    "with SALES by month assess storeSales against 10² labels quartiles"
)


class TestNonDecimalDigits:
    def test_parse_raises_parse_error_at_the_digit(self, schemas):
        with pytest.raises(ParseError) as excinfo:
            parse_statement(SUPERSCRIPT_STATEMENT, schemas)
        assert excinfo.value.args[0] == "unexpected character '²'"
        assert excinfo.value.position == SUPERSCRIPT_STATEMENT.index("²")

    def test_analyze_reports_assess001_with_its_span(self):
        session = AssessSession(sales_engine(n_rows=200))
        bag = session.analyze(SUPERSCRIPT_STATEMENT)
        (diagnostic,) = bag.errors()
        assert diagnostic.code == "ASSESS001"
        assert diagnostic.message == "unexpected character '²'"
        offset = SUPERSCRIPT_STATEMENT.index("²")
        assert (diagnostic.span.start, diagnostic.span.end) == (offset, offset + 1)
        assert (diagnostic.span.line, diagnostic.span.column) == (1, offset + 1)

    @pytest.mark.parametrize("text", ["²", "x ③ y", "፩", "1²3", "0.5¹", "1².5"])
    def test_the_one_difference_from_the_oracle(self, text):
        # The character loop emitted a NUMBER that float() then rejected.
        digit = next(i for i, char in enumerate(text)
                     if char.isdigit() and not char.isdecimal())
        (number,) = _non_decimal_numbers(tokenizer_oracle.tokenize(text))
        with pytest.raises(ValueError):
            float(number.value)
        with pytest.raises(ParseError) as excinfo:
            tokenize(text)
        assert excinfo.value.args[0] == f"unexpected character {text[digit]!r}"
        assert excinfo.value.position == digit

    def test_arabic_indic_digits_are_numbers(self):
        tokens = tokenize("١٢ ٣.٥ ۴")
        assert [t.type for t in tokens[:-1]] == [TokenType.NUMBER] * 3
        assert [float(t.value) for t in tokens[:-1]] == [12.0, 3.5, 4.0]


# ----------------------------------------------------------------------
# Differential: the compiled-pattern tokenizer against the character loop
# ----------------------------------------------------------------------
HAND_WRITTEN = (
    "with SALES for product = 'multi\nline\n  literal' by month\n"
    "assess quantity labels quartiles",
    "'O''Brien' '''' '' 'a''''b'",
    "'a'''b'",
    "MFGR#12 MFGR#1 #x",
    "1. 1..5 .5 1.2.3 007 1.",
    "'unterminated",
    "with 'a''",
    "\twith\tSALES\r\nby month\r\n\r\nassess\x0bquantity\x0c labels q\r\n",
    "with VENTES for pays = 'Česko' by région assess quantité labels q",
    "αβγ ñandú _x straße ǅ ﬁ",
    "against ١٢٣ ٤.٥ ۱۲ x٣",
    "a²b x½ y①",
    "against 10² labels",
    "½x",
    "a @ b",
    "a b c　d",
    "",
    "   ",
    "\n\n",
    "x\n",
    "x\n  \n",
    "{[-inf, 0.9): bad, [0.9, 1.1]: ok, (1.1, inf): ***}",
    "ratio(quantity, benchmark.quantity) * -2 / (a + b)",
)


def _outcome(tokenize_fn, text):
    try:
        return tuple(tokenize_fn(text))
    except ParseError as error:
        return ("ParseError", error.args[0], error.position)


def _non_decimal_numbers(tokens):
    return [token for token in tokens
            if getattr(token, "type", None) is TokenType.NUMBER
            and not token.value.replace(".", "").isdecimal()]


def _assert_same_tokens(texts):
    """Identical tokens, or identical error message and position — except
    where the oracle made a NUMBER of a non-decimal digit: there the
    tokenizer reports that digit as an unexpected character instead."""
    differences = 0
    for text in texts:
        expected = _outcome(tokenizer_oracle.tokenize, text)
        bad = _non_decimal_numbers(expected)
        if bad:
            offset = bad[0].position + next(
                i for i, char in enumerate(bad[0].value)
                if char != "." and not char.isdecimal()
            )
            expected = ("ParseError", f"unexpected character {text[offset]!r}", offset)
            differences += 1
        assert _outcome(tokenize, text) == expected, text
    return differences


def _bench_statements():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    texts = []
    for name in ("cold_scan", "warm_explore", "batch_fused", "served_small",
                 "served_wide"):
        for seed in (7, 8, 9):
            texts.extend(workloads.build(name, seed).statements())
    return texts


def _example_statements():
    texts = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.assess"))):
        with open(path) as handle:
            texts.extend(extract_statements(handle.read()))
    return texts


class TestTokenizerMatchesTheCharacterLoop:
    def test_hand_written(self):
        assert _assert_same_tokens(HAND_WRITTEN) == 1  # "10²"

    def test_bench_workload_statements(self):
        texts = _bench_statements()
        assert len(texts) >= 500
        assert _assert_same_tokens(texts) == 0

    def test_example_statements(self):
        texts = _example_statements()
        assert len(texts) >= 10
        assert _assert_same_tokens(texts) == 0

    @pytest.mark.parametrize("seed", (20260806, 1, 2, 3))
    def test_fuzz_mutants(self, seed):
        corpus = _example_statements() + [t.strip() for t in STATEMENTS.values()]
        rng = np.random.default_rng(seed)
        mutants = []
        for _ in range(1000):
            text = corpus[int(rng.integers(0, len(corpus)))]
            for _ in range(int(rng.integers(1, 4))):
                text = _mutate(rng, text)
            mutants.append(text)
        assert _assert_same_tokens(mutants) == 0


class TestStatementParsing:
    def test_example_1_1(self, schemas):
        statement = parse_statement(
            """
            with SALES
            for year = '1997', product = 'milk'
            by year, product
            assess quantity against 1000
            using ratio(quantity, 1000)
            labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf): good}
            """,
            schemas,
        )
        assert statement.source == "SALES"
        assert statement.measure == "quantity"
        assert isinstance(statement.benchmark, ConstantBenchmark)
        assert statement.benchmark.value == 1000.0
        assert statement.group_by.levels == ("year", "product")
        assert isinstance(statement.labels, RangeLabeling)
        assert statement.labels.labels == ("bad", "acceptable", "good")

    def test_minimal_statement(self, schemas):
        statement = parse_statement(
            "with SALES by month assess storeSales labels quartiles", schemas
        )
        assert isinstance(statement.benchmark, ZeroBenchmark)
        assert isinstance(statement.labels, NamedLabeling)
        assert statement.predicates == ()

    def test_sibling_against(self, schemas):
        statement = parse_statement(
            """with SALES for country = 'Italy' by product, country
               assess quantity against country = 'France' labels quartiles""",
            schemas,
        )
        assert isinstance(statement.benchmark, SiblingBenchmark)
        assert statement.benchmark.level == "country"
        assert statement.benchmark.sibling == "France"

    def test_past_against(self, schemas):
        statement = parse_statement(
            """with SALES for month = '1997-07' by month
               assess storeSales against past 4 labels quartiles""",
            schemas,
        )
        assert isinstance(statement.benchmark, PastBenchmark)
        assert statement.benchmark.k == 4

    def test_external_against(self, schemas):
        statement = parse_statement(
            """with SALES by month, category
               assess storeSales against BUDGET.expected_revenue labels quartiles""",
            schemas,
        )
        assert isinstance(statement.benchmark, ExternalBenchmark)
        assert statement.benchmark.cube == "BUDGET"
        assert statement.benchmark.measure_name == "expected_revenue"

    def test_ancestor_against(self, schemas):
        statement = parse_statement(
            """with SALES by product assess quantity against ancestor type
               labels quartiles""",
            schemas,
        )
        assert isinstance(statement.benchmark, AncestorBenchmark)
        assert statement.benchmark.level == "product"
        assert statement.benchmark.ancestor_level == "type"

    def test_assess_star(self, schemas):
        statement = parse_statement(
            "with SALES by month assess* storeSales labels quartiles", schemas
        )
        assert statement.star

    def test_in_predicate(self, schemas):
        statement = parse_statement(
            """with SALES for country in ('Italy', 'France') by country
               assess quantity labels quartiles""",
            schemas,
        )
        assert statement.predicates[0].op is PredicateOp.IN
        assert statement.predicates[0].member_set() == frozenset({"Italy", "France"})

    def test_between_predicate(self, schemas):
        statement = parse_statement(
            """with SALES for month between '1997-03' and '1997-06' by month
               assess quantity labels quartiles""",
            schemas,
        )
        assert statement.predicates[0].op is PredicateOp.RANGE

    def test_keywords_case_insensitive(self, schemas):
        statement = parse_statement(
            "WITH SALES BY month ASSESS storeSales LABELS quartiles", schemas
        )
        assert statement.measure == "storeSales"

    def test_star_labels(self, schemas):
        statement = parse_statement(
            """with SALES by month assess storeSales
               labels {[-1, 0]: *, (0, 0.5]: ***, (0.5, 1]: *****}""",
            schemas,
        )
        assert statement.labels.labels == ("*", "***", "*****")

    def test_trailing_comma_in_ranges_tolerated(self, schemas):
        statement = parse_statement(
            """with SALES by month assess storeSales
               labels {[-inf, 0): low, [0, inf): high,}""",
            schemas,
        )
        assert statement.labels.labels == ("low", "high")

    def test_using_expression_arithmetic(self, schemas):
        statement = parse_statement(
            """with SALES by month assess storeSales
               using (storeSales - storeCost) / storeSales labels quartiles""",
            schemas,
        )
        assert statement.using.render() == "((storeSales - storeCost) / storeSales)"

    def test_using_negative_literal(self, schemas):
        statement = parse_statement(
            """with SALES by month assess storeSales
               using difference(storeSales, -5) labels quartiles""",
            schemas,
        )
        assert "(0 - 5)" in statement.using.render()


class TestParseErrors:
    def test_unknown_cube(self, schemas):
        with pytest.raises(ParseError):
            parse_statement("with NOPE by month assess m labels quartiles", schemas)

    def test_missing_by(self, schemas):
        with pytest.raises(ParseError):
            parse_statement("with SALES assess storeSales labels quartiles", schemas)

    def test_missing_labels(self, schemas):
        with pytest.raises(ParseError):
            parse_statement("with SALES by month assess storeSales", schemas)

    def test_trailing_garbage(self, schemas):
        with pytest.raises(ParseError):
            parse_statement(
                "with SALES by month assess storeSales labels quartiles extra",
                schemas,
            )

    def test_bad_against(self, schemas):
        with pytest.raises(ParseError):
            parse_statement(
                "with SALES by month assess storeSales against labels quartiles",
                schemas,
            )

    def test_overlapping_ranges_rejected(self, schemas):
        from repro.core import ValidationError

        with pytest.raises(ValidationError):
            parse_statement(
                """with SALES by month assess storeSales
                   labels {[0, 2]: a, [1, 3]: b}""",
                schemas,
            )

    def test_error_carries_position(self, schemas):
        try:
            parse_statement("with SALES by month assess ,", schemas)
        except ParseError as error:
            assert error.position >= 0
        else:  # pragma: no cover
            pytest.fail("expected a ParseError")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "with SALES by month assess storeSales labels quartiles",
            """with SALES for type = 'Fresh Fruit', country = 'Italy'
               by product, country assess quantity against country = 'France'
               using percOfTotal(difference(quantity, benchmark.quantity), quantity)
               labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf): good}""",
            """with SALES for month = '1997-07', store = 'SmartMart'
               by month, store assess storeSales against past 4
               using ratio(storeSales, benchmark.storeSales)
               labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}""",
        ],
    )
    def test_render_then_parse_is_stable(self, schemas, text):
        first = parse_statement(text, schemas)
        second = parse_statement(first.render(), schemas)
        assert second.render() == first.render()
        assert second.group_by == first.group_by
        assert type(second.benchmark) is type(first.benchmark)

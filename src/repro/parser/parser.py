"""Recursive-descent parser for assess statements (Section 4.1).

Grammar (keywords case-insensitive)::

    statement   := "with" IDENT [forClause] byClause assessClause
                   [againstClause] [usingClause] labelsClause
    forClause   := "for" predicate ("," predicate)*
    predicate   := level "=" value
                 | level "in" "(" value ("," value)* ")"
                 | level "between" value "and" value
    byClause    := "by" level ("," level)*
    assessClause:= "assess" ["*"] measure
    againstClause := "against" ( NUMBER                       -- constant
                               | "past" NUMBER                -- past
                               | "ancestor" level             -- ancestor (ext.)
                               | cube "." measure             -- external
                               | level "=" value )            -- sibling
    usingClause := "using" expression
    expression  := term (("+"|"-") term)*
    term        := factor (("*"|"/") factor)*
    factor      := NUMBER | ["-"] factor | ref | call | "(" expression ")"
    call        := IDENT "(" [expression ("," expression)*] ")"
    ref         := IDENT ["." IDENT]          -- e.g. benchmark.quantity
    labelsClause:= "labels" (IDENT | rangeSet)
    rangeSet    := "{" range ":" label ("," range ":" label)* "}"
    range       := ("["|"(") bound "," bound ("]"|")")
    bound       := ["-"] (NUMBER | "inf")
    label       := IDENT | STRING | "*"+

Parsing runs in two stages (see :mod:`repro.parser.raw`):

* :func:`parse_raw` — purely syntactic; produces a span-carrying
  :class:`~repro.parser.raw.RawStatement` and raises only
  :class:`~repro.core.errors.ParseError`;
* :func:`bind_statement` — resolves the ``with`` cube against a schema
  mapping and builds the fully validated
  :class:`~repro.core.statement.AssessStatement`, raising on the first
  semantic defect with the offending clause's source position attached.

:func:`parse_statement` composes the two (the classic single-error
contract); with ``collect_diagnostics=True`` it instead runs the static
analyzer over the raw form and returns *every* defect at once.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Tuple, Union

from ..core.diagnostics import Span
from ..core.errors import ParseError, ReproError
from ..core.expression import BinaryOp, Expression, FunctionCall, Literal, MeasureRef
from ..core.groupby import GroupBySet
from ..core.labels import (
    Interval,
    LabelRule,
    LabelingSpec,
    NamedLabeling,
    RangeLabeling,
)
from ..core.query import Predicate
from ..core.schema import CubeSchema
from ..core.statement import (
    AncestorBenchmark,
    AssessStatement,
    BenchmarkSpec,
    ConstantBenchmark,
    ExternalBenchmark,
    PastBenchmark,
    SiblingBenchmark,
)
from .raw import RawBenchmark, RawLabelRule, RawLabels, RawPredicate, RawStatement
from .tokenizer import Token, TokenType, tokenize

SchemaResolver = Union[Mapping[str, CubeSchema], Callable[[str], CubeSchema]]

# Token types as module globals: on CPython 3.11 reading ``TokenType.COMMA``
# costs about four global reads, and the parser tests a type on every token.
IDENT, NUMBER, STRING = TokenType.IDENT, TokenType.NUMBER, TokenType.STRING
COMMA, COLON, DOT = TokenType.COMMA, TokenType.COLON, TokenType.DOT
EQUALS, END = TokenType.EQUALS, TokenType.END
LPAREN, RPAREN = TokenType.LPAREN, TokenType.RPAREN
LBRACE, RBRACE = TokenType.LBRACE, TokenType.RBRACE
LBRACKET, RBRACKET = TokenType.LBRACKET, TokenType.RBRACKET
PLUS, MINUS = TokenType.PLUS, TokenType.MINUS
STAR, SLASH = TokenType.STAR, TokenType.SLASH


def parse_statement(
    text: str,
    schemas: SchemaResolver,
    collect_diagnostics: bool = False,
):
    """Parse statement text into a validated :class:`AssessStatement`.

    ``schemas`` maps cube names to their schemas (a dict, or any callable
    returning a schema for a name — e.g. ``lambda n: engine.cube(n).schema``).

    With ``collect_diagnostics=True`` the call never raises on statement
    defects: it returns ``(statement_or_None, DiagnosticBag)`` where the bag
    holds *every* finding of the static analyzer (not just the first), and
    the statement is ``None`` whenever an error-severity diagnostic exists.
    """
    if not collect_diagnostics:
        return bind_statement(parse_raw(text), schemas)

    from ..analysis import analyze_raw_statement
    from ..core.diagnostics import Diagnostic, DiagnosticBag, Severity

    try:
        raw = parse_raw(text)
    except ParseError as error:
        span = (
            Span.from_text(text, error.position)
            if error.position >= 0
            else None
        )
        bag = DiagnosticBag(
            [Diagnostic("ASSESS001", Severity.ERROR, error.args[0], span, source="parse")]
        )
        return None, bag

    bag = analyze_raw_statement(raw, schemas)
    if bag.has_errors:
        return None, bag
    try:
        return bind_statement(raw, schemas), bag
    except ReproError as error:
        span = (
            Span.from_text(text, error.position)
            if error.position >= 0
            else None
        )
        bag.report("ASSESS002", Severity.ERROR, error.args[0], span, source="bind")
        return None, bag


def parse_raw(text: str) -> RawStatement:
    """The syntactic stage alone: text → :class:`RawStatement`."""
    return _Parser(text).parse_raw()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        self.token = self.tokens[0]  # the current token; END stays current

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _advance(self) -> Token:
        token = self.token
        if token.type is not END:
            self.position += 1
            self.token = self.tokens[self.position]
        return token

    def _expect(self, token_type: TokenType, what: str) -> Token:
        token = self.token
        if token.type is not token_type:
            raise self._error(f"expected {what}, found {token.value!r}")
        return self._advance()

    def _word(self) -> str:
        """The current token lowercased for keyword tests ("" if no IDENT)."""
        token = self.token
        return token.value.lower() if token.type is IDENT else ""

    def _expect_keyword(self, keyword: str) -> Token:
        if self._word() != keyword:
            raise self._error(
                f"expected keyword {keyword!r}, found {self.token.value!r}"
            )
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        if self._word() == keyword:
            self._advance()
            return True
        return False

    def _error(self, message: str) -> ParseError:
        return ParseError(message, position=self.token.position, text=self.text)

    def _span_from(self, start_token: Token) -> Span:
        """Span from a token's start to the end of the previous token."""
        return Span(start_token.position, self.tokens[self.position - 1].end,
                    start_token.line, start_token.column)

    # ------------------------------------------------------------------
    # Statement (syntactic stage)
    # ------------------------------------------------------------------
    def parse_raw(self) -> RawStatement:
        self._expect_keyword("with")
        source_token = self._expect(IDENT, "a cube name")

        predicates: List[RawPredicate] = []
        if self._accept_keyword("for"):
            predicates.append(self._parse_predicate())
            while self.token.type is COMMA:
                self._advance()
                predicates.append(self._parse_predicate())

        self._expect_keyword("by")
        level_token = self._expect(IDENT, "a level name")
        levels: List[Tuple[str, Span]] = [(level_token.value, level_token.span)]
        while self.token.type is COMMA:
            self._advance()
            level_token = self._expect(IDENT, "a level name")
            levels.append((level_token.value, level_token.span))

        self._expect_keyword("assess")
        star = False
        if self.token.type is STAR:
            self._advance()
            star = True
        measure_token = self._expect(IDENT, "a measure name")

        raw = RawStatement(
            text=self.text,
            source=source_token.value,
            source_span=source_token.span,
            levels=levels,
            star=star,
            measure=measure_token.value,
            measure_span=measure_token.span,
            predicates=predicates,
        )

        if self._accept_keyword("against"):
            raw.benchmark = self._parse_against()

        if self._word() == "using":
            using_start = self._advance()
            raw.using = self._parse_expression(raw)
            raw.using_span = self._span_from(using_start)

        self._expect_keyword("labels")
        raw.labels = self._parse_labels()

        end = self.token
        if end.type is not END:
            raise self._error(f"unexpected trailing input {end.value!r}")
        return raw

    # ------------------------------------------------------------------
    # for clause
    # ------------------------------------------------------------------
    def _parse_predicate(self) -> RawPredicate:
        level_token = self._expect(IDENT, "a level name")
        level = level_token.value
        word = self._word()
        if self.token.type is EQUALS:
            self._advance()
            values: Tuple = (self._parse_value(),)
            op = "="
        elif word == "in":
            self._advance()
            self._expect(LPAREN, "'('")
            members = [self._parse_value()]
            while self.token.type is COMMA:
                self._advance()
                members.append(self._parse_value())
            self._expect(RPAREN, "')'")
            values = tuple(members)
            op = "in"
        elif word == "between":
            self._advance()
            low = self._parse_value()
            self._expect_keyword("and")
            high = self._parse_value()
            values = (low, high)
            op = "between"
        else:
            raise self._error(f"expected '=', 'in' or 'between' after level {level!r}")
        return RawPredicate(
            level, op, values, self._span_from(level_token), level_token.span
        )

    def _parse_value(self):
        token = self.token
        if token.type is STRING:
            return self._advance().value
        if token.type is NUMBER:
            return float(self._advance().value)
        if token.type is IDENT:
            return self._advance().value
        raise self._error(f"expected a value, found {token.value!r}")

    # ------------------------------------------------------------------
    # against clause
    # ------------------------------------------------------------------
    def _parse_against(self) -> RawBenchmark:
        token = self.token
        if token.type is NUMBER:
            self._advance()
            return RawBenchmark("constant", token.span, value=float(token.value))
        word = self._word()
        if word == "past":
            start = self._advance()
            count = self._expect(NUMBER, "the past window length")
            return RawBenchmark(
                "past", self._span_from(start), k=int(float(count.value))
            )
        if word == "ancestor":
            start = self._advance()
            # The slice level of the ancestor comparison is recovered at
            # binding time from the group-by set; the syntax names only
            # the ancestor level (e.g. "against ancestor type").
            ancestor = self._expect(IDENT, "an ancestor level")
            return RawBenchmark(
                "ancestor", self._span_from(start), ancestor_level=ancestor.value
            )
        if token.type is IDENT:
            start = self._advance()
            follow = self.token
            if follow.type is DOT:
                self._advance()
                measure = self._expect(IDENT, "a measure name")
                return RawBenchmark(
                    "external",
                    self._span_from(start),
                    cube=start.value,
                    measure=measure.value,
                )
            if follow.type is EQUALS:
                self._advance()
                member = self._parse_value()
                return RawBenchmark(
                    "sibling", self._span_from(start), level=start.value, member=member
                )
            raise self._error(
                "expected '.' (external benchmark) or '=' (sibling benchmark)"
            )
        raise self._error(f"cannot parse against clause at {token.value!r}")

    # ------------------------------------------------------------------
    # using clause — expression grammar
    # ------------------------------------------------------------------
    def _parse_expression(self, raw: RawStatement) -> Expression:
        start = self.token
        left = self._parse_term(raw)
        while self.token.type in (PLUS, MINUS):
            op = self._advance().value
            right = self._parse_term(raw)
            left = BinaryOp(op, left, right)
            raw.expr_spans[id(left)] = self._span_from(start)
        return left

    def _parse_term(self, raw: RawStatement) -> Expression:
        start = self.token
        left = self._parse_factor(raw)
        while self.token.type in (STAR, SLASH):
            op = self._advance().value
            right = self._parse_factor(raw)
            left = BinaryOp(op, left, right)
            raw.expr_spans[id(left)] = self._span_from(start)
        return left

    def _parse_factor(self, raw: RawStatement) -> Expression:
        token = self.token
        if token.type is MINUS:
            self._advance()
            inner = self._parse_factor(raw)
            node: Expression = BinaryOp("-", Literal(0.0), inner)
            raw.expr_spans[id(node)] = self._span_from(token)
            return node
        if token.type is NUMBER:
            self._advance()
            node = Literal(float(token.value))
            raw.expr_spans[id(node)] = token.span
            return node
        if token.type is LPAREN:
            self._advance()
            inner = self._parse_expression(raw)
            self._expect(RPAREN, "')'")
            return inner
        if token.type is IDENT:
            self._advance()
            follow = self.token
            if follow.type is LPAREN:
                self._advance()
                args: List[Expression] = []
                if self.token.type is not RPAREN:
                    args.append(self._parse_expression(raw))
                    while self.token.type is COMMA:
                        self._advance()
                        args.append(self._parse_expression(raw))
                self._expect(RPAREN, "')'")
                node = FunctionCall(token.value, args)
                raw.expr_spans[id(node)] = self._span_from(token)
                return node
            if follow.type is DOT:
                self._advance()
                measure = self._expect(IDENT, "a measure name")
                node = MeasureRef(measure.value, qualifier=token.value)
                raw.expr_spans[id(node)] = token.span.merge(measure.span)
                return node
            node = MeasureRef(token.value)
            raw.expr_spans[id(node)] = token.span
            return node
        raise self._error(f"cannot parse expression at {token.value!r}")

    # ------------------------------------------------------------------
    # labels clause
    # ------------------------------------------------------------------
    def _parse_labels(self) -> RawLabels:
        token = self.token
        if token.type is LBRACE:
            return self._parse_range_set()
        if token.type is IDENT:
            self._advance()
            return RawLabels("named", token.span, name=token.value)
        raise self._error(
            "expected a labeling function name or an inline range set"
        )

    def _parse_range_set(self) -> RawLabels:
        open_token = self._expect(LBRACE, "'{'")
        rules = [self._parse_rule()]
        while self.token.type is COMMA:
            self._advance()
            # Tolerate a trailing comma before the closing brace (the
            # paper's own examples end the set with one).
            if self.token.type is RBRACE:
                break
            rules.append(self._parse_rule())
        self._expect(RBRACE, "'}'")
        return RawLabels("ranges", self._span_from(open_token), rules=rules)

    def _parse_rule(self) -> RawLabelRule:
        open_token = self.token
        if open_token.type is LBRACKET:
            low_closed = True
        elif open_token.type is LPAREN:
            low_closed = False
        else:
            raise self._error("expected '[' or '(' to open a label range")
        self._advance()
        low = self._parse_bound()
        self._expect(COMMA, "','")
        high = self._parse_bound()
        close_token = self.token
        if close_token.type is RBRACKET:
            high_closed = True
        elif close_token.type is RPAREN:
            high_closed = False
        else:
            raise self._error("expected ']' or ')' to close a label range")
        self._advance()
        self._expect(COLON, "':'")
        label = self._parse_label()
        return RawLabelRule(
            low, high, low_closed, high_closed, label, self._span_from(open_token)
        )

    def _parse_bound(self) -> float:
        sign = 1.0
        if self.token.type is MINUS:
            self._advance()
            sign = -1.0
        token = self.token
        if token.type is NUMBER:
            return sign * float(self._advance().value)
        if self._word() == "inf":
            self._advance()
            return sign * float("inf")
        raise self._error(f"expected a numeric bound, found {token.value!r}")

    def _parse_label(self) -> str:
        token = self.token
        if token.type is STRING:
            return self._advance().value
        if token.type is IDENT:
            return self._advance().value
        if token.type is STAR:
            stars = 0
            while self.token.type is STAR:
                self._advance()
                stars += 1
            return "*" * stars
        raise self._error(f"expected a label, found {token.value!r}")


# ----------------------------------------------------------------------
# Binding stage: RawStatement -> validated AssessStatement
# ----------------------------------------------------------------------
def resolve_schema(
    schemas: SchemaResolver, cube_name: str
) -> CubeSchema:
    """Resolve a cube name; raises ``KeyError`` for unknown mapping keys."""
    if callable(schemas):
        return schemas(cube_name)
    return schemas[cube_name]


def bind_statement(raw: RawStatement, schemas: SchemaResolver) -> AssessStatement:
    """Semantic stage: resolve the schema and build the validated statement.

    Raises the first semantic error encountered — as the original one-shot
    parser did — but with the offending clause's source position attached
    (see :meth:`~repro.core.errors.ReproError.at`).
    """
    text = raw.text
    try:
        schema = resolve_schema(schemas, raw.source)
    except KeyError:
        known = ", ".join(sorted(schemas)) if not callable(schemas) else ""
        suffix = f" (known: {known})" if known else ""
        raise ParseError(
            f"unknown cube {raw.source!r}{suffix}",
            position=raw.source_span.start,
            text=text,
        ) from None
    except ReproError as error:
        raise error.at(raw.source_span.start, text)

    predicates = [_bind_predicate(p) for p in raw.predicates]

    try:
        group_by = GroupBySet(schema, raw.level_names())
    except ReproError as error:
        raise error.at(raw.levels[0][1].start, text)

    benchmark: Optional[BenchmarkSpec] = None
    if raw.benchmark is not None:
        try:
            benchmark = _bind_benchmark(raw.benchmark, schema, group_by, text)
        except ReproError as error:
            raise error.at(raw.benchmark.span.start, text)

    try:
        labels = _bind_labels(raw.labels, text)
    except ReproError as error:
        raise error.at(raw.labels.span.start, text)

    anchor = raw.benchmark.span.start if raw.benchmark is not None else raw.measure_span.start
    try:
        return AssessStatement(
            source=raw.source,
            schema=schema,
            group_by=group_by,
            measure=raw.measure,
            predicates=tuple(predicates),
            benchmark=benchmark,
            using=raw.using,
            labels=labels,
            star=raw.star,
        )
    except ReproError as error:
        raise error.at(anchor, text)


def _bind_predicate(raw: RawPredicate) -> Predicate:
    if raw.op == "=":
        return Predicate.eq(raw.level, raw.values[0])
    if raw.op == "in":
        return Predicate.isin(raw.level, raw.values)
    low, high = raw.values
    return Predicate.between(raw.level, low, high)


def _bind_benchmark(
    raw: RawBenchmark, schema: CubeSchema, group_by: GroupBySet, text: str
) -> BenchmarkSpec:
    if raw.kind == "constant":
        return ConstantBenchmark(raw.value)
    if raw.kind == "past":
        return PastBenchmark(raw.k)
    if raw.kind == "external":
        return ExternalBenchmark(raw.cube, raw.measure)
    if raw.kind == "sibling":
        return SiblingBenchmark(raw.level, raw.member)
    if raw.kind == "ancestor":
        return _resolve_ancestor(schema, group_by, raw, text)
    raise ParseError(
        f"unknown benchmark kind {raw.kind!r}", position=raw.span.start, text=text
    )


def _bind_labels(raw: Optional[RawLabels], text: str) -> Optional[LabelingSpec]:
    if raw is None:
        return None
    if raw.kind == "named":
        return NamedLabeling(raw.name)
    rules = []
    for rule in raw.rules:
        try:
            interval = Interval(
                rule.low, rule.high, rule.low_closed, rule.high_closed
            )
        except ReproError as error:
            raise error.at(rule.span.start, text)
        rules.append(LabelRule(interval, rule.label))
    return RangeLabeling(rules)


def _resolve_ancestor(
    schema: CubeSchema, group_by: GroupBySet, raw: RawBenchmark, text: str
) -> AncestorBenchmark:
    """Recover the slice level of an ancestor benchmark from the by clause."""
    hierarchy = schema.hierarchy_of_level(raw.ancestor_level)
    for level_name in group_by.levels:
        if hierarchy.has_level(level_name) and level_name != raw.ancestor_level:
            return AncestorBenchmark(level_name, raw.ancestor_level)
    raise ParseError(
        f"ancestor benchmark on {raw.ancestor_level!r} requires a finer "
        f"level of hierarchy {hierarchy.name!r} in the by clause",
        position=raw.span.start,
        text=text,
    )

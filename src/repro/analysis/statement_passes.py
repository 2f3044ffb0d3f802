"""Statement passes: semantic checks over the raw (unvalidated) AST.

Each pass inspects one clause of a :class:`~repro.parser.raw.RawStatement`
and reports *every* defect it finds into a shared
:class:`~repro.core.diagnostics.DiagnosticBag`, anchored at the clause's
source span.  The rules of Sections 3.1 and 4.1 are not written here: the
passes apply the functions of :mod:`repro.core.rules` and report what the
``Interval`` and ``CubeSchema.measure`` constructors raise, the same code
that guards a statement built in code.  Passes degrade gracefully: when
the ``with`` cube cannot be resolved, schema-dependent checks are skipped
rather than producing follow-on noise.

The checks mirror the constraints of the paper: group-by well-formedness
(Definition 2.3), benchmark joinability (Definition 3.1 for external cubes,
the slicing requirements of Section 3.1 for sibling/past), using-clause
resolution against the function library (Section 3.2), and label-range
completeness/non-overlap (Section 3.3.1).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Optional, Set, Tuple

from ..core.diagnostics import Diagnostic, DiagnosticBag, Severity, Span
from ..core.errors import ParseError, SchemaError, ValidationError
from ..core.expression import BinaryOp, Expression, FunctionCall, Literal, MeasureRef
from ..core.labels import Interval, LabelRule, find_gaps, find_overlaps
from ..core.rules import (
    Finding,
    ancestor_findings,
    ancestor_slice_level,
    by_level_findings,
    external_findings,
    for_level_findings,
    past_findings,
    past_window_findings,
    property_findings,
    sibling_findings,
    slices,
)
from ..core.schema import CubeSchema
from ..core.statement import AssessStatement
from ..parser.parser import bind_statement, parse_raw
from ..parser.raw import RawBenchmark, RawLabels, RawPredicate, RawStatement
from .context import AnalysisContext

SOURCE = "statement"

# Functions whose second argument is a denominator, so a literal zero there
# is as much a defect as a literal zero after ``/``.
_DENOMINATOR_FUNCTIONS = frozenset({"ratio"})


def analyze_text(
    text: str, context: AnalysisContext
) -> Tuple[Optional[AssessStatement], DiagnosticBag]:
    """Parse, check and bind statement *text*: ``(statement_or_None, bag)``.

    The one path from text to a statement: syntax (ASSESS001), every
    statement pass, then — when the cube resolves and no pass found an
    error — :func:`~repro.parser.parser.bind_statement`, which only
    resolves names.  ``parse_statement`` is this call raising the bag's
    first error.  In non-strict contexts an unresolvable cube yields no
    statement and no error.
    """
    try:
        raw = parse_raw(text)
    except ParseError as error:
        span = (
            Span.from_text(text, error.position)
            if error.position >= 0
            else None
        )
        return None, DiagnosticBag(
            [Diagnostic("ASSESS001", Severity.ERROR, error.args[0], span,
                        source="parse")]
        )
    bag = DiagnosticBag()
    schema = _resolve_cube_pass(raw, context, bag)
    _group_by_pass(raw, schema, bag)
    _measure_pass(raw, schema, bag)
    _predicate_pass(raw, schema, bag)
    _benchmark_pass(raw, schema, context, bag)
    _using_pass(raw, schema, context, bag)
    _labels_pass(raw, context, bag)
    if bag.has_errors or schema is None:
        return None, bag
    return bind_statement(raw, schema), bag


# ----------------------------------------------------------------------
# Cube resolution (ASSESS101)
# ----------------------------------------------------------------------
def _resolve_cube_pass(
    raw: RawStatement, context: AnalysisContext, bag: DiagnosticBag
) -> Optional[CubeSchema]:
    if not context.can_resolve_cubes:
        return None
    schema = context.resolve(raw.source)
    if schema is None:
        if context.strict:
            bag.report(
                "ASSESS101",
                Severity.ERROR,
                f"unknown cube {raw.source!r}",
                raw.source_span,
                source=SOURCE,
            )
        else:
            bag.report(
                "ASSESS101",
                Severity.INFO,
                f"cube {raw.source!r} is not registered here; "
                "schema-dependent checks skipped",
                raw.source_span,
                source=SOURCE,
            )
    return schema


# ----------------------------------------------------------------------
# by clause (ASSESS102, ASSESS103)
# ----------------------------------------------------------------------
def _group_by_pass(
    raw: RawStatement, schema: Optional[CubeSchema], bag: DiagnosticBag
) -> None:
    if schema is None:
        return
    names = raw.level_names()
    for position, (name, span) in enumerate(raw.levels):
        for code, message in by_level_findings(schema, name, names[:position]):
            bag.report(code, Severity.ERROR, message, span, source=SOURCE)


# ----------------------------------------------------------------------
# assess clause (ASSESS104)
# ----------------------------------------------------------------------
def _measure_pass(
    raw: RawStatement, schema: Optional[CubeSchema], bag: DiagnosticBag
) -> None:
    if schema is None:
        return
    try:
        schema.measure(raw.measure)
    except SchemaError as error:
        bag.report(
            "ASSESS104",
            Severity.ERROR,
            error.args[0],
            raw.measure_span,
            hint=f"measures: {', '.join(schema.measure_names())}",
            source=SOURCE,
        )


# ----------------------------------------------------------------------
# for clause (ASSESS105, ASSESS106, ASSESS107)
# ----------------------------------------------------------------------
def _render_predicate(predicate: RawPredicate) -> str:
    if predicate.op == "=":
        return f"{predicate.level} = {predicate.values[0]!r}"
    if predicate.op == "in":
        rendered = ", ".join(repr(v) for v in predicate.values)
        return f"{predicate.level} in ({rendered})"
    low, high = predicate.values
    return f"{predicate.level} between {low!r} and {high!r}"


def _predicate_pass(
    raw: RawStatement, schema: Optional[CubeSchema], bag: DiagnosticBag
) -> None:
    earlier_by_level = {}
    for predicate in raw.predicates:
        if schema is not None:
            for code, message in for_level_findings(schema, predicate.level):
                bag.report(code, Severity.ERROR, message, predicate.level_span,
                           source=SOURCE)
        for earlier in earlier_by_level.get(predicate.level, ()):
            if (earlier.op, earlier.values) == (predicate.op, predicate.values):
                bag.report(
                    "ASSESS106",
                    Severity.WARNING,
                    f"duplicate predicate {_render_predicate(predicate)}",
                    predicate.span,
                    source=SOURCE,
                )
                continue
            mine = predicate.member_set()
            theirs = earlier.member_set()
            if mine is not None and theirs is not None and not (mine & theirs):
                bag.report(
                    "ASSESS107",
                    Severity.ERROR,
                    f"contradictory predicates on level {predicate.level!r}: "
                    f"{_render_predicate(earlier)} and "
                    f"{_render_predicate(predicate)} share no member",
                    predicate.span,
                    source=SOURCE,
                )
        earlier_by_level.setdefault(predicate.level, []).append(predicate)


# ----------------------------------------------------------------------
# against clause (ASSESS110..ASSESS115)
# ----------------------------------------------------------------------
def _benchmark_pass(
    raw: RawStatement,
    schema: Optional[CubeSchema],
    context: AnalysisContext,
    bag: DiagnosticBag,
) -> None:
    benchmark = raw.benchmark
    if benchmark is None or benchmark.kind == "constant":
        return
    levels = raw.level_names()
    findings: Iterable[Finding] = ()
    if benchmark.kind == "external":
        _external_benchmark_pass(raw, benchmark, context, bag)
    elif benchmark.kind == "sibling":
        findings = sibling_findings(
            levels, slices(raw.predicates), benchmark.level, benchmark.member
        )
    elif benchmark.kind == "past":
        findings = past_window_findings(benchmark.k)
        if schema is not None:
            findings = chain(
                findings, past_findings(schema, levels, slices(raw.predicates))
            )
    elif schema is not None:  # ancestor
        ancestor = benchmark.ancestor_level
        findings = ancestor_findings(
            schema, levels, ancestor_slice_level(schema, levels, ancestor),
            ancestor,
        )
    for code, message in findings:
        bag.report(code, Severity.ERROR, message, benchmark.span, source=SOURCE)


def _external_benchmark_pass(
    raw: RawStatement,
    benchmark: RawBenchmark,
    context: AnalysisContext,
    bag: DiagnosticBag,
) -> None:
    external = context.resolve(benchmark.cube)
    if external is None:
        if context.can_resolve_cubes and context.strict:
            bag.report(
                "ASSESS110",
                Severity.ERROR,
                f"unknown external cube {benchmark.cube!r}",
                benchmark.span,
                source=SOURCE,
            )
        return
    for code, message in external_findings(
        benchmark.cube, benchmark.measure, external, raw.level_names()
    ):
        hint = ""
        if code == "ASSESS112":
            hint = f"measures: {', '.join(external.measure_names())}"
        bag.report(code, Severity.ERROR, message, benchmark.span, hint=hint,
                   source=SOURCE)


# ----------------------------------------------------------------------
# using clause (ASSESS120..ASSESS126)
# ----------------------------------------------------------------------
def _benchmark_provides(
    raw: RawStatement,
    schema: Optional[CubeSchema],
    context: AnalysisContext,
) -> Optional[Set[str]]:
    """The measure names available under the ``benchmark.`` qualifier, or
    ``None`` when they cannot be determined statically."""
    benchmark = raw.benchmark
    if benchmark is None or benchmark.kind == "constant":
        # The zero/constant benchmark exposes only the synthetic constant.
        return {"constant"}
    if benchmark.kind == "external":
        external = context.resolve(benchmark.cube)
        if external is None:
            return None
        return set(external.measure_names()) | {benchmark.measure}
    # sibling / past / ancestor range over the target cube itself
    if schema is None:
        return None
    return set(schema.measure_names())


def _expr_span(raw: RawStatement, node: Expression) -> Optional[Span]:
    return raw.span_of_expr(node) or raw.using_span


def _using_pass(
    raw: RawStatement,
    schema: Optional[CubeSchema],
    context: AnalysisContext,
    bag: DiagnosticBag,
) -> None:
    expression = raw.using
    if expression is None:
        return  # the implicit difference(m, benchmark.m_B) is always sound
    provided = _benchmark_provides(raw, schema, context)
    saw_benchmark_ref = False

    def walk(node: Expression) -> None:
        nonlocal saw_benchmark_ref
        if isinstance(node, FunctionCall):
            _check_call(node)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, BinaryOp):
            if (
                node.op == "/"
                and isinstance(node.right, Literal)
                and node.right.value == 0
            ):
                bag.report(
                    "ASSESS122",
                    Severity.ERROR,
                    "division by constant zero",
                    _expr_span(raw, node.right),
                    source=SOURCE,
                )
            walk(node.left)
            walk(node.right)
        elif isinstance(node, MeasureRef):
            if node.qualifier == "benchmark":
                saw_benchmark_ref = True
            _check_ref(node)

    def _check_call(node: FunctionCall) -> None:
        span = _expr_span(raw, node)
        if not context.registry.has(node.name):
            bag.report(
                "ASSESS120",
                Severity.ERROR,
                f"unknown function {node.name!r}",
                span,
                hint=f"registered: {', '.join(context.registry.names())}",
                source=SOURCE,
            )
            return
        entry = context.registry.get(node.name)
        argc = len(node.args)
        if entry.arity is not None and argc != entry.arity:
            # percOfTotal(x) is sugar for percOfTotal(x, m) (Example 4.1).
            if not (node.name.lower() == "percoftotal" and argc == 1):
                bag.report(
                    "ASSESS121",
                    Severity.ERROR,
                    f"function {node.name!r} takes {entry.arity} "
                    f"argument{'s' if entry.arity != 1 else ''}, got {argc}",
                    span,
                    source=SOURCE,
                )
        if (
            node.name.lower() in _DENOMINATOR_FUNCTIONS
            and len(node.args) >= 2
            and isinstance(node.args[1], Literal)
            and node.args[1].value == 0
        ):
            bag.report(
                "ASSESS122",
                Severity.ERROR,
                f"division by constant zero in {node.name!r}",
                _expr_span(raw, node.args[1]),
                source=SOURCE,
            )

    def _check_ref(node: MeasureRef) -> None:
        span = _expr_span(raw, node)
        engine = context.engine
        if node.qualifier is None:
            if schema is None or schema.has_measure(node.name):
                return
        elif node.qualifier == "benchmark":
            if provided is None or node.name in provided:
                return
            if engine is not None and not engine.has_property(raw.source, node.name):
                kind = raw.benchmark.kind if raw.benchmark is not None else "zero"
                bag.report(
                    "ASSESS123",
                    Severity.ERROR,
                    f"the {kind} benchmark provides no measure {node.name!r} "
                    f"under the benchmark qualifier",
                    span,
                    hint=f"available: {', '.join(sorted(provided))}",
                    source=SOURCE,
                )
                return
        else:
            bag.report(
                "ASSESS126",
                Severity.ERROR,
                f"unknown qualifier {node.qualifier!r} in "
                f"{node.column_name!r}; only 'benchmark' is supported",
                span,
                source=SOURCE,
            )
            return
        # Not a measure, so a level property (§8 extension) if anything.
        if engine is None:
            bag.report(
                "ASSESS124",
                Severity.WARNING,
                f"{node.name!r} is not a measure of {raw.source!r} "
                "(level properties cannot be checked without an engine)",
                span,
                source=SOURCE,
            )
            return
        _check_property(node.name, span)

    def _check_property(name: str, span: Optional[Span]) -> None:
        engine = context.engine
        level = None
        if engine.has_property(raw.source, name):
            level, _, _ = engine.cube(raw.source).star.property_binding(name)
        for code, message in property_findings(
            name, raw.source, level, raw.level_names()
        ):
            bag.report(code, Severity.ERROR, message, span, source=SOURCE)

    walk(expression)

    benchmark = raw.benchmark
    if (
        benchmark is not None
        and benchmark.kind != "constant"
        and not saw_benchmark_ref
    ):
        bag.report(
            "ASSESS125",
            Severity.WARNING,
            f"a {benchmark.kind} benchmark is declared but the using clause "
            "never references benchmark.*; the comparison ignores it",
            raw.using_span,
            source=SOURCE,
        )


# ----------------------------------------------------------------------
# labels clause (ASSESS130..ASSESS134)
# ----------------------------------------------------------------------
def _labels_pass(
    raw: RawStatement, context: AnalysisContext, bag: DiagnosticBag
) -> None:
    labels = raw.labels
    if labels is None:
        return
    if labels.kind == "named":
        _named_labels_pass(labels, context, bag)
        return

    valid_rules: List[LabelRule] = []
    span_by_rule = {}
    for rule in labels.rules:
        try:
            interval = Interval(
                rule.low, rule.high, rule.low_closed, rule.high_closed
            )
        except ValidationError as error:
            bag.report("ASSESS132", Severity.ERROR, error.args[0], rule.span,
                       source=SOURCE)
            continue
        valid = LabelRule(interval, rule.label)
        valid_rules.append(valid)
        span_by_rule[id(valid)] = rule.span
    if not valid_rules:
        return
    # Report every overlapping pair (ASSESS131) and every gap (ASSESS130).
    for earlier, later in find_overlaps(valid_rules):
        bag.report(
            "ASSESS131",
            Severity.ERROR,
            f"label ranges {earlier.interval.render()} and "
            f"{later.interval.render()} overlap",
            span_by_rule.get(id(later), labels.span),
            source=SOURCE,
        )
    gaps = find_gaps(valid_rules)
    if gaps:
        bag.report(
            "ASSESS130",
            Severity.WARNING,
            "label ranges leave gaps: "
            + ", ".join(gap.render() for gap in gaps)
            + "; values there receive the null label",
            labels.span,
            source=SOURCE,
        )


def _named_labels_pass(
    labels: RawLabels, context: AnalysisContext, bag: DiagnosticBag
) -> None:
    name = labels.name
    if name.lower() in context.known_labelings:
        return
    if not context.registry.has(name):
        bag.report(
            "ASSESS133",
            Severity.WARNING,
            f"labeling function {name!r} is not registered (it may be "
            "defined by the session before execution)",
            labels.span,
            hint=(
                "registered labelings: "
                + ", ".join(context.registry.names(kind="labeling"))
            ),
            source=SOURCE,
        )
        return
    entry = context.registry.get(name)
    if entry.kind != "labeling":
        bag.report(
            "ASSESS134",
            Severity.ERROR,
            f"function {name!r} has kind {entry.kind!r}; the labels clause "
            "needs a labeling function",
            labels.span,
            source=SOURCE,
        )

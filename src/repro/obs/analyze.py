"""EXPLAIN ANALYZE: execute with tracing, annotate the plan tree.

:func:`explain_analyze` is the engine room behind
:meth:`AssessSession.explain_analyze` and the ``repro trace`` CLI
subcommand.  It executes one statement (or a batch) under a freshly
installed :class:`~repro.obs.tracer.Tracer`, estimates every plan with
the cost model, and correlates the two: every operator span carries the
``id()`` of its plan node (stable while the plan object is alive), so
each tree node can be annotated with

* the cost model's **estimated** output rows and cost charge,
* the **actual** output rows, cells, and inclusive wall time,
* its **provenance** — ``scan`` (cold engine pass), ``cache-hit`` /
  ``cache-derive`` (semantic result cache), ``memo`` (batch CSE), or
  ``fused`` (answered from a shared fused scan).

The get children folded into a pushed join/pivot never execute as their
own algebra operators; their actuals come from the ``engine.side`` spans
the engine opens around each composite side (``side=left/right/base``).
A composite served whole from the result cache has no sides to time —
those nodes are annotated honestly as not re-executed.

:func:`annotate_estimates` renders estimates alone (no execution); it
backs the enriched :meth:`AssessSession.explain`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.cost import CostEstimate, estimate_plan_cost
from ..algebra.plan import GetNode, JoinNode, PivotNode, Plan, PlanNode
from ..contract import NON_NEGATIVE, NULL, NUMBER
from ..core.diagnostics import DiagnosticBag, Severity
from .export import TRACE, trace_to_chrome, trace_to_json
from .tracer import Span, Tracer, install


def annotate_estimates(plan: Plan, estimate: CostEstimate) -> str:
    """The plan tree with per-node cost-model annotations appended."""
    lines = [f"Plan {plan.name}  (estimated cost {estimate.total:,.0f})"]

    def render(node: PlanNode, indent: int) -> None:
        rows = estimate.node_rows.get(id(node))
        cost = estimate.node_costs.get(id(node))
        parts = []
        if rows is not None:
            parts.append(f"est rows≈{rows:,.0f}")
        if cost is not None:
            parts.append(f"est cost≈{cost:,.0f}")
        suffix = f"  [{', '.join(parts)}]" if parts else ""
        lines.append(("  " * indent) + node.describe() + suffix)
        for child in node.children:
            render(child, indent + 1)

    render(plan.root, 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Unregistered-cube diagnostic (ASSESS401)
# ----------------------------------------------------------------------
def trace_diagnostics(session, statements: Sequence[object]) -> DiagnosticBag:
    """Pre-flight check for tracing: every cube must be registered.

    Statement *texts* are raw-parsed (no schema needed) so the check can
    run before the statement checker would reject them; already-bound
    ``AssessStatement`` objects are checked by their ``source``.  Reports
    ``ASSESS401`` per offending statement.
    """
    from ..core.statement import AssessStatement
    from ..parser.parser import parse_raw

    bag = DiagnosticBag()
    for statement in statements:
        source, span = None, None
        if isinstance(statement, AssessStatement):
            source = statement.source
        else:
            try:
                raw = parse_raw(str(statement))
            except Exception:
                continue  # the parse diagnostics belong to the analyzer
            source, span = raw.source, raw.source_span
        if source is not None and not session.engine.has_cube(source):
            registered = ", ".join(session.engine.cube_names()) or "none"
            bag.report(
                "ASSESS401", Severity.ERROR,
                f"tracing requested on unregistered cube {source!r}",
                span,
                hint=f"registered cubes: {registered}",
                source="trace",
            )
    return bag


# ----------------------------------------------------------------------
# Node annotation
# ----------------------------------------------------------------------
class NodeAnnotation:
    """Everything EXPLAIN ANALYZE knows about one plan node."""

    __slots__ = ("node", "depth", "est_rows", "est_cost", "actual_rows",
                 "actual_cells", "seconds", "provenance", "folded", "executed")

    def __init__(self, node: PlanNode, depth: int):
        self.node = node
        self.depth = depth
        self.est_rows: Optional[float] = None
        self.est_cost: Optional[float] = None
        self.actual_rows: Optional[int] = None
        self.actual_cells: Optional[int] = None
        self.seconds: Optional[float] = None
        self.provenance: Optional[str] = None
        self.folded = False       # get consumed by a pushed join/pivot
        self.executed = True      # False: composite cache hit skipped it

    def to_dict(self) -> Dict[str, object]:
        return {
            "operator": type(self.node).__name__,
            "describe": self.node.describe(),
            "depth": self.depth,
            "step": self.node.step,
            "est_rows": self.est_rows,
            "est_cost": self.est_cost,
            "actual_rows": self.actual_rows,
            "actual_cells": self.actual_cells,
            "seconds": self.seconds,
            "provenance": self.provenance,
            "folded": self.folded,
            "executed": self.executed,
        }


def _provenance_of(span: Span) -> Optional[str]:
    """How a span's subtree obtained its result, most specific first."""
    names = {}
    for descendant in span.walk():
        names.setdefault(descendant.name, descendant)
    if "batch.cse-hit" in names:
        return "memo"
    if "batch.fused-serve" in names:
        return "fused"
    lookup = names.get("cache.lookup")
    if lookup is not None:
        outcome = lookup.attrs.get("outcome")
        if outcome == "hit":
            return "cache-hit"
        if outcome == "derive":
            return "cache-derive"
    if "engine.fused-scan" in names:
        return "fused-scan"
    if "engine.scan" in names:
        return "scan"
    return None


def _annotate_plan(
    plan: Plan, estimate: CostEstimate, node_spans: Dict[int, Span]
) -> List[NodeAnnotation]:
    annotations: List[NodeAnnotation] = []

    def visit(node: PlanNode, depth: int) -> None:
        annotation = NodeAnnotation(node, depth)
        annotation.est_rows = estimate.node_rows.get(id(node))
        annotation.est_cost = estimate.node_costs.get(id(node))
        span = node_spans.get(id(node))
        if span is not None:
            annotation.actual_rows = span.attrs.get("rows_out")
            annotation.actual_cells = span.attrs.get("cells_out")
            annotation.seconds = span.duration
            annotation.provenance = _provenance_of(span)
        annotations.append(annotation)

        # Folded composite sides: actuals from the engine.side spans.
        sides: Dict[str, PlanNode] = {}
        if isinstance(node, JoinNode) and node.pushed:
            sides = {"left": node.left, "right": node.right}
        elif isinstance(node, PivotNode) and node.pushed:
            sides = {"base": node.child}
        if sides:
            side_spans = span.find("engine.side") if span is not None else []
            by_side = {s.attrs.get("side"): s for s in side_spans}
            for side, child in sides.items():
                folded = NodeAnnotation(child, depth + 1)
                folded.folded = True
                folded.est_rows = estimate.node_rows.get(id(child))
                folded.est_cost = estimate.node_costs.get(id(child))
                side_span = by_side.get(side)
                if side_span is not None:
                    folded.actual_rows = side_span.attrs.get("rows_out")
                    folded.seconds = side_span.duration
                    folded.provenance = _provenance_of(side_span)
                else:
                    folded.executed = False
                annotations.append(folded)
            return  # children fully covered by the folded annotations
        for child in node.children:
            visit(child, depth + 1)

    visit(plan.root, 0)
    return annotations


def _collect_node_spans(roots: Sequence[Span]) -> Dict[int, Span]:
    """Map plan-node id -> first span recorded for it."""
    spans: Dict[int, Span] = {}
    for root in roots:
        for span in root.walk():
            node_id = span.attrs.get("node_id")
            if node_id is not None and node_id not in spans:
                spans[node_id] = span
    return spans


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
TRACE_REPORT = {
    "required": {
        "version": {1},
        "statements": [{"required": {
            "plan": str, "estimated_cost": NUMBER, "seconds": NON_NEGATIVE,
            "nodes": [dict],
        }}],
        "batch_report": (dict, NULL),
        "trace": TRACE,
    },
}
"""The :meth:`ExplainAnalyzeReport.to_json` document (``repro trace --json``)."""


class ExplainAnalyzeReport:
    """The outcome of one EXPLAIN ANALYZE run (single statement or batch)."""

    def __init__(
        self,
        plans: Sequence[Plan],
        estimates: Sequence[CostEstimate],
        annotations: Sequence[List[NodeAnnotation]],
        results: Sequence[object],
        tracer: Tracer,
        seconds: Sequence[float],
        batch_report=None,
    ):
        self.plans = list(plans)
        self.estimates = list(estimates)
        self.annotations = list(annotations)
        self.results = list(results)
        self.tracer = tracer
        self.seconds = list(seconds)
        self.batch_report = batch_report

    @property
    def result(self):
        """The (first) statement's assess result."""
        return self.results[0]

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        blocks: List[str] = []
        for index, (plan, estimate, nodes, seconds) in enumerate(
            zip(self.plans, self.estimates, self.annotations, self.seconds)
        ):
            header = f"Plan {plan.name}"
            if len(self.plans) > 1:
                header = f"[statement {index + 1}] {header}"
            blocks.append(
                f"{header}  (estimated cost {estimate.total:,.0f}, "
                f"actual {1000 * seconds:.2f} ms)"
            )
            for annotation in nodes:
                blocks.append(self._render_node(annotation))
            blocks.append("")
        if self.batch_report is not None:
            blocks.append(self.batch_report.render())
            blocks.append("")
        return "\n".join(blocks).rstrip() + "\n"

    @staticmethod
    def _render_node(annotation: NodeAnnotation) -> str:
        parts: List[str] = []
        if annotation.est_rows is not None:
            parts.append(f"est rows≈{annotation.est_rows:,.0f}")
        if not annotation.executed:
            parts.append("not re-executed (composite served from cache)")
        elif annotation.actual_rows is not None:
            actual = f"rows={annotation.actual_rows}"
            if annotation.seconds is not None:
                actual += f", {1000 * annotation.seconds:.3f} ms"
            parts.append(actual)
        if annotation.provenance:
            parts.append(f"via {annotation.provenance}")
        if annotation.folded:
            parts.append("folded")
        suffix = f"  [{' | '.join(parts)}]" if parts else ""
        return ("  " * (annotation.depth + 1)) + annotation.node.describe() + suffix

    # -- machine-readable forms ---------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "statements": [
                {
                    "plan": plan.name,
                    "estimated_cost": estimate.total,
                    "seconds": seconds,
                    "nodes": [a.to_dict() for a in nodes],
                }
                for plan, estimate, nodes, seconds in zip(
                    self.plans, self.estimates, self.annotations, self.seconds
                )
            ],
            "batch_report": (
                self.batch_report.to_dict() if self.batch_report else None
            ),
            "trace": trace_to_json(self.tracer),
        }

    def to_chrome(self) -> List[Dict[str, object]]:
        return trace_to_chrome(self.tracer)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def explain_analyze(
    session, statements: Sequence[object], plan: str = "best"
) -> ExplainAnalyzeReport:
    """Execute with tracing and build the annotated report.

    ``statements`` is a list; one element means single-statement mode
    (plain execution), several mean batch mode (``execute_many``, so the
    trace shows CSE and fusion provenance).  Raises
    :class:`~repro.core.errors.ExecutionError` on an unregistered cube
    (diagnostic ``ASSESS401``).
    """
    import time

    from ..core.errors import ExecutionError

    bag = trace_diagnostics(session, statements)
    if bag.has_errors:
        rendered = "; ".join(d.render() for d in bag.sorted())
        raise ExecutionError(rendered)

    tracer = Tracer(metrics=session.engine.metrics)
    previous = install(tracer)
    try:
        if len(statements) > 1:
            # Batch mode: plans are chosen inside run_batch, so estimates
            # are computed afterwards (for a cold session they are
            # identical to planning-time estimates).
            batch = session.execute_many(list(statements), plan=plan)
            plans = batch.plans
            results = list(batch.results)
            seconds = list(batch.seconds)
            batch_report = batch.report
            estimates = [
                estimate_plan_cost(built, session.engine) for built in plans
            ]
        else:
            resolved = session._resolve(statements[0])
            session._substitute_named_spec(resolved)
            built = session.plan(resolved, plan)
            # Estimate before executing, so the numbers reflect the cache
            # state the planner saw — not the one execution leaves behind.
            estimates = [estimate_plan_cost(built, session.engine)]
            with tracer.span("statement", index=0, plan=built.name):
                start = time.perf_counter()
                result = session._executor.execute(built, resolved)
                elapsed = time.perf_counter() - start
            plans = [built]
            results = [result]
            seconds = [elapsed]
            batch_report = None
    finally:
        install(previous)

    node_spans = _collect_node_spans(tracer.roots)
    annotations = [
        _annotate_plan(built, estimate, node_spans)
        for built, estimate in zip(plans, estimates)
    ]
    return ExplainAnalyzeReport(
        plans, estimates, annotations, results, tracer, seconds, batch_report
    )

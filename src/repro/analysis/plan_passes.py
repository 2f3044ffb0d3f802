"""Plan passes: structural verification of logical plan trees.

The planner and the P2/P3 rewriters manipulate plans symbolically; these
passes re-check the invariants the executor relies on, so a broken rewrite
surfaces as a diagnostic at plan time instead of a KeyError mid-execution:

* **shape** — every plan ends with the mandatory ``Using -> Label`` tail
  (the ⊡Δ / ⊡λ operators of Section 4.2 are never optimized away);
* **closure** — every column a node consumes is produced somewhere in its
  subtree (output-schema inference over the tree, with fan-in joins treated
  as open column sets because their ``_1.._k`` suffixes depend on data);
* **partiality** — partial joins range over a subset of the statement's
  group-by set, and exactly the expected subset for sibling/past benchmarks
  (``G \\ {l_s}`` / ``G \\ {l_t}``, Section 4.3);
* **steps** — every node is charged to a known Figure 4 cost bucket, and
  pushed operators to ``get_combined``;
* **pushed shape** — pushed joins/pivots sit directly over gets (the engine
  evaluates them as one SQL query, Section 5.2);
* **pivot members** — a pushed pivot's reference and member renames are all
  fetched by the combined get's predicate;
* **feasibility** — the plan name is feasible for the statement's benchmark
  type (the Section 5.2 matrix).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..algebra.plan import (
    ALL_STEPS,
    STEP_COMPARE,
    STEP_GET_BENCHMARK,
    STEP_GET_COMBINED,
    STEP_GET_TARGET,
    STEP_JOIN,
    STEP_LABEL,
    STEP_TRANSFORM,
    AddConstantNode,
    AttachPropertyNode,
    GetNode,
    JoinNode,
    LabelNode,
    PivotNode,
    Plan,
    PlanNode,
    PredictNode,
    ProjectNode,
    RollupJoinNode,
    UsingNode,
)
from ..core.diagnostics import DiagnosticBag, Severity
from ..core.statement import (
    AssessStatement,
    PastBenchmark,
    SiblingBenchmark,
)

SOURCE = "plan"


def verify_plan(
    plan: Plan, statement: Optional[AssessStatement] = None
) -> DiagnosticBag:
    """Run every plan pass; ``statement`` enables the statement-dependent
    checks (partiality, feasibility)."""
    bag = DiagnosticBag()
    _shape_pass(plan, bag)
    _closure_pass(plan, bag)
    _step_pass(plan, bag)
    _pushed_pass(plan, bag)
    _pivot_member_pass(plan, bag)
    if statement is not None:
        _partiality_pass(plan, statement, bag)
        _feasibility_pass(plan, statement, bag)
    return bag


# ----------------------------------------------------------------------
# Shape (ASSESS201)
# ----------------------------------------------------------------------
def _shape_pass(plan: Plan, bag: DiagnosticBag) -> None:
    root = plan.root
    if not isinstance(root, LabelNode):
        bag.report(
            "ASSESS201",
            Severity.ERROR,
            f"plan root must be a Label node, found {type(root).__name__}",
            source=SOURCE,
        )
        return
    if not isinstance(root.child, UsingNode):
        bag.report(
            "ASSESS201",
            Severity.ERROR,
            "plan must end with Using -> Label; Label's child is "
            f"{type(root.child).__name__}",
            source=SOURCE,
        )


# ----------------------------------------------------------------------
# Column closure (ASSESS202)
# ----------------------------------------------------------------------
class _Columns:
    """The measure columns a subtree produces.

    ``open_prefixes`` marks families like ``benchmark.revenue_`` whose
    numbered members (``_1.._k``) exist but cannot be counted statically
    (fan-in joins append one set per matching benchmark cell).
    """

    __slots__ = ("names", "open_prefixes")

    def __init__(self, names: Set[str], open_prefixes: Set[str] = frozenset()) -> None:
        self.names = set(names)
        self.open_prefixes = set(open_prefixes)

    def resolvable(self, column: str) -> bool:
        if column in self.names:
            return True
        return any(column.startswith(prefix) for prefix in self.open_prefixes)


def _closure_pass(plan: Plan, bag: DiagnosticBag) -> None:
    def require(node: PlanNode, available: _Columns, column: str) -> None:
        if not available.resolvable(column):
            bag.report(
                "ASSESS202",
                Severity.ERROR,
                f"{type(node).__name__} consumes column {column!r}, which "
                "its input does not produce "
                f"(available: {', '.join(sorted(available.names)) or 'none'})",
                source=SOURCE,
            )

    def visit(node: PlanNode) -> _Columns:
        if isinstance(node, GetNode):
            return _Columns(set(node.query.measures))
        if isinstance(node, AddConstantNode):
            columns = visit(node.child)
            columns.names.add(node.column_name)
            return columns
        if isinstance(node, (JoinNode, RollupJoinNode)):
            left = visit(node.left)
            right = visit(node.right)
            multi = isinstance(node, JoinNode) and node.multi
            if multi:
                # One column set per matching benchmark cell: the suffixed
                # names exist, the bare qualified name does not.
                left.open_prefixes.update(
                    f"{node.alias}.{name}_" for name in right.names
                )
            else:
                left.names.update(
                    f"{node.alias}.{name}" for name in right.names
                )
            return left
        if isinstance(node, PivotNode):
            columns = visit(node.child)
            for renames in node.member_renames.values():
                columns.names.update(renames.values())
            return columns
        if isinstance(node, PredictNode):
            columns = visit(node.child)
            for column in node.input_columns:
                require(node, columns, column)
            columns.names.add(node.out_name)
            return columns
        if isinstance(node, ProjectNode):
            columns = visit(node.child)
            for column in node.columns:
                require(node, columns, column)
            kept = {node.renames.get(c, c) for c in node.columns}
            return _Columns(kept)
        if isinstance(node, AttachPropertyNode):
            columns = visit(node.child)
            columns.names.add(node.out_name)
            return columns
        if isinstance(node, UsingNode):
            columns = visit(node.child)
            for ref in node.expression.references():
                require(node, columns, ref.column_name)
            columns.names.add(node.out_name)
            return columns
        if isinstance(node, LabelNode):
            columns = visit(node.child)
            require(node, columns, node.input_column)
            columns.names.add(node.out_name)
            return columns
        # Unknown node type: assume it passes columns through untouched.
        merged = _Columns(set())
        for child in node.children:
            child_columns = visit(child)
            merged.names.update(child_columns.names)
            merged.open_prefixes.update(child_columns.open_prefixes)
        return merged

    visit(plan.root)


# ----------------------------------------------------------------------
# Step attribution (ASSESS204)
# ----------------------------------------------------------------------
_GET_STEPS = {
    "target": STEP_GET_TARGET,
    "benchmark": STEP_GET_BENCHMARK,
    "combined": STEP_GET_COMBINED,
}


def _expected_step(node: PlanNode) -> Optional[str]:
    if isinstance(node, GetNode):
        return _GET_STEPS.get(node.role)
    if isinstance(node, JoinNode):
        return STEP_GET_COMBINED if node.pushed else STEP_JOIN
    if isinstance(node, PivotNode):
        return STEP_GET_COMBINED if node.pushed else STEP_TRANSFORM
    if isinstance(node, RollupJoinNode):
        return STEP_JOIN
    if isinstance(node, UsingNode):
        return STEP_COMPARE
    if isinstance(node, LabelNode):
        return STEP_LABEL
    if isinstance(
        node, (AddConstantNode, PredictNode, ProjectNode, AttachPropertyNode)
    ):
        return STEP_TRANSFORM
    return None


def _step_pass(plan: Plan, bag: DiagnosticBag) -> None:
    for node in plan.nodes():
        step = getattr(node, "step", None)
        if step not in ALL_STEPS:
            bag.report(
                "ASSESS204",
                Severity.ERROR,
                f"{type(node).__name__} is charged to unknown step "
                f"{step!r} (known: {', '.join(ALL_STEPS)})",
                source=SOURCE,
            )
            continue
        expected = _expected_step(node)
        if expected is not None and step != expected:
            bag.report(
                "ASSESS204",
                Severity.ERROR,
                f"{type(node).__name__} ({node.describe()}) is charged to "
                f"step {step!r}; expected {expected!r}",
                source=SOURCE,
            )


# ----------------------------------------------------------------------
# Pushed-operator shape (ASSESS205)
# ----------------------------------------------------------------------
def _pushed_pass(plan: Plan, bag: DiagnosticBag) -> None:
    for node in plan.nodes():
        if isinstance(node, JoinNode) and node.pushed:
            for side, child in (("left", node.left), ("right", node.right)):
                if not isinstance(child, GetNode):
                    bag.report(
                        "ASSESS205",
                        Severity.ERROR,
                        f"pushed join's {side} child must be a Get node, "
                        f"found {type(child).__name__}; the engine cannot "
                        "evaluate it as one query",
                        source=SOURCE,
                    )
        elif isinstance(node, PivotNode) and node.pushed:
            if not isinstance(node.child, GetNode):
                bag.report(
                    "ASSESS205",
                    Severity.ERROR,
                    "pushed pivot's child must be a Get node, found "
                    f"{type(node.child).__name__}",
                    source=SOURCE,
                )


# ----------------------------------------------------------------------
# Pivot member consistency (ASSESS206)
# ----------------------------------------------------------------------
def _pivot_member_pass(plan: Plan, bag: DiagnosticBag) -> None:
    for node in plan.nodes():
        if not isinstance(node, PivotNode):
            continue
        if not node.member_renames:
            bag.report(
                "ASSESS206",
                Severity.ERROR,
                f"pivot on {node.level!r} renames no members",
                source=SOURCE,
            )
            continue
        if not (node.pushed and isinstance(node.child, GetNode)):
            continue
        predicate = node.child.query.predicate_on(node.level)
        members = predicate.member_set() if predicate is not None else None
        if members is None:
            bag.report(
                "ASSESS206",
                Severity.ERROR,
                f"pushed pivot on {node.level!r} needs the combined get to "
                "constrain that level with an enumerable predicate",
                source=SOURCE,
            )
            continue
        wanted = set(node.member_renames)
        if node.reference is not None:
            wanted.add(node.reference)
        missing = wanted - set(members)
        if missing:
            bag.report(
                "ASSESS206",
                Severity.ERROR,
                f"pivot member{'s' if len(missing) > 1 else ''} "
                f"{', '.join(repr(m) for m in sorted(missing, key=repr))} "
                f"not fetched by the combined get's predicate on "
                f"{node.level!r}",
                source=SOURCE,
            )


# ----------------------------------------------------------------------
# Join partiality vs. the statement group-by set (ASSESS203)
# ----------------------------------------------------------------------
def _expected_join_levels(
    statement: AssessStatement,
) -> Optional[Tuple[str, ...]]:
    benchmark = statement.benchmark
    levels = statement.group_by.levels
    if isinstance(benchmark, SiblingBenchmark):
        return tuple(l for l in levels if l != benchmark.level)
    if isinstance(benchmark, PastBenchmark):
        temporal = statement.temporal_level
        if temporal is None:
            return None
        return tuple(l for l in levels if l != temporal)
    return None


def _partiality_pass(
    plan: Plan, statement: AssessStatement, bag: DiagnosticBag
) -> None:
    group_by = set(statement.group_by.levels)
    expected = _expected_join_levels(statement)
    for node in plan.nodes():
        if isinstance(node, JoinNode):
            if node.join_levels is None:
                if expected is not None:
                    bag.report(
                        "ASSESS203",
                        Severity.ERROR,
                        f"a {statement.benchmark.kind} benchmark needs a "
                        f"partial join on {sorted(expected)}, not a natural "
                        "join (the slices differ on the excluded level)",
                        source=SOURCE,
                    )
                continue
            join_levels = set(node.join_levels)
            if not join_levels <= group_by:
                bag.report(
                    "ASSESS203",
                    Severity.ERROR,
                    f"join on {sorted(join_levels - group_by)} outside the "
                    f"group-by set {sorted(group_by)}",
                    source=SOURCE,
                )
            elif expected is not None and join_levels != set(expected):
                bag.report(
                    "ASSESS203",
                    Severity.ERROR,
                    f"partial join on {sorted(join_levels)}; a "
                    f"{statement.benchmark.kind} benchmark joins on "
                    f"{sorted(expected)}",
                    source=SOURCE,
                )
        elif isinstance(node, RollupJoinNode):
            if node.level not in group_by:
                bag.report(
                    "ASSESS203",
                    Severity.ERROR,
                    f"rollup join on level {node.level!r}, which is not in "
                    f"the group-by set {sorted(group_by)}",
                    source=SOURCE,
                )


# ----------------------------------------------------------------------
# Feasibility matrix (ASSESS207)
# ----------------------------------------------------------------------
def _feasibility_pass(
    plan: Plan, statement: AssessStatement, bag: DiagnosticBag
) -> None:
    from ..algebra.planner import feasible_plans

    try:
        feasible = feasible_plans(statement)
    except Exception:
        return
    if plan.name in ("NP", "JOP", "POP") and plan.name not in feasible:
        bag.report(
            "ASSESS207",
            Severity.ERROR,
            f"plan {plan.name} is not feasible for a "
            f"{statement.benchmark.kind} benchmark "
            f"(feasible: {', '.join(feasible)})",
            source=SOURCE,
        )

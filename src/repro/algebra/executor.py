"""Plan execution: interpret a logical plan into an assessment result.

The executor walks the plan tree bottom-up.  *Pushed* nodes (gets, and the
pushed joins/pivots of JOP/POP) are delegated to the multidimensional engine
as single queries; everything else runs in memory on cube objects — exactly
the split Section 5.2 prescribes.  A join or pivot is the same cube
operator on either side of that boundary (:meth:`Cube.join`,
:meth:`Cube.pivot`): the engine applies it to its gets.  Every node's own
runtime (excluding its children) is accumulated into its Figure 4 step
bucket, enabling the breakdown experiment.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..core.cube import Cube
from ..core.deadline import checkpoint as _checkpoint
from ..core.errors import ExecutionError, FunctionError, MemberError, SchemaError
from ..core.labels import CoordinateLabeling, NamedLabeling, RangeLabeling
from ..core.result import AssessResult
from ..core.statement import AssessStatement
from ..functions.evaluate import evaluate
from ..functions.registry import FunctionRegistry, default_registry
from ..obs.tracer import active as _active_tracer
from ..olap.engine import MultidimensionalEngine
from .plan import (
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


class PlanExecutor:
    """Interprets plans against a multidimensional engine."""

    def __init__(
        self,
        engine: MultidimensionalEngine,
        registry: Optional[FunctionRegistry] = None,
    ):
        self.engine = engine
        self.registry = registry or default_registry()

    # ------------------------------------------------------------------
    def execute(self, plan: Plan, statement: AssessStatement) -> AssessResult:
        """Run a plan, returning the assessment result with step timings."""
        timings: Dict[str, float] = {}
        cube = self._run(plan.root, timings)
        return AssessResult(
            cube,
            measure=statement.measure,
            benchmark_measure=plan.benchmark_column,
            comparison_measure=plan.comparison_column,
            label_measure=plan.label_column,
            plan_name=plan.name,
            timings=timings,
        )

    # ------------------------------------------------------------------
    def _run(self, node: PlanNode, timings: Dict[str, float]) -> Cube:
        """Evaluate one node; under tracing, wrap it in an operator span.

        The span covers the node *and* its children (children's spans
        nest inside, so inclusive/exclusive times both fall out of the
        tree), while the Figure 4 ``timings`` buckets stay exclusive —
        :meth:`_timed` is unchanged.  Each operator starts at a deadline
        checkpoint.
        """
        _checkpoint("plan execution")
        tracer = _active_tracer()
        if not tracer.enabled:
            return self._run_node(node, timings)
        name = _OPERATOR_NAMES.get(type(node), type(node).__name__)
        with tracer.span(f"op.{name}", node_id=id(node)) as span:
            cube = self._run_node(node, timings)
            rows_in = sum(
                child.attrs["rows_out"]
                for child in span.children
                if child.name.startswith("op.") and "rows_out" in child.attrs
            )
            span.set(
                step=node.step,
                rows_in=rows_in,
                rows_out=len(cube),
                cells_out=len(cube) * max(len(cube.measures), 1),
                pushed=bool(getattr(node, "pushed", False)),
                detail=node.describe(),
            )
            return cube

    def _run_node(self, node: PlanNode, timings: Dict[str, float]) -> Cube:
        if isinstance(node, GetNode):
            return self._timed(node, timings, lambda: self.engine.get(node.query))

        if isinstance(node, JoinNode) and node.pushed:
            return self._run_pushed_join(node, timings)
        if isinstance(node, PivotNode) and node.pushed:
            return self._run_pushed_pivot(node, timings)

        if isinstance(node, AddConstantNode):
            child = self._run(node.child, timings)
            return self._timed(
                node,
                timings,
                lambda: child.with_measure(
                    node.column_name, np.full(len(child), node.value)
                ),
            )
        if isinstance(node, JoinNode):
            left = self._run(node.left, timings)
            right = self._run(node.right, timings)
            return self._timed(
                node,
                timings,
                lambda: left.join(
                    right, node.join_levels, alias=node.alias,
                    outer=node.outer, multi=node.multi,
                ),
            )
        if isinstance(node, PivotNode):
            child = self._run(node.child, timings)
            return self._timed(
                node,
                timings,
                lambda: child.pivot(
                    node.level, node.reference, node.member_renames,
                    require_all=node.require_all,
                    fill_member=node.fill_member,
                ),
            )
        if isinstance(node, PredictNode):
            child = self._run(node.child, timings)
            return self._timed(node, timings, lambda: self._predict(node, child))
        if isinstance(node, ProjectNode):
            child = self._run(node.child, timings)
            return self._timed(node, timings, lambda: self._project(node, child))
        if isinstance(node, RollupJoinNode):
            left = self._run(node.left, timings)
            right = self._run(node.right, timings)
            return self._timed(
                node, timings, lambda: self._rollup_join(node, left, right)
            )
        if isinstance(node, AttachPropertyNode):
            child = self._run(node.child, timings)
            return self._timed(node, timings, lambda: self._attach_property(node, child))
        if isinstance(node, UsingNode):
            child = self._run(node.child, timings)
            return self._timed(
                node,
                timings,
                lambda: child.with_measure(
                    node.out_name, evaluate(node.expression, child, self.registry)
                ),
            )
        if isinstance(node, LabelNode):
            child = self._run(node.child, timings)
            return self._timed(node, timings, lambda: self._label(node, child))
        raise ExecutionError(f"cannot execute plan node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Pushed operators (single engine query covering the subtree)
    # ------------------------------------------------------------------
    def _run_pushed_join(self, node: JoinNode, timings: Dict[str, float]) -> Cube:
        if not (isinstance(node.left, GetNode) and isinstance(node.right, GetNode)):
            raise ExecutionError("a pushed join requires two get children")
        return self._timed(
            node,
            timings,
            lambda: self.engine.drill_across(
                node.left.query,
                node.right.query,
                node.join_levels,
                alias=node.alias,
                outer=node.outer,
                multi=node.multi,
            ),
        )

    def _run_pushed_pivot(self, node: PivotNode, timings: Dict[str, float]) -> Cube:
        if not isinstance(node.child, GetNode):
            raise ExecutionError("a pushed pivot requires a get child")
        return self._timed(
            node,
            timings,
            lambda: self.engine.pivot_get(
                node.child.query,
                node.level,
                node.reference,
                node.member_renames,
                require_all=node.require_all,
            ),
        )

    def _predict(self, node: PredictNode, cube: Cube) -> Cube:
        columns = [name for name in node.input_columns if name in cube.measures]
        if not columns:
            # Fan-in joins collapse to an unsuffixed column when every key
            # matched exactly one row; fall back to the base column name.
            base = _strip_suffix(node.input_columns[0])
            if base in cube.measures:
                columns = [base]
            else:
                raise ExecutionError(
                    f"prediction input columns {list(node.input_columns)} "
                    f"missing from cube (has {list(cube.measure_names)})"
                )
        history = np.column_stack([cube.measure(name) for name in columns])
        entry = self.registry.get(node.method)
        if entry.kind != "prediction":
            raise FunctionError(
                f"function {node.method!r} has kind {entry.kind!r}, "
                "expected a prediction function"
            )
        if node.drop_missing:
            has_history = ~np.isnan(history).all(axis=1)
            if not has_history.all():
                cube = cube.filter_rows(has_history)
                history = history[has_history]
        prediction = np.asarray(entry(history), dtype=np.float64)
        return cube.with_measure(node.out_name, prediction)

    def _project(self, node: ProjectNode, cube: Cube) -> Cube:
        projected = cube.project_measures(list(node.columns))
        if node.renames:
            projected = projected.rename_measures(node.renames)
        return projected

    def _rollup_join(self, node: RollupJoinNode, left: Cube, right: Cube) -> Cube:
        """Ancestor join on codes: the engine's coded roll-up, then the
        drill-across every join shares.

        The left level's dictionary maps onto the engine's part-of table
        (:meth:`~repro.olap.engine.MultidimensionalEngine.rollup`, the one
        cache derivation uses) — by identity when it is the table's own,
        else by one binary search over its distinct members — and its
        codes reach their ancestors by one gather.  The keys are then
        joined by :meth:`Cube.join_on_codes`.
        """
        if not isinstance(node.left, GetNode):
            raise ExecutionError("an ancestor join requires a get on its left")
        source = node.left.query.source
        rollup = self.engine.rollup(source, node.level, node.ancestor_level)
        if rollup is None:
            raise SchemaError(
                f"cube {source!r} has no part-of function from level "
                f"{node.level!r} to {node.ancestor_level!r}"
            )
        member_codes, members = left.encoded(node.level)
        lut = rollup.lut_for(members)
        if lut is None:
            missing = members[~np.isin(members, rollup.fine)]
            raise MemberError(
                f"no parent recorded for member {missing[0]!r} of level "
                f"{node.level!r} at level {node.ancestor_level!r}"
            )

        # Left key columns in left group-by order, the rolled-up level
        # substituted; the right side's ancestor level occupies the same
        # canonical position (same hierarchy), so the columns align.
        left_keys = [
            (lut[member_codes], rollup.coarse)
            if name == node.level else left.encoded(name)
            for name in left.group_by.levels
        ]
        right_keys = [right.encoded(name) for name in right.group_by.levels]
        return left.join_on_codes(
            right, left_keys, right_keys, alias=node.alias, outer=node.outer
        )

    def _attach_property(self, node: AttachPropertyNode, cube: Cube) -> Cube:
        level, lookup = self.engine.property_lookup(node.source, node.property_name)
        if node.fixed_member is not None:
            value = float(lookup.get(node.fixed_member, np.nan))
            column = np.full(len(cube), value)
        else:
            members = cube.coords[node.level]
            column = np.fromiter(
                (float(lookup.get(member, np.nan)) for member in members),
                dtype=np.float64,
                count=len(cube),
            )
        return cube.with_measure(node.out_name, column)

    def _label(self, node: LabelNode, cube: Cube) -> Cube:
        values = cube.measure(node.input_column)
        labeling = node.labeling
        if isinstance(labeling, CoordinateLabeling):
            if labeling.level not in cube.group_by:
                raise ExecutionError(
                    f"coordinate labeling on level {labeling.level!r} requires "
                    f"it in the group-by set {list(cube.group_by.levels)}"
                )
            labels = labeling.apply(values, cube.coords[labeling.level])
        elif isinstance(labeling, RangeLabeling):
            labels = labeling.apply(values)
        elif isinstance(labeling, NamedLabeling):
            entry = self.registry.get(labeling.name)
            if entry.kind != "labeling":
                raise FunctionError(
                    f"function {labeling.name!r} has kind {entry.kind!r}, "
                    "expected a labeling function"
                )
            labels = np.asarray(entry(np.asarray(values, dtype=np.float64)), dtype=object)
        else:
            raise ExecutionError(
                f"unsupported labeling spec {type(labeling).__name__}"
            )
        return cube.with_measure(node.out_name, labels)

    # ------------------------------------------------------------------
    def _timed(self, node: PlanNode, timings: Dict[str, float], thunk) -> Cube:
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        timings[node.step] = timings.get(node.step, 0.0) + elapsed
        return result


_OPERATOR_NAMES = {
    GetNode: "get",
    JoinNode: "join",
    RollupJoinNode: "rollup-join",
    PivotNode: "pivot",
    PredictNode: "cell-transform",
    UsingNode: "h-transform",
    LabelNode: "labeling",
    AddConstantNode: "add-constant",
    ProjectNode: "project",
    AttachPropertyNode: "attach-property",
}
"""Span names of the algebra operators (the paper's get/⋈/⊟/⊡/⊞)."""


def _strip_suffix(name: str) -> str:
    stem, _, suffix = name.rpartition("_")
    if stem and suffix.isdigit():
        return stem
    return name

"""Rule-based plan rewriting (Section 5.1 properties, Section 5.2 plans).

Three properties drive the optimization of assess statements:

* **P1 — commutativity of transforms.**  Transform operators preserve the
  coordinate set and monotonically add measures, so independent transforms
  commute.  :func:`p1_commutes` verifies the property on concrete cubes (the
  planner relies on it implicitly when reordering the pipelines below).
* **P2 — pushing join through transformation.**  A join can be pushed below
  a cell-transformation applied to one side only; for past benchmarks this
  turns ``C ⋈ (⊟regression(⊞(B)))`` into ``⊟regression(C ⋈ B)``, leaving a
  join between two bare gets — which can then be pushed to SQL.
  :func:`push_join_to_sql` applies P2 where needed and marks the join
  pushed, producing the **JOP** plan.
* **P3 — replacing join with pivot.**  Two gets over the *same* cube whose
  predicates differ only on one level can be fetched together (widened
  ``IN`` predicate) and pivoted, eliminating the join entirely.
  :func:`replace_join_with_pivot` applies P3, producing the **POP** plan.

Both rewriters take a :class:`~repro.algebra.plan.Plan` and return a new
plan; they never mutate their input.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.cube import Cube
from ..core.errors import PlanError
from ..core.query import CubeQuery, Predicate
from .plan import (
    GetNode,
    JoinNode,
    LabelNode,
    PivotNode,
    Plan,
    PlanNode,
    PredictNode,
    ProjectNode,
    UsingNode,
)


# ----------------------------------------------------------------------
# P1 — commutativity of transform operators
# ----------------------------------------------------------------------
def p1_commutes(
    cube: Cube,
    first: Callable[[Cube], Cube],
    second: Callable[[Cube], Cube],
) -> bool:
    """Check property P1 on a concrete cube.

    ``first`` and ``second`` must each add measure columns without touching
    coordinates (the contract of ``⊟``/``⊡``).  Returns whether applying
    them in either order yields identical cubes (same coordinates, same
    columns, same values).
    """
    one = second(first(cube))
    two = first(second(cube))
    if one.coordinates() != two.coordinates():
        return False
    if set(one.measure_names) != set(two.measure_names):
        return False
    for name in one.measure_names:
        a, b = one.measure(name), two.measure(name)
        if a.dtype == object or b.dtype == object:
            if not all(x == y for x, y in zip(a, b)):
                return False
        elif not np.allclose(a, b, equal_nan=True):
            return False
    return True


# ----------------------------------------------------------------------
# Pipeline plumbing
# ----------------------------------------------------------------------
def _split_pipeline(plan: Plan) -> Tuple[PlanNode, UsingNode, LabelNode, list]:
    """Peel the mandatory Label(Using(...)) tail off a plan.

    AttachProperty wrappers between the Using node and the benchmark body
    are peeled too (they only add coordinate-keyed columns, so by P1 they
    commute with the join/pivot rewrites below) and re-applied by
    :func:`_rewrap`.
    """
    from .plan import AttachPropertyNode

    label = plan.root
    if not isinstance(label, LabelNode):
        raise PlanError("plan root is not a Label node")
    using = label.child
    if not isinstance(using, UsingNode):
        raise PlanError("plan does not end with Using -> Label")
    body = using.child
    wrappers = []
    while isinstance(body, AttachPropertyNode):
        wrappers.append(body)
        body = body.child
    return body, using, label, wrappers


def _rewrap(plan: Plan, name: str, body: PlanNode, using: UsingNode,
            label: LabelNode, wrappers: list) -> Plan:
    from .plan import AttachPropertyNode

    for wrapper in reversed(wrappers):
        body = AttachPropertyNode(
            body, wrapper.source, wrapper.property_name, wrapper.level,
            out_name=wrapper.out_name, fixed_member=wrapper.fixed_member,
        )
    root = UsingNode(body, using.expression, using.out_name)
    root = LabelNode(root, label.labeling, label.input_column, label.out_name)
    return Plan(
        name,
        root,
        measure=plan.measure,
        benchmark_column=plan.benchmark_column,
        comparison_column=plan.comparison_column,
        label_column=plan.label_column,
    )


# ----------------------------------------------------------------------
# P2 — push join through transformation; push join to SQL (JOP)
# ----------------------------------------------------------------------
def push_join_to_sql(plan: Plan) -> Plan:
    """Derive the Join-Optimized Plan from a naive plan.

    Handles the two NP shapes that contain a join between cubes:

    * ``Join(Get, Get)`` (external, sibling): the join is marked pushed —
      the engine evaluates both gets and the join as one drill-across query
      (Listing 4).
    * ``Join(Get, Project(Predict(Pivot(Get))))`` (past): property P2 first
      commutes the join below the transformation chain, yielding
      ``Predict(Join(Get, Get))`` with a fan-in (multi) join; the join is
      then pushed (Example 5.3).
    """
    body, using, label, wrappers = _split_pipeline(plan)

    if isinstance(body, JoinNode) and isinstance(body.left, GetNode) and isinstance(
        body.right, GetNode
    ):
        join = JoinNode(
            body.left,
            body.right,
            join_levels=body.join_levels,
            alias=body.alias,
            outer=body.outer,
            pushed=True,
            multi=body.multi,
        )
        return _rewrap(plan, "JOP", join, using, label, wrappers)

    past_shape = _match_past_chain(body)
    if past_shape is not None:
        join_node, get_target, get_benchmark, predict = past_shape
        measure = get_benchmark.query.measures[0]
        k = len(predict.input_columns)
        pushed_join = JoinNode(
            get_target,
            get_benchmark,
            join_levels=join_node.join_levels,
            alias=join_node.alias,
            outer=join_node.outer,
            pushed=True,
            multi=True,
        )
        qualified = f"{join_node.alias}.{measure}"
        history = [f"{qualified}_{i + 1}" for i in range(k)]
        new_predict = PredictNode(pushed_join, predict.method, history, qualified)
        return _rewrap(plan, "JOP", new_predict, using, label, wrappers)

    raise PlanError("plan contains no join that can be pushed to SQL")


def _match_past_chain(
    body: PlanNode,
) -> Optional[Tuple[JoinNode, GetNode, GetNode, PredictNode]]:
    """Match ``Join(Get, Project(Predict(Pivot(Get))))`` — the NP past shape."""
    if not isinstance(body, JoinNode) or not isinstance(body.left, GetNode):
        return None
    project = body.right
    if not isinstance(project, ProjectNode):
        return None
    predict = project.child
    if not isinstance(predict, PredictNode):
        return None
    pivot = predict.child
    if not isinstance(pivot, PivotNode) or not isinstance(pivot.child, GetNode):
        return None
    return body, body.left, pivot.child, predict


# ----------------------------------------------------------------------
# P3 — replace join with pivot (POP)
# ----------------------------------------------------------------------
def replace_join_with_pivot(plan: Plan) -> Plan:
    """Derive the Pivot-Optimized Plan from a JOP plan (property P3).

    Applies when the pushed join combines two gets over the *same* cube
    whose predicate sets differ on exactly one level — the sibling/past
    pattern.  The two gets merge into a single get with a widened ``IN``
    predicate on that level, topped by a pushed pivot that aligns the
    benchmark slices as extra measure columns (Listing 5).
    """
    body, using, label, wrappers = _split_pipeline(plan)

    predict: Optional[PredictNode] = None
    join = body
    if isinstance(body, PredictNode):
        predict = body
        join = body.child

    if not (
        isinstance(join, JoinNode)
        and isinstance(join.left, GetNode)
        and isinstance(join.right, GetNode)
    ):
        raise PlanError("plan contains no join over two gets; P3 does not apply")
    target_query = join.left.query
    benchmark_query = join.right.query
    if target_query.source != benchmark_query.source:
        raise PlanError(
            "P3 requires both gets to range over the same cube "
            f"({target_query.source!r} vs {benchmark_query.source!r})"
        )

    level, target_members, benchmark_members = _differing_level(
        target_query, benchmark_query
    )
    if len(target_members) != 1:
        raise PlanError("P3 requires the target to slice the pivot level on one member")
    reference = next(iter(target_members))
    # The members' own order: the order of the past slices everywhere
    # (the fan-in join's slots, the engine's predecessors).
    ordered_benchmark = sorted(benchmark_members)

    measure = benchmark_query.measures[0]
    qualified = f"{join.alias}.{measure}"
    if predict is not None:
        renames = {
            member: {measure: f"{qualified}_{i + 1}"}
            for i, member in enumerate(ordered_benchmark)
        }
        require_all = False
    else:
        renames = {member: {measure: qualified} for member in ordered_benchmark}
        require_all = not join.outer

    all_members = list(ordered_benchmark) + [reference]
    old_predicate = target_query.predicate_on(level)
    merged = target_query.replace_predicate(
        old_predicate, Predicate.isin(level, all_members)
    )
    combined_get = GetNode(merged, role="combined", name="target+benchmark")
    pivot = PivotNode(
        combined_get, level, reference, renames,
        require_all=require_all, pushed=True,
    )
    new_body: PlanNode = pivot
    if predict is not None:
        history = [f"{qualified}_{i + 1}" for i in range(len(ordered_benchmark))]
        new_body = PredictNode(
            pivot, predict.method, history, qualified,
            drop_missing=not join.outer,
        )
    return _rewrap(plan, "POP", new_body, using, label, wrappers)


def _differing_level(
    target: CubeQuery, benchmark: CubeQuery
) -> Tuple[str, frozenset, frozenset]:
    """The single level whose predicate differs between two get queries."""
    levels = {p.level for p in target.predicates} | {
        p.level for p in benchmark.predicates
    }
    differing: List[str] = []
    for level in levels:
        if target.predicate_on(level) != benchmark.predicate_on(level):
            differing.append(level)
    if len(differing) != 1:
        raise PlanError(
            f"P3 requires the two gets to differ on exactly one level, "
            f"found {sorted(differing)}"
        )
    level = differing[0]
    target_predicate = target.predicate_on(level)
    benchmark_predicate = benchmark.predicate_on(level)
    if target_predicate is None or benchmark_predicate is None:
        raise PlanError(f"both gets must constrain level {level!r} for P3")
    target_members = target_predicate.member_set()
    benchmark_members = benchmark_predicate.member_set()
    if target_members is None or benchmark_members is None:
        raise PlanError(f"P3 needs enumerable predicates on level {level!r}")
    return level, target_members, benchmark_members

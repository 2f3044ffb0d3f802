"""Planning: from an assess statement to executable logical plans.

:func:`build_naive_plan` translates a statement into the Naive Plan (NP) of
Section 5.2.1, faithfully reproducing the operator sequences of Section 4.3
for every benchmark type.  The optimized plans derive from NP by rewriting:

* **JOP** = :func:`repro.algebra.rewrite.push_join_to_sql` (property P2 +
  join pushdown) applied to NP;
* **POP** = :func:`repro.algebra.rewrite.replace_join_with_pivot` (property
  P3) applied to JOP.

:func:`feasible_plans` implements the feasibility matrix of Section 5.2:
constant benchmarks admit only NP (there is no join), external benchmarks
NP/JOP, sibling and past benchmarks NP/JOP/POP.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.errors import PlanError
from ..core.groupby import GroupBySet
from ..core.query import CubeQuery, Predicate
from ..core.rules import external_findings, property_findings, raise_first
from ..core.statement import (
    AncestorBenchmark,
    AssessStatement,
    ConstantBenchmark,
    ExternalBenchmark,
    PastBenchmark,
    SiblingBenchmark,
    ZeroBenchmark,
)
from ..olap.engine import MultidimensionalEngine
from . import rewrite
from .plan import (
    AddConstantNode,
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

COMPARISON_COLUMN = "comparison"
LABEL_COLUMN = "label"
NP, JOP, POP = "NP", "JOP", "POP"


def feasible_plans(statement: AssessStatement) -> Tuple[str, ...]:
    """The plans applicable to a statement's benchmark type (Section 5.2)."""
    benchmark = statement.benchmark
    if isinstance(benchmark, (ZeroBenchmark, ConstantBenchmark, AncestorBenchmark)):
        return (NP,)
    if isinstance(benchmark, ExternalBenchmark):
        return (NP, JOP)
    if isinstance(benchmark, (SiblingBenchmark, PastBenchmark)):
        return (NP, JOP, POP)
    raise PlanError(f"unknown benchmark type {type(benchmark).__name__}")


def build_plan(
    statement: AssessStatement,
    engine: MultidimensionalEngine,
    plan_name: str = NP,
    validate: bool = True,
) -> Plan:
    """Build a named plan for a statement.

    ``plan_name`` is ``"NP"``, ``"JOP"``, ``"POP"`` or ``"best"`` (the most
    optimized feasible plan — the one Table 3 reports).  With ``validate``
    (the default) the built plan is re-verified by the static analyzer's
    plan passes, so a broken rewrite fails here with every defect listed
    instead of crashing mid-execution.
    """
    feasible = feasible_plans(statement)
    if plan_name == "best":
        plan_name = feasible[-1]
    if plan_name not in feasible:
        raise PlanError(
            f"plan {plan_name} is not feasible for a "
            f"{statement.benchmark.kind} benchmark (feasible: {', '.join(feasible)})"
        )
    plan = build_naive_plan(statement, engine)
    if plan_name != NP:
        plan = rewrite.push_join_to_sql(plan)
        plan.name = JOP
    if plan_name == POP:
        plan = rewrite.replace_join_with_pivot(plan)
        plan.name = POP
    if validate:
        validate_plan(plan, statement)
    return plan


def validate_plan(plan: Plan, statement: AssessStatement) -> None:
    """Run the analyzer's plan passes; raise :class:`PlanError` listing
    *every* error-severity finding at once."""
    from ..analysis import verify_plan

    bag = verify_plan(plan, statement)
    if bag.has_errors:
        details = "\n".join(
            f"  {diagnostic.code}: {diagnostic.message}"
            for diagnostic in bag.errors()
        )
        raise PlanError(
            f"plan {plan.name} failed verification:\n{details}"
        )


def build_all_plans(
    statement: AssessStatement, engine: MultidimensionalEngine
) -> Dict[str, Plan]:
    """Every feasible plan for a statement, keyed by name."""
    return {
        name: build_plan(statement, engine, name)
        for name in feasible_plans(statement)
    }


# ----------------------------------------------------------------------
# NP construction (Section 4.3 semantics, one branch per benchmark type)
# ----------------------------------------------------------------------
def build_naive_plan(
    statement: AssessStatement, engine: MultidimensionalEngine
) -> Plan:
    """The Naive Plan: only gets are pushed to SQL; everything else runs in
    memory on cube objects (Section 5.2.1)."""
    benchmark = statement.benchmark
    if isinstance(benchmark, (ZeroBenchmark, ConstantBenchmark)):
        root, benchmark_column = _constant_pipeline(statement)
    elif isinstance(benchmark, ExternalBenchmark):
        root, benchmark_column = _external_pipeline(statement, engine)
    elif isinstance(benchmark, SiblingBenchmark):
        root, benchmark_column = _sibling_pipeline(statement)
    elif isinstance(benchmark, PastBenchmark):
        root, benchmark_column = _past_pipeline(statement, engine)
    elif isinstance(benchmark, AncestorBenchmark):
        root, benchmark_column = _ancestor_pipeline(statement)
    else:
        raise PlanError(f"unknown benchmark type {type(benchmark).__name__}")

    root = _attach_properties(root, statement, engine)
    root = UsingNode(root, statement.using, COMPARISON_COLUMN)
    root = LabelNode(root, statement.labels, COMPARISON_COLUMN, LABEL_COLUMN)
    return Plan(
        NP,
        root,
        measure=statement.measure,
        benchmark_column=benchmark_column,
        comparison_column=COMPARISON_COLUMN,
        label_column=LABEL_COLUMN,
    )


def _attach_properties(
    root: PlanNode, statement: AssessStatement, engine: MultidimensionalEngine
) -> PlanNode:
    """Insert AttachProperty nodes for descriptive-property references.

    Any unqualified ``using`` reference that is neither a schema measure nor
    a benchmark column must name a level property bound by the star schema
    (§8 extension) whose level is grouped (ASSESS124, checked here because
    only the engine knows the bindings).
    """
    from .plan import AttachPropertyNode

    attached = set()
    for ref in statement.using.references():
        name = ref.name
        if ref.qualifier is None:
            if statement.schema.has_measure(name) or ref.column_name in attached:
                continue
        elif ref.qualifier == "benchmark":
            benchmark_schema = statement.schema
            if isinstance(statement.benchmark, ExternalBenchmark):
                benchmark_schema = engine.cube(statement.benchmark.cube).schema
            is_measure = (
                benchmark_schema.has_measure(name)
                or name == statement.benchmark_measure
            )
            if is_measure or ref.column_name in attached:
                continue
        else:
            continue
        level = None
        if engine.has_property(statement.source, name):
            level, _, _ = engine.cube(statement.source).star.property_binding(name)
        raise_first(property_findings(
            name, statement.source, level, statement.group_by.levels
        ))
        fixed_member = None
        if ref.qualifier == "benchmark":
            benchmark = statement.benchmark
            if isinstance(benchmark, SiblingBenchmark) and benchmark.level == level:
                # the benchmark slice sits at the sibling member, so its
                # property value is that member's (e.g. France's population)
                fixed_member = benchmark.sibling
            # for other benchmark types the benchmark cell shares the
            # target's member on this level, so the per-cell lookup applies
        root = AttachPropertyNode(
            root, statement.source, name, level,
            out_name=ref.column_name, fixed_member=fixed_member,
        )
        attached.add(ref.column_name)
    return root


def _target_query(statement: AssessStatement) -> CubeQuery:
    """The get of the target cube, fetching every measure ``using`` needs.

    The assessed measure comes first; further unqualified measure references
    in the ``using`` clause (derived measures like ``storeSales -
    storeCost``) are appended so the comparison can be evaluated.
    """
    measures = [statement.measure]
    for ref in statement.using.references():
        if (
            ref.qualifier is None
            and statement.schema.has_measure(ref.name)
            and ref.name not in measures
        ):
            measures.append(ref.name)
    return CubeQuery(
        statement.source, statement.group_by, statement.predicates, tuple(measures)
    )


def _benchmark_measures(statement: AssessStatement, schema) -> Tuple[str, ...]:
    """Measures a benchmark get must fetch: ``m_B`` plus any further
    ``benchmark.``-qualified references in the using clause."""
    measures = [statement.benchmark_measure]
    for ref in statement.using.references():
        if (
            ref.qualifier == "benchmark"
            and schema.has_measure(ref.name)
            and ref.name not in measures
        ):
            measures.append(ref.name)
    return tuple(measures)


def _constant_pipeline(statement: AssessStatement) -> Tuple[PlanNode, str]:
    """Constant/zero benchmark: ``C = [get]`` plus a constant column.

    The benchmark cube "has exactly the same coordinates as C" with a
    constant measure, so materialising it separately and joining would be
    pure overhead; the constant column on the target IS the joined cube.
    """
    value = (
        statement.benchmark.value
        if isinstance(statement.benchmark, ConstantBenchmark)
        else 0.0
    )
    column = f"benchmark.{statement.benchmark_measure}"
    node: PlanNode = GetNode(_target_query(statement), role="target")
    node = AddConstantNode(node, value, column)
    return node, column


def _external_pipeline(
    statement: AssessStatement, engine: MultidimensionalEngine
) -> Tuple[PlanNode, str]:
    """External benchmark: ``C = [get target] ⋈ [B]`` (natural drill-across)."""
    benchmark = statement.benchmark
    assert isinstance(benchmark, ExternalBenchmark)
    external = engine.cube(benchmark.cube)
    raise_first(external_findings(
        benchmark.cube, benchmark.measure_name, external.schema,
        statement.group_by.levels,
    ))
    external_group_by = GroupBySet(external.schema, statement.group_by.levels)
    external_predicates = tuple(
        p for p in statement.predicates if external.schema.has_level(p.level)
    )
    benchmark_query = CubeQuery(
        benchmark.cube,
        external_group_by,
        external_predicates,
        _benchmark_measures(statement, external.schema),
    )
    target = GetNode(_target_query(statement), role="target")
    bench = GetNode(benchmark_query, role="benchmark", name="benchmark")
    join = JoinNode(
        target, bench, join_levels=None, alias="benchmark",
        outer=statement.star, pushed=False,
    )
    return join, f"benchmark.{benchmark.measure_name}"


def _sibling_pipeline(statement: AssessStatement) -> Tuple[PlanNode, str]:
    """Sibling benchmark: partial join on ``G \\ l_s`` with the sibling slice."""
    benchmark = statement.benchmark
    assert isinstance(benchmark, SiblingBenchmark)
    slice_predicate = statement.slice_predicate(benchmark.level)
    benchmark_predicates = tuple(
        Predicate.eq(benchmark.level, benchmark.sibling) if p == slice_predicate else p
        for p in statement.predicates
    )
    benchmark_query = CubeQuery(
        statement.source, statement.group_by, benchmark_predicates,
        _benchmark_measures(statement, statement.schema),
    )
    join_levels = [
        level for level in statement.group_by.levels if level != benchmark.level
    ]
    target = GetNode(_target_query(statement), role="target")
    bench = GetNode(benchmark_query, role="benchmark", name="benchmark")
    join = JoinNode(
        target, bench, join_levels=join_levels, alias="benchmark",
        outer=statement.star, pushed=False,
    )
    return join, f"benchmark.{statement.measure}"


def _past_pipeline(
    statement: AssessStatement, engine: MultidimensionalEngine
) -> Tuple[PlanNode, str]:
    """Past benchmark, following the NP of Example 4.5 step by step:

    get B (the k past slices) → pivot B onto the latest past slice →
    regression → partial join with C on ``G \\ l_t``.
    """
    benchmark = statement.benchmark
    assert isinstance(benchmark, PastBenchmark)
    measure = statement.measure
    level = statement.temporal_level
    slice_predicate = statement.slice_predicate(level)
    member = next(iter(slice_predicate.member_set()))
    past_members = engine.predecessors(statement.source, level, member, benchmark.k)
    if not past_members:
        raise PlanError(
            f"no past slices before {member!r} on level {level!r} "
            f"for the past benchmark"
        )
    benchmark_predicates = tuple(
        Predicate.isin(level, past_members) if p == slice_predicate else p
        for p in statement.predicates
    )
    benchmark_query = CubeQuery(
        statement.source, statement.group_by, benchmark_predicates, (measure,)
    )
    renames = {
        past: {measure: f"past_{i + 1}"} for i, past in enumerate(past_members)
    }
    history_columns = [f"past_{i + 1}" for i in range(len(past_members))]

    # Spread pivot (reference=None): one row per rest-key present in any
    # past slice, so cells missing from the newest slice still get a
    # forecast — the same set of cells JOP's fan-in join and POP's
    # target-anchored pivot produce.
    bench: PlanNode = GetNode(benchmark_query, role="benchmark", name="benchmark")
    bench = PivotNode(bench, level, None, renames, require_all=False,
                      pushed=False, fill_member=past_members[-1])
    bench = PredictNode(bench, benchmark.method, history_columns, "prediction")
    bench = ProjectNode(bench, ["prediction"], renames={"prediction": measure})

    join_levels = [l for l in statement.group_by.levels if l != level]
    target = GetNode(_target_query(statement), role="target")
    join = JoinNode(
        target, bench, join_levels=join_levels, alias="benchmark",
        outer=statement.star, pushed=False,
    )
    return join, f"benchmark.{measure}"


def _ancestor_pipeline(statement: AssessStatement) -> Tuple[PlanNode, str]:
    """Ancestor benchmark (extension): roll the slice level up and compare
    every cell against its ancestor's aggregate."""
    benchmark = statement.benchmark
    assert isinstance(benchmark, AncestorBenchmark)
    coarser_levels = [
        benchmark.ancestor_level if level == benchmark.level else level
        for level in statement.group_by.levels
    ]
    coarser = GroupBySet(statement.schema, coarser_levels)
    hierarchy = statement.schema.hierarchy_of_level(benchmark.level)
    benchmark_predicates = tuple(
        p for p in statement.predicates if not hierarchy.has_level(p.level)
    )
    benchmark_query = CubeQuery(
        statement.source, coarser, benchmark_predicates, (statement.measure,)
    )
    target = GetNode(_target_query(statement), role="target")
    bench = GetNode(benchmark_query, role="benchmark", name="benchmark")
    join = RollupJoinNode(
        target, bench, benchmark.level, benchmark.ancestor_level,
        alias="benchmark", outer=statement.star,
    )
    return join, f"benchmark.{statement.measure}"

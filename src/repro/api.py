"""Public API: the :class:`AssessSession` facade.

A session bundles everything a user needs to pose assess statements: the
multidimensional engine holding registered cubes, a session-local function
registry, and predeclared labeling functions.  Typical use::

    from repro import AssessSession
    from repro.datagen import sales_engine

    session = AssessSession(sales_engine())
    result = session.assess('''
        with SALES for year = '1997', product = 'milk' by year, product
        assess quantity against 1000
        using ratio(quantity, 1000)
        labels {[0, 0.9): bad, [0.9, 1.1]: acceptable, (1.1, inf): good}
    ''')
    print(result.to_table())
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .algebra.executor import PlanExecutor
from .algebra.plan import GetNode, JoinNode, PivotNode, Plan
from .algebra.planner import build_all_plans, build_plan, feasible_plans
from .core.deadline import Deadline, bound
from .core.labels import LabelRule, RangeLabeling
from .core.result import AssessResult
from .core.schema import CubeSchema
from .core.statement import AssessStatement
from .engine.star import StarSchema
from .functions.registry import FunctionRegistry, default_registry
from .olap.engine import MultidimensionalEngine
from .parser.parser import parse_statement

StatementLike = Union[str, AssessStatement]


class AssessSession:
    """A user session against one multidimensional engine."""

    def __init__(
        self,
        engine: MultidimensionalEngine,
        registry: Optional[FunctionRegistry] = None,
        parallelism: Optional[int] = None,
        morsel_rows: Optional[int] = None,
        memory_budget: Optional[int] = None,
        telemetry=None,
    ):
        self.engine = engine
        # Copy the default registry so user registrations stay session-local.
        self.registry = registry.copy() if registry else default_registry().copy()
        self._executor = PlanExecutor(engine, self.registry)
        # Named labeling *specs* (e.g. coordinate-dependent labelings) that
        # cannot be plain value→label functions; resolved at plan time.
        self._named_specs: Dict[str, object] = {}
        # Engine settings given here (not ``None``) go to engine.configure,
        # under its precedence rule (docs/performance.md, "Configuration").
        # They change how a statement runs, never what it answers.
        given = dict(
            parallelism=parallelism, morsel_rows=morsel_rows,
            memory_budget=memory_budget,
        )
        given = {name: value for name, value in given.items() if value is not None}
        if given:
            engine.configure(**given)
        # Persistent telemetry: ``telemetry=`` takes a directory path or
        # a shared :class:`repro.obs.telemetry.Telemetry`; ``None`` falls
        # back to the engine's ``telemetry_dir`` setting (unset =
        # disabled).  When enabled, every executed statement appends one
        # record to the query log — see docs/observability.md
        # "Persistent telemetry".  Recording never changes results.
        from .obs.telemetry import Telemetry

        self.telemetry = Telemetry.resolve(telemetry, engine.settings)
        # Sessions sharing one bundle (a server tenant's pool) each get
        # a distinct label so query-log records stay attributable.
        self.telemetry_label = (
            self.telemetry.register_session()
            if self.telemetry is not None else None
        )

    def set_memory_budget(self, budget_bytes: Optional[int]) -> None:
        """Bound fact-pass grouping state (bytes); ``None`` removes it."""
        self.engine.configure(memory_budget=budget_bytes)

    @property
    def memory_budget(self) -> Optional[int]:
        """The engine's memory budget in bytes (``None`` = unbounded)."""
        return self.engine.settings.memory_budget

    def set_parallelism(
        self,
        degree: Optional[int],
        morsel_rows: Optional[int] = None,
        min_rows: Optional[int] = None,
    ) -> None:
        """Reconfigure parallel execution (``None``/``1`` turns it off;
        ``None`` morsel size and floor take the defaults)."""
        self.engine.configure(
            parallelism=degree, morsel_rows=morsel_rows, min_rows=min_rows
        )

    @property
    def parallelism(self) -> int:
        """The effective parallelism degree (1 when serial)."""
        return self.engine.settings.parallelism

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_cube(self, name: str, schema: CubeSchema, star: StarSchema) -> None:
        """Make a detailed cube available in ``with`` clauses."""
        self.engine.register_cube(name, schema, star)

    def register_function(
        self,
        name: str,
        kind: str,
        func: Callable,
        arity: Optional[int] = None,
        doc: str = "",
    ) -> None:
        """Register a user comparison/transformation/labeling/prediction
        function for use in ``using``/``labels`` clauses."""
        self.registry.register(name, kind, func, arity=arity, doc=doc)

    def define_labeling(self, name: str, rules: Sequence[LabelRule]) -> None:
        """Predeclare a named range-based labeling function (e.g. ``5stars``
        of Example 3.3), usable as ``labels <name>``."""
        labeling = RangeLabeling(rules)

        def apply_ranges(values: np.ndarray) -> np.ndarray:
            return labeling.apply(values)

        self.registry.register(
            name, "labeling", apply_ranges,
            arity=1, doc=f"range labeling {labeling.render()}",
        )

    def define_labeling_spec(self, name: str, spec) -> None:
        """Predeclare a named labeling *spec* (e.g. a
        :class:`~repro.core.labels.CoordinateLabeling`).

        Unlike :meth:`define_labeling`, the spec is substituted into the
        statement at plan time, so it can consult cell coordinates — the
        §8 "ranges that depend ... also on their coordinates" extension.
        """
        self._named_specs[name.lower()] = spec

    # ------------------------------------------------------------------
    # Statement life cycle
    # ------------------------------------------------------------------
    def parse(self, text: str) -> AssessStatement:
        """Parse statement text against the session's registered cubes,
        functions and labelings; raises the analyzer's first error (see
        :func:`~repro.parser.parser.parse_statement`)."""
        from .analysis.context import AnalysisContext

        return parse_statement(text, AnalysisContext.for_session(self))

    def analyze(self, text: str):
        """Statically analyze statement text without raising.

        Returns a :class:`~repro.core.diagnostics.DiagnosticBag` with every
        finding of the analyzer — syntax errors, semantic defects, and
        warnings alike — instead of the first-failure behaviour of
        :meth:`parse`.
        """
        from .analysis import AnalysisContext, analyze_text

        _, bag = analyze_text(text, AnalysisContext.for_session(self))
        return bag

    def _resolve(self, statement: StatementLike) -> AssessStatement:
        if isinstance(statement, AssessStatement):
            return statement
        return self.parse(statement)

    def plan(self, statement: StatementLike, plan: str = "best") -> Plan:
        """Build a named execution plan.

        ``plan`` is ``NP``/``JOP``/``POP``, ``best`` (the most optimized
        feasible plan, the paper's static rule), or ``auto`` (cost-based
        selection over all feasible plans).
        """
        resolved = self._resolve(statement)
        self._substitute_named_spec(resolved)
        if plan == "auto":
            from .algebra.cost import choose_plan

            chosen, _ = choose_plan(resolved, self.engine)
            return chosen
        return build_plan(resolved, self.engine, plan)

    def _substitute_named_spec(self, statement: AssessStatement) -> None:
        from .core.labels import NamedLabeling

        labels = statement.labels
        if isinstance(labels, NamedLabeling):
            spec = self._named_specs.get(labels.name.lower())
            if spec is not None:
                statement.labels = spec

    def plans(self, statement: StatementLike) -> Dict[str, Plan]:
        """All feasible plans for a statement."""
        return build_all_plans(self._resolve(statement), self.engine)

    def assess(
        self,
        statement: StatementLike,
        plan: str = "best",
        deadline: Optional[Deadline] = None,
    ) -> AssessResult:
        """Parse (if needed), plan, and execute an assess statement.

        With telemetry enabled the execution (plan choice included) is
        additionally recorded as one query-log record — fingerprint,
        per-phase timings, counter deltas, rows in/out; errors after a
        successful parse are recorded too (``status: "error"``) and
        re-raised unchanged.

        ``deadline`` (a :class:`~repro.core.deadline.Deadline`) is
        checked before each plan operator and each morsel; once it is
        spent the call raises
        :class:`~repro.core.deadline.DeadlineExceeded`.
        """
        with bound(deadline):
            resolved = self._resolve(statement)
            if self.telemetry is None:
                return self._executor.execute(self.plan(resolved, plan), resolved)
            return self._assess_recorded(resolved, plan)

    def _assess_recorded(
        self, resolved: AssessStatement, plan: str
    ) -> AssessResult:
        import time

        telemetry = self.telemetry
        counters_before = self.engine.metrics.snapshot()["counters"]
        start = time.perf_counter()
        try:
            built = self.plan(resolved, plan)
            result = self._executor.execute(built, resolved)
        except Exception as error:
            telemetry.record_statement(
                resolved,
                plan_name=plan,
                status="error",
                total_s=time.perf_counter() - start,
                counters_before=counters_before,
                counters_after=self.engine.metrics.snapshot()["counters"],
                error=f"{type(error).__name__}: {error}",
                parallelism=self.parallelism,
                memory_budget=self.memory_budget,
                session_label=self.telemetry_label,
            )
            raise
        telemetry.record_statement(
            resolved,
            plan_name=result.plan_name,
            status="ok",
            total_s=time.perf_counter() - start,
            phases=result.timings,
            rows_out=len(result),
            cells_out=len(result.cube) * max(len(result.cube.measures), 1),
            counters_before=counters_before,
            counters_after=self.engine.metrics.snapshot()["counters"],
            parallelism=self.parallelism,
            memory_budget=self.memory_budget,
            session_label=self.telemetry_label,
        )
        return result

    def execute_plan(self, plan: Plan, statement: StatementLike) -> AssessResult:
        """Execute an already-built plan (benchmark harness entry point)."""
        return self._executor.execute(plan, self._resolve(statement))

    def execute_many(
        self,
        statements: Sequence[StatementLike],
        plan: str = "best",
        deadline: Optional[Deadline] = None,
    ):
        """Plan and execute a statement batch with cross-statement sharing.

        The batch subsystem merges the statements' plans into one shared
        DAG: identical pushed queries execute once (CSE by canonical
        fingerprint), and compatible gets over the same star are answered
        from fused multi-group-by scans.  Results are bit-identical to
        calling :meth:`assess` once per statement and come back in input
        order, with per-statement timings and a sharing report
        (``result.report.render()``).  ``plan="auto"`` uses the
        batch-aware cost model, which prefers plans that maximize
        sharing.  See ``docs/performance.md``.  ``deadline`` bounds the
        whole batch, checked as in :meth:`assess`.
        """
        from .batch import run_batch

        with bound(deadline):
            return run_batch(self, list(statements), plan=plan)

    def analyze_workload(self, text: str, plan: str = "best"):
        """Statically analyze a whole workload script against this session.

        Runs the flow analyzer (:mod:`repro.analysis.flow`) over the
        script: per-statement diagnostics plus the predicted sharing plan
        (fused scans), cache-derivation edges, float-exactness verdicts,
        and cardinality/cost bounds — everything the ``ASSESS5xx`` group
        covers, without executing a single statement.  Returns a
        :class:`repro.analysis.flow.WorkloadReport`.
        """
        from .analysis.flow import analyze_workload

        return analyze_workload(
            text, session=self, origin="<session>", plan_name=plan
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Lifetime counters and occupancy of the engine's result cache.

        Keys: ``hits``/``misses``/``derivations``/``evictions``/
        ``invalidations``/``stores`` plus ``entries``, ``cached_cells``,
        ``cached_bytes``, ``cell_budget`` and ``enabled``, and the batch
        sharing counters ``batch_statements``/``batch_cse_hits``/
        ``batch_fused_groups``/``batch_fused_scans``/
        ``batch_fused_derived``/``batch_fused_fallbacks``.  All counters
        are served by the engine's metrics registry
        (``session.engine.metrics``); see ``docs/performance.md`` and
        ``docs/observability.md`` for how to read them.
        """
        stats = self.engine.result_cache.stats()
        metrics = self.engine.metrics
        stats.update(
            batch_statements=metrics.get("batch.statements"),
            batch_cse_hits=metrics.get("batch.cse_hits"),
            batch_fused_groups=metrics.get("batch.fused_groups"),
            batch_fused_scans=metrics.get("engine.fused_scans"),
            batch_fused_derived=metrics.get("engine.fused_derived"),
            batch_fused_fallbacks=metrics.get("engine.fused_fallbacks"),
        )
        return stats

    def clear_cache(self) -> None:
        """Drop every memoized query result (counters are kept)."""
        self.engine.result_cache.clear()

    def explain(self, statement: StatementLike, plan: str = "best") -> str:
        """The plan tree (with per-node cost-model estimates) plus the SQL
        text of every pushed operation."""
        from .algebra.cost import estimate_plan_cost
        from .obs.analyze import annotate_estimates

        resolved = self._resolve(statement)
        built = build_plan(resolved, self.engine, plan)
        estimate = estimate_plan_cost(built, self.engine)
        parts = [annotate_estimates(built, estimate), ""]
        for i, sql in enumerate(self.pushed_sql(built), start=1):
            parts.append(f"-- pushed query {i}")
            parts.append(sql)
            parts.append("")
        return "\n".join(parts).rstrip() + "\n"

    def explain_analyze(
        self,
        statement: Union[StatementLike, Sequence[StatementLike]],
        plan: str = "best",
    ):
        """Execute with tracing and annotate the plan tree with actuals.

        Accepts one statement or a list (a list executes as a shared
        batch via :meth:`execute_many`, so the annotations show CSE and
        fusion provenance).  Returns an
        :class:`~repro.obs.analyze.ExplainAnalyzeReport`: ``render()``
        for the estimated-vs-actual tree, ``to_json()`` /
        ``to_chrome()`` for machine-readable traces, ``result`` /
        ``results`` for the assess results themselves.  Raises on an
        unregistered cube (diagnostic ``ASSESS401``).
        """
        from .obs.analyze import explain_analyze as _explain_analyze

        statements: List[StatementLike]
        if isinstance(statement, (str, AssessStatement)):
            statements = [statement]
        else:
            statements = list(statement)
        return _explain_analyze(self, statements, plan=plan)

    def pushed_sql(self, plan: Plan) -> List[str]:
        """The SQL statements a plan sends to the DBMS, in execution order."""
        statements: List[str] = []
        consumed_gets = set()
        for node in plan.nodes():
            if isinstance(node, JoinNode) and node.pushed:
                join_levels = (
                    node.join_levels
                    if node.join_levels is not None
                    else node.left.query.group_by.levels
                )
                statements.append(
                    self.engine.sql_for_drill_across(
                        node.left.query, node.right.query, join_levels,
                        alias=node.alias, outer=node.outer,
                    )
                )
                consumed_gets.add(id(node.left))
                consumed_gets.add(id(node.right))
            elif isinstance(node, PivotNode) and node.pushed:
                statements.append(
                    self.engine.sql_for_pivot(
                        node.child.query, node.level, node.reference,
                        node.member_renames, require_all=node.require_all,
                    )
                )
                consumed_gets.add(id(node.child))
        for node in plan.nodes():
            if isinstance(node, GetNode) and id(node) not in consumed_gets:
                statements.append(self.engine.sql_for_get(node.query))
        return statements

    def feasible_plans(self, statement: StatementLike) -> Sequence[str]:
        """The plan names applicable to a statement (Section 5.2 matrix)."""
        return feasible_plans(self._resolve(statement))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AssessSession(cubes={list(self.engine.cube_names())})"

"""Cost-based plan selection (the paper's §8 future work).

"Investigate the relevant properties of our logical operators and develop a
cost-based optimization strategy."

The model estimates each plan node's cost from catalog statistics —
fact-table cardinality, per-level distinct counts, predicate selectivities
— using textbook estimators:

* **selectivity** of ``l = u`` is ``1/|Dom(l)|``; of ``l IN {u1..uk}`` is
  ``k/|Dom(l)|``; range predicates get a fixed default;
* the **number of groups** of an aggregation over ``n`` rows with ``s``
  possible slots follows the Poisson "balls in bins" estimator
  ``s · (1 − e^(−n/s))``;
* per-row weights separate *engine* (vectorised) work from *in-memory*
  (cube-object) work, reflecting the measured gap between pushed and
  in-memory operators.

Costs are relative, unit-free weights — only the *ordering* of plans
matters.  :func:`choose_plan` estimates every feasible plan of a statement
and returns the cheapest, giving ``AssessSession.assess(..., plan="auto")``
its brains.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.query import CubeQuery, Predicate, PredicateOp
from ..core.statement import AssessStatement
from ..engine.columns import plan_zone_pruning
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
from .planner import build_all_plans

# Relative per-row weights (engine rows are vectorised; cube rows are not).
SCAN_WEIGHT = 1.0          # engine: scan + mask one fact row
GROUP_WEIGHT = 4.0         # engine: factorize + aggregate one grouped row
ENGINE_JOIN_WEIGHT = 3.0   # engine: hash-join one result row
ENGINE_PIVOT_WEIGHT = 4.0  # engine: pivot-scatter one result row
MEMORY_ROW_WEIGHT = 40.0   # cube objects: per-cell Python-level work
TRANSFORM_WEIGHT = 2.0     # vectorised per-cell transform work
RANGE_SELECTIVITY = 0.3    # default selectivity of between predicates
WARM_CELL_WEIGHT = 0.2     # cache: serve a memoized result (copy-out only)
DERIVE_CELL_WEIGHT = 6.0   # cache: re-aggregate a cached finer result
MORSEL_OVERHEAD = 50.0     # parallel: dispatch + collect one morsel task
MERGE_ROW_WEIGHT = 2.0     # parallel: merge one per-morsel partial row
SPILL_ROW_WEIGHT = 3.0     # spill: partition + write + re-read + re-merge
                           # one buffered partial row (I/O-bound, so
                           # heavier than the in-RAM merge weight)
SPILL_MORSEL_ROWS = 65_536  # the spill tier's scan granularity when the
                            # engine is otherwise serial


class CostEstimate:
    """An estimated plan cost with its per-node breakdown.

    Besides the per-node-type totals, the estimate records each visited
    node's charged cost and estimated output cardinality keyed by
    ``id(node)`` — the per-node annotations ``explain()`` and
    ``explain_analyze()`` render next to the actual row counts.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.total = 0.0
        self.breakdown: Dict[str, float] = {}
        self.node_costs: Dict[int, float] = {}
        self.node_rows: Dict[int, float] = {}
        # How the model expects each get to execute ("serial", "parallel",
        # "warm", "derive", "shared") — explain() renders this next to the
        # cost, and tests assert the serial-vs-parallel decision.
        self.node_modes: Dict[int, str] = {}

    def record_mode(self, node: PlanNode, mode: str) -> None:
        self.node_modes[id(node)] = mode

    def charge(self, node: PlanNode, cost: float) -> None:
        self.total += cost
        key = type(node).__name__
        self.breakdown[key] = self.breakdown.get(key, 0.0) + cost
        self.node_costs[id(node)] = self.node_costs.get(id(node), 0.0) + cost

    def record_rows(self, node: PlanNode, rows: float) -> None:
        self.node_rows[id(node)] = rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostEstimate({self.plan.name}, total={self.total:.0f})"


class Statistics:
    """Catalog statistics provider, with per-source caching."""

    def __init__(self, engine: MultidimensionalEngine):
        self.engine = engine
        self._fact_rows: Dict[str, int] = {}
        self._cardinalities: Dict[Tuple[str, str], int] = {}
        self._zone_survival: Dict[CubeQuery, float] = {}

    def parallel_degree(self, source: str) -> int:
        """The parallelism a fact pass over this source would run at.

        1 when parallelism is off or the fact table falls below the
        eligibility floor — the executor would stay serial, so the model
        must price it serial too.
        """
        config = self.engine.parallel
        if config is None or not config.eligible(self.fact_rows(source)):
            return 1
        return config.degree

    def morsels(self, source: str) -> int:
        """How many morsel tasks a parallel pass over this source spawns."""
        if self.engine.parallel is None:
            return 1
        morsel_rows = self.engine.settings.morsel_rows
        return max(1, -(-self.fact_rows(source) // morsel_rows))

    def fact_rows(self, source: str) -> int:
        if source not in self._fact_rows:
            star = self.engine.cube(source).star
            self._fact_rows[source] = len(self.engine.catalog.table(star.fact_table))
        return self._fact_rows[source]

    def level_cardinality(self, source: str, level: str) -> int:
        key = (source, level)
        if key not in self._cardinalities:
            star = self.engine.cube(source).star
            table_token, column = star.column_for_level(level)
            table_name = (
                star.fact_table if table_token == "__fact__" else table_token
            )
            table = self.engine.catalog.table(table_name)
            _, cardinality = table.dictionary(column)
            self._cardinalities[key] = max(cardinality, 1)
        return self._cardinalities[key]

    def selectivity(self, source: str, predicate: Predicate) -> float:
        cardinality = self.level_cardinality(source, predicate.level)
        if predicate.op is PredicateOp.EQ:
            return 1.0 / cardinality
        if predicate.op is PredicateOp.IN:
            return min(1.0, len(predicate.values) / cardinality)
        return RANGE_SELECTIVITY

    def zone_survival(self, query: CubeQuery) -> float:
        """Fraction of fact rows a zone-pruned scan of this query touches.

        Plans the *same* pruning the executor would perform (same
        :func:`plan_zone_pruning` over the pushed query's predicates and
        joins), so the planner and the engine always agree on what gets
        skipped.  1.0 when the fact table carries no zone maps, pruning
        is disabled, or nothing prunes.
        """
        if query not in self._zone_survival:
            fraction = 1.0
            if self.engine.settings.zone_pruning:
                try:
                    pushed = self.engine.build_aggregate_query(query)
                    fact = self.engine.catalog.table(pushed.fact)
                    pruner = plan_zone_pruning(
                        self.engine.catalog, fact, pushed.fact,
                        pushed.where, pushed.joins,
                    )
                    if pruner is not None:
                        fraction = pruner.survival_fraction()
                except Exception:
                    fraction = 1.0
            self._zone_survival[query] = fraction
        return self._zone_survival[query]

    def scanned_rows(self, query: CubeQuery) -> float:
        total = float(self.fact_rows(query.source))
        rows = total
        for predicate in query.predicates:
            rows *= self.selectivity(query.source, predicate)
        # Zone-map pruning bounds the scan physically: only surviving
        # zones are decoded, whatever the per-row selectivities say.
        rows = min(rows, total * self.zone_survival(query))
        return max(rows, 1.0)

    def result_cells(self, query: CubeQuery) -> float:
        """Poisson estimator of the derived cube's cardinality |C|."""
        scanned = self.scanned_rows(query)
        slots = 1.0
        for level in query.group_by.levels:
            slots *= self.level_cardinality(query.source, level)
            # predicates on group-by levels shrink the slot space too
            predicate = query.predicate_on(level)
            if predicate is not None:
                slots *= self.selectivity(query.source, predicate)
        slots = max(slots, 1.0)
        if scanned / slots > 50:  # effectively dense
            return slots
        return slots * (1.0 - math.exp(-scanned / slots))

    def spill_admitted(self, query: CubeQuery) -> bool:
        """Whether the executor would route this get through the spill tier.

        Asks the executor's own lowering (budget admission plus the
        float-exactness gate: measures whose sums are not exactly
        re-aggregable run in RAM as one morsel, so the model must price
        them serial too).
        """
        if self.engine.settings.memory_budget is None:
            return False
        try:
            aggregate = self.engine.build_aggregate_query(query)
            return self.engine.executor.tier_of(aggregate) == "spill"
        except Exception:
            return False

    def cache_probe(self, query: CubeQuery) -> Optional[str]:
        """Whether the engine's result cache would answer a get warm.

        Returns ``"exact"``, ``"derive"``, or ``None`` (cold).  Uses the
        cache's non-mutating probe on the same pushed query the engine
        would build, so the planner can prefer plans whose gets are warm.
        """
        cache = getattr(self.engine, "result_cache", None)
        if cache is None or not cache.enabled:
            return None
        return cache.would_hit(self.engine.build_aggregate_query(query))


class BatchSharedState:
    """Pushed work already paid for by earlier statements of a batch.

    Tracks the canonical fingerprints of chosen plans' pushed gets (a
    repeated get costs only the memo copy-out) and their *scan keys* —
    fact + joins + canonical predicate set.  A get whose scan key is
    already chosen shares a fused fact pass with it, so only its
    grouping-sized work is charged.  :func:`choose_plan_batch` feeds one
    instance through a greedy per-statement selection.
    """

    __slots__ = ("nodes", "scans")

    def __init__(self):
        self.nodes: Set[Tuple] = set()
        self.scans: Set[Tuple] = set()

    def observe(self, plan: Plan, engine: MultidimensionalEngine) -> None:
        """Record a chosen plan's pushed gets as shared for later plans."""
        from ..cache.fingerprint import fingerprint_query

        for node in plan.nodes():
            if isinstance(node, GetNode):
                aggregate = engine.build_aggregate_query(node.query)
                self.nodes.add(fingerprint_query(aggregate))
                self.scans.add(_scan_key(aggregate))


def _scan_key(aggregate) -> Tuple:
    """The shared-scan identity of a pushed get: star + predicate set."""
    from ..cache.fingerprint import _predicate_key

    return (
        aggregate.fact,
        tuple(sorted(
            (j.table, j.fact_fk, j.dim_key) for j in aggregate.joins
        )),
        frozenset(_predicate_key(cp) for cp in aggregate.where),
    )


def estimate_plan_cost(
    plan: Plan, engine: MultidimensionalEngine,
    statistics: Optional[Statistics] = None,
    shared: Optional[BatchSharedState] = None,
) -> CostEstimate:
    """Estimate a plan's execution cost bottom-up.

    Returns the estimate with a per-node-type breakdown; node visits return
    their estimated output cardinality so parents can price their own work.
    With ``shared`` (batch mode), gets whose fingerprint or scan key an
    earlier statement already chose are priced as shared.
    """
    stats = statistics or Statistics(engine)
    estimate = CostEstimate(plan)

    def get_cost(node: GetNode) -> float:
        cells = _get_cost(node)
        estimate.record_rows(node, cells)
        return cells

    def _get_cost(node: GetNode) -> float:
        from ..cache.fingerprint import fingerprint_query

        cells = stats.result_cells(node.query)
        if shared is not None:
            aggregate = engine.build_aggregate_query(node.query)
            if fingerprint_query(aggregate) in shared.nodes:
                # An earlier statement executes this exact get; the batch
                # memo serves it at copy-out cost.
                estimate.charge(node, WARM_CELL_WEIGHT * cells)
                estimate.record_mode(node, "warm")
                return cells
        probe = stats.cache_probe(node.query)
        if probe == "exact":
            # A memoized result: no scan, no grouping — just copy-out.
            estimate.charge(node, WARM_CELL_WEIGHT * cells)
            estimate.record_mode(node, "warm")
            return cells
        if probe == "derive":
            # Re-aggregated from a cached finer result: grouping-sized
            # work over cached rows, still no fact scan.
            estimate.charge(node, DERIVE_CELL_WEIGHT * cells)
            estimate.record_mode(node, "derive")
            return cells
        if shared is not None and _scan_key(aggregate) in shared.scans:
            # Same star and predicates as an already-chosen get: the fused
            # scan is paid once, only the grouping work is marginal.
            estimate.charge(node, GROUP_WEIGHT * cells)
            estimate.record_mode(node, "shared")
            return cells
        scanned = stats.scanned_rows(node.query)
        serial_cost = SCAN_WEIGHT * scanned + GROUP_WEIGHT * cells
        if stats.spill_admitted(node.query):
            # Budgeted execution is not a *choice* — admission forces the
            # get through the bounded-memory tier, so the model prices it
            # (morselised scan, partitioned buffering, run I/O, bucket
            # merges) rather than comparing it against alternatives.
            morsels = max(
                stats.morsels(node.query.source),
                -(-int(scanned) // SPILL_MORSEL_ROWS),
            )
            merge_rows = min(cells * morsels, scanned)
            spill_cost = (
                serial_cost
                + MORSEL_OVERHEAD * morsels
                + SPILL_ROW_WEIGHT * merge_rows
            )
            estimate.charge(node, spill_cost)
            estimate.record_mode(node, "spill")
            return cells
        degree = stats.parallel_degree(node.query.source)
        if degree > 1:
            # Morsel-parallel alternative: the scan+group work divides
            # across workers, plus per-morsel dispatch overhead and a
            # merge pass over the per-morsel partial groups (bounded by
            # both cells·morsels and the scanned rows themselves).
            morsels = stats.morsels(node.query.source)
            merge_rows = min(cells * morsels, scanned)
            parallel_cost = (
                serial_cost / degree
                + MORSEL_OVERHEAD * morsels
                + MERGE_ROW_WEIGHT * merge_rows
            )
            if parallel_cost < serial_cost:
                estimate.charge(node, parallel_cost)
                estimate.record_mode(node, "parallel")
                return cells
        estimate.charge(node, serial_cost)
        estimate.record_mode(node, "serial")
        return cells

    def visit(node: PlanNode) -> float:
        out = _visit(node)
        estimate.record_rows(node, out)
        return out

    def _visit(node: PlanNode) -> float:
        if isinstance(node, GetNode):
            return get_cost(node)
        if isinstance(node, JoinNode):
            if node.pushed:
                left = get_cost(node.left)   # children folded into the query
                right = get_cost(node.right)
                out = min(left, right)
                estimate.charge(node, ENGINE_JOIN_WEIGHT * (left + right))
                return out
            left = visit(node.left)
            right = visit(node.right)
            out = min(left, right)
            estimate.charge(node, MEMORY_ROW_WEIGHT * (left + right))
            return out
        if isinstance(node, PivotNode):
            if node.pushed:
                cells = get_cost(node.child)
                members = max(len(node.member_renames) + 1, 1)
                out = cells / members
                estimate.charge(node, ENGINE_PIVOT_WEIGHT * cells)
                return out
            cells = visit(node.child)
            members = max(len(node.member_renames) + 1, 1)
            out = cells / members
            estimate.charge(node, MEMORY_ROW_WEIGHT * cells)
            return out
        if isinstance(node, RollupJoinNode):
            left = visit(node.left)
            right = visit(node.right)
            estimate.charge(node, MEMORY_ROW_WEIGHT * (left + right))
            return left
        if isinstance(node, PredictNode):
            cells = visit(node.child)
            width = max(len(node.input_columns), 1)
            estimate.charge(node, TRANSFORM_WEIGHT * cells * width)
            return cells
        if isinstance(node, (UsingNode, LabelNode)):
            cells = visit(node.child)
            estimate.charge(node, TRANSFORM_WEIGHT * cells)
            return cells
        if isinstance(node, (ProjectNode, AddConstantNode, AttachPropertyNode)):
            cells = visit(node.child)
            estimate.charge(node, 0.1 * cells)
            return cells
        raise TypeError(f"cost model does not know {type(node).__name__}")

    visit(plan.root)
    return estimate


def choose_plan(
    statement: AssessStatement, engine: MultidimensionalEngine
) -> Tuple[Plan, Dict[str, float]]:
    """Pick the cheapest feasible plan by estimated cost.

    Returns the chosen plan and the estimated totals of every candidate
    (for explain/debug output).
    """
    stats = Statistics(engine)
    plans = build_all_plans(statement, engine)
    estimates = {
        name: estimate_plan_cost(plan, engine, stats)
        for name, plan in plans.items()
    }
    best = min(estimates, key=lambda name: estimates[name].total)
    return plans[best], {name: e.total for name, e in estimates.items()}


def choose_plan_batch(
    statements: Sequence[AssessStatement],
    engine: MultidimensionalEngine,
    analysis=None,
) -> Tuple[List[Plan], List[Dict[str, float]]]:
    """Greedy batch-aware plan selection: maximize cross-statement sharing.

    Statements are planned in input order; each picks the plan with the
    smallest *marginal* cost given what earlier statements already pay
    for (shared fingerprints and scan keys).  Returns the chosen plans
    plus each statement's candidate totals (for explain/debug output).

    ``analysis`` optionally carries a
    :class:`repro.analysis.flow.WorkloadReport`: scan keys the workload
    analyzer proved fusable are seeded as already-shared, so the greedy
    selection prices statically-predicted fused scans as marginal from
    the first statement on instead of discovering them one by one.
    """
    stats = Statistics(engine)
    shared = BatchSharedState()
    if analysis is not None:
        shared.scans.update(analysis.fusable_scan_keys)
    chosen: List[Plan] = []
    totals: List[Dict[str, float]] = []
    for statement in statements:
        candidates = build_all_plans(statement, engine)
        estimates = {
            name: estimate_plan_cost(plan, engine, stats, shared=shared)
            for name, plan in candidates.items()
        }
        best = min(estimates, key=lambda name: estimates[name].total)
        shared.observe(candidates[best], engine)
        chosen.append(candidates[best])
        totals.append({name: e.total for name, e in estimates.items()})
    return chosen, totals

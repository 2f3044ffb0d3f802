"""The workload analyzer: abstract interpretation over a whole script.

:func:`analyze_workload` interprets a ``.assess`` script top to bottom
the way one session would execute it, without executing anything.  Each
statement is bound and planned exactly as the runtime plans it (same
``build_aggregate_query`` routing, same plan selection), and the
analyzer then *abstractly* runs the layers that decide performance:

* a **binding environment** tracks labeling/view definitions in flow
  order (dead and shadowed definitions, ``ASSESS501/502``);
* a **cache simulation** replays the semantic result cache over the
  statements' pushed gets, claiming a statement warm (``ASSESS504``)
  only when every runtime bail-out of the derivation path is statically
  excluded — the roll-up lattice (:func:`repro.cache.derive.can_derive`)
  plus member roll-up availability, member encodability, the exactness
  gate on the base fact column, and a global no-eviction budget guard;
* a **fusion replay** runs the actual :func:`repro.batch.fuse.plan_fusion`
  over the same candidate list ``run_batch`` would build on a fresh
  session (``ASSESS505``), proving a group *exact* only when the fused
  executor's key-space and per-member exactness gates pass statically;
* the **exactness domain** (:class:`ColumnAbstract`) re-derives the
  runtime ``sums_exactly`` gate from catalog stats (``ASSESS506``), and
  interval arithmetic over catalog cardinalities yields sound result-cell
  and cost bounds per statement (``ASSESS507``).

Soundness contract: every claim here ("warm", "fusable-exact",
"parallel-safe", "exact") predicts concrete executor behaviour and is
checked by the differential tests in ``tests/test_workload_soundness.py``.
Whenever a needed statistic, roll-up, or budget proof is unavailable the
analyzer stays silent — unknown is always safe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...algebra.cost import GROUP_WEIGHT, SCAN_WEIGHT, _scan_key
from ...algebra.plan import GetNode, JoinNode, PivotNode, Plan
from ...algebra.planner import build_plan
from ...batch.fuse import FusionGroup, plan_fusion
from ...cache.derive import QueryMeta, can_derive
from ...cache.fingerprint import Fingerprint, fingerprint_query
from ...core.diagnostics import DiagnosticBag, Span
from ...core.statement import AssessStatement
from ...engine.query import FACT, AggregateQuery
from ...engine.spill import grouping_state_bytes, over_budget
from ...parser.parser import parse_raw
from ..codes import severity_of
from ..context import AnalysisContext
from ..statement_passes import analyze_text
from .domains import ColumnAbstract, Exactness, Interval, StatsProvider
from .report import (
    CardinalityBound,
    DerivationEdge,
    ExactnessEntry,
    FusionPrediction,
    StatementInfo,
    WorkloadReport,
)
from .workload import BindingEnv, WorkloadItem, directive_diagnostics, scan_workload

_MAX_COMBINED_KEY = 2 ** 62
"""Same constant as ``repro.engine.executor._MAX_COMBINED_KEY``: the
fused/parallel key-space overflow threshold."""


class _GetInfo:
    """One pushed get of a statement plan, with its static annotations."""

    __slots__ = ("query", "aggregate", "fingerprint", "meta", "rows_ub",
                 "cells_ub", "role")

    def __init__(
        self,
        query: object,
        aggregate: AggregateQuery,
        fingerprint: Fingerprint,
        meta: QueryMeta,
        rows_ub: Optional[int],
        cells_ub: Optional[int],
        role: str,
    ) -> None:
        self.query = query
        self.aggregate = aggregate
        self.fingerprint = fingerprint
        self.meta = meta
        self.rows_ub = rows_ub
        self.cells_ub = cells_ub
        self.role = role


class _StatementRecord:
    """Pass-1 outcome of one workload item."""

    __slots__ = ("item", "bound", "engine", "gets", "composite",
                 "composite_cells_ub", "poisoned", "parallel_safe")

    def __init__(self, item: WorkloadItem) -> None:
        self.item = item
        self.bound: Optional[AssessStatement] = None
        self.engine: Optional[object] = None
        self.gets: List[_GetInfo] = []
        self.composite = False
        # Extra cache occupancy of pushed composite (join/pivot) results,
        # None when unbounded (disables the no-eviction proof).
        self.composite_cells_ub: Optional[int] = 0
        self.poisoned = False
        self.parallel_safe: Optional[bool] = None


class _SimEntry:
    """One simulated cache entry (a stored get result)."""

    __slots__ = ("aggregate", "meta", "statement")

    def __init__(
        self, aggregate: AggregateQuery, meta: QueryMeta, statement: int
    ) -> None:
        self.aggregate = aggregate
        self.meta = meta
        self.statement = statement


class WorkloadAnalyzer:
    """One analysis run over one workload script."""

    def __init__(
        self,
        context: AnalysisContext,
        plan_name: str = "best",
        admission_cells: Optional[int] = None,
    ) -> None:
        # Work on a copy: directives mutate the known-labelings set.
        self.context = AnalysisContext(
            schemas=context.schemas,
            registry=context.registry,
            engine=context.engine,
            known_labelings=context.known_labelings,
            strict=context.strict,
        )
        self.plan_name = plan_name
        self.admission_cells = admission_cells
        self._stats: Dict[int, StatsProvider] = {}

    # -- engine plumbing ------------------------------------------------
    def _engines(self) -> List[object]:
        engine = self.context.engine
        if engine is None:
            return []
        inner = getattr(engine, "engines", None)
        if inner is not None:
            return list(inner)
        return [engine]

    def _engine_for(self, source: str) -> Optional[object]:
        for engine in self._engines():
            try:
                if engine.has_cube(source):  # type: ignore[attr-defined]
                    return engine
            except Exception:
                continue
        return None

    def _stats_for(self, engine: object) -> StatsProvider:
        key = id(engine)
        if key not in self._stats:
            self._stats[key] = StatsProvider(engine)
        return self._stats[key]

    # -- per-statement planning ----------------------------------------
    def _plan_statement(
        self, record: _StatementRecord, statement: AssessStatement, engine: object
    ) -> None:
        """Plan one bound statement and annotate its pushed gets."""
        try:
            plan: Plan = build_plan(statement, engine, self.plan_name)  # type: ignore[arg-type]
        except Exception:
            return
        stats = self._stats_for(engine)
        gets: List[GetNode] = []
        composites: List[object] = []
        for node in plan.nodes():
            if isinstance(node, GetNode):
                gets.append(node)
            elif isinstance(node, (JoinNode, PivotNode)) and node.pushed:
                composites.append(node)
        record.composite = bool(composites)
        for node in gets:
            try:
                aggregate = engine.build_aggregate_query(node.query)  # type: ignore[attr-defined]
                # The runtime's own exactness verdict (Table.sums_exactly
                # on the base fact column), which can_derive reads.
                reaggregable = engine.reaggregable(node.query)  # type: ignore[attr-defined]
            except Exception:
                record.gets = []
                record.composite_cells_ub = None
                return
            meta = QueryMeta(node.query, frozenset(), reaggregable)
            rows_ub = self._rows_ub(engine, stats, node.query)
            cells_ub: Optional[int] = None
            if rows_ub is not None:
                cells_ub = rows_ub * max(self._width(meta), 1)
            record.gets.append(
                _GetInfo(
                    node.query, aggregate, fingerprint_query(aggregate),
                    meta, rows_ub, cells_ub, node.role,
                )
            )
        record.composite_cells_ub = self._composite_cells_ub(
            composites, {id(node): info for node, info in zip(gets, record.gets)}
        )

    @staticmethod
    def _width(meta: QueryMeta) -> int:
        return len(meta.query.group_by.levels) + len(meta.measure_names)

    def _rows_ub(
        self, engine: object, stats: StatsProvider, query: object
    ) -> Optional[int]:
        """Sound upper bound on a get's result rows."""
        try:
            star = engine.cube(query.source).star  # type: ignore[attr-defined]
        except Exception:
            return None
        fact_rows = stats.fact_rows(star.fact_table)
        if fact_rows is None:
            return None
        bound = float(fact_rows)
        product = 1.0
        for level in query.group_by.levels:  # type: ignore[attr-defined]
            level_ub = float("inf")
            try:
                table, column = star.column_for_level(level)
            except Exception:
                return None
            if table == FACT:
                table = star.fact_table
            cardinality = stats.cardinality(table, column)
            if cardinality is not None:
                level_ub = float(cardinality)
            else:
                # No dictionary statistics: a persisted zone map still
                # bounds the distinct count (sum of per-zone distincts).
                distinct_bound = stats.distinct_bound(table, column)
                if distinct_bound is not None:
                    level_ub = float(distinct_bound)
            predicate = query.predicate_on(level)  # type: ignore[attr-defined]
            if predicate is not None:
                members = predicate.member_set()
                if members is not None:
                    level_ub = min(level_ub, float(len(members)))
                # Zone-map value ranges can prove a predicate matches no
                # stored row at all — the bound collapses (clamped to 1).
                if stats.predicate_feasible(table, column, predicate) is False:
                    level_ub = 0.0
            product *= level_ub
        bound = min(bound, product)
        if bound == float("inf"):
            return None
        return max(int(bound), 1)

    def _composite_cells_ub(
        self, composites: Sequence[object], info_of: Dict[int, _GetInfo]
    ) -> Optional[int]:
        """Cache occupancy bound of pushed composite (join/pivot) results."""
        total = 0
        for node in composites:
            if isinstance(node, JoinNode):
                left = info_of.get(id(node.left))
                right = info_of.get(id(node.right))
                if (
                    left is None or right is None
                    or left.rows_ub is None or right.rows_ub is None
                ):
                    return None
                # Joining on a side's full group-by key bounds result rows
                # by the *other* side (grouped results are key-distinct).
                join_levels = set(
                    node.join_levels
                    if node.join_levels is not None
                    else left.meta.query.group_by.levels
                )
                rows = left.rows_ub * right.rows_ub
                if join_levels >= set(right.meta.query.group_by.levels):
                    rows = min(rows, left.rows_ub)
                if join_levels >= set(left.meta.query.group_by.levels):
                    rows = min(rows, right.rows_ub)
                width = self._width(left.meta) + self._width(right.meta)
                total += rows * width
            elif isinstance(node, PivotNode):
                child = info_of.get(id(node.child))
                if child is None or child.rows_ub is None:
                    return None
                # Pivot keeps (a slice of) the child rows and appends one
                # renamed measure column per sibling member.
                width = self._width(child.meta) + sum(
                    len(renames) for renames in node.member_renames.values()
                )
                total += child.rows_ub * width
            else:  # pragma: no cover - defensive
                return None
        return total

    # -- derivation certainty ------------------------------------------
    def _rollup_certain(
        self, engine: object, source: str, fine: str, coarse: str
    ) -> bool:
        """The runtime coded roll-up exists.

        It is built from the one table that binds both levels, whose
        dictionaries every result grouped by ``fine`` takes its members
        from, so it is total on every cached member.
        """
        try:
            return engine.rollup(source, fine, coarse) is not None  # type: ignore[attr-defined]
        except Exception:
            return False

    def _derivation_certain(
        self, engine: object, stats: StatsProvider,
        target: QueryMeta, entry: _SimEntry,
    ) -> bool:
        """Statically exclude every ``derive_result`` runtime bail-out.

        The exactness gate is not among them: ``can_derive`` already read
        it off ``target.reaggregable``, the engine's verdict.
        """
        source = target.source
        schema = target.query.schema
        entry_gb = entry.meta.query.group_by
        target_gb = target.query.group_by
        try:
            star = engine.cube(source).star  # type: ignore[attr-defined]
        except Exception:
            return False

        # Residual predicates and the target group-by need a coded
        # roll-up wherever their level is coarser than the entry's.
        entry_predicates = tuple(entry.meta.query.predicates)
        needed: List[str] = list(target_gb.levels)
        for predicate in target.query.predicates:
            if any(p == predicate for p in entry_predicates):
                continue
            needed.append(predicate.level)
        for level in needed:
            try:
                hierarchy = schema.hierarchy_of_level(level)
                entry_level = entry_gb.level_for_hierarchy(hierarchy.name)
            except Exception:
                return False
            if entry_level == level:
                continue
            if not self._rollup_certain(engine, source, entry_level, level):
                return False

        # Target coordinates must encode (sort) cleanly after roll-up.
        for level in target_gb.levels:
            try:
                table, column = star.column_for_level(level)
            except Exception:
                return False
            if table == FACT:
                table = star.fact_table
            if not stats.encodable(table, column):
                return False
        return True

    # -- exactness / parallel safety -----------------------------------
    def _measure_abstract(
        self, engine: object, stats: StatsProvider, aggregate: AggregateQuery,
        column: str,
    ) -> Optional[ColumnAbstract]:
        return stats.column_abstract(aggregate.fact, column)

    def _aggregate_key_space(
        self, engine: object, stats: StatsProvider, aggregate: AggregateQuery,
    ) -> Optional[int]:
        """The parallel executor's group-by key space, or ``None`` unknown."""
        key_space = 1
        for gb in aggregate.group_by:
            table = gb.table
            if table in (FACT, aggregate.fact):
                table = aggregate.fact
            cardinality = stats.cardinality(table, gb.column)
            if cardinality is None:
                return None
            key_space *= max(cardinality, 1)
        return key_space

    def _parallel_safe(
        self, engine: object, stats: StatsProvider, record: _StatementRecord
    ) -> Optional[bool]:
        """Every aggregate provably avoids a parallel-path fallback."""
        if not record.gets:
            return None
        for info in record.gets:
            key_space = self._aggregate_key_space(engine, stats, info.aggregate)
            if key_space is None:
                return None
            if key_space >= _MAX_COMBINED_KEY:
                return False
            for agg in info.aggregate.aggregates:
                if agg.op not in ("sum", "avg"):
                    continue
                abstract = self._measure_abstract(
                    engine, stats, info.aggregate, agg.column
                )
                if abstract is None:
                    return None
                if not abstract.sum_exact():
                    return False
        return True

    # -- fusion ---------------------------------------------------------
    def _fusion_key_space(
        self, engine: object, stats: StatsProvider, group: FusionGroup
    ) -> Optional[int]:
        """Replicates the fused executor's finest shared key space."""
        fact_name = group.members[0].query.fact

        def column_key(table: str) -> str:
            return FACT if table in (FACT, fact_name) else table

        finest: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()
        for member in group.members:
            for gb in member.query.group_by:
                key = (column_key(gb.table), gb.column)
                if key not in seen:
                    seen.add(key)
                    finest.append(key)
            for cp in member.residual:
                key = (column_key(cp.table), cp.column)
                if key not in seen:
                    seen.add(key)
                    finest.append(key)
        key_space = 1
        for table, column in finest:
            physical = fact_name if table == FACT else table
            cardinality = stats.cardinality(physical, column)
            if cardinality is None:
                return None
            key_space *= max(cardinality, 1)
        return key_space

    def _member_safe(
        self, engine: object, stats: StatsProvider, member_query: AggregateQuery
    ) -> Optional[bool]:
        """The fused path provably serves this member without fallback.

        An ``avg`` is finished from a sum slot and a count slot, so it is
        gated exactly like a ``sum``.
        """
        for agg in member_query.aggregates:
            if agg.op in ("sum", "avg"):
                abstract = stats.column_abstract(member_query.fact, agg.column)
                if abstract is None:
                    return None
                if not abstract.sum_exact():
                    return False
        return True

    # ==================================================================
    def analyze(self, text: str, origin: str = "<workload>") -> WorkloadReport:
        items = scan_workload(text)
        report = WorkloadReport(origin)
        env = BindingEnv()
        bags: Dict[int, DiagnosticBag] = {}
        records: List[_StatementRecord] = []
        poisoned_cubes: Set[str] = set()
        seen_texts: Dict[str, int] = {}

        # -- pass 1: flow-ordered binding, planning, def-use ------------
        for item in items:
            record = _StatementRecord(item)
            records.append(record)
            if item.kind == "labeling":
                bags[item.index] = DiagnosticBag()
                env.define_labeling(item)
                self.context.known_labelings.add(item.name.lower())
                continue
            if item.kind == "view":
                bags[item.index] = DiagnosticBag()
                env.define_view(item)
                poisoned_cubes.add(item.cube.upper())
                continue
            if item.kind == "invalid":
                bags[item.index] = directive_diagnostics(item)
                continue

            bound, bag = analyze_text(item.text, self.context)
            bags[item.index] = bag
            record.bound = bound

            normalized = " ".join(item.text.split()).lower()
            earlier = seen_texts.get(normalized)
            if earlier is not None:
                bag.report(
                    "ASSESS503", severity_of("ASSESS503"),
                    f"statement repeats item {earlier + 1} verbatim "
                    "(served by the CSE memo / exact cache hit)",
                    span=Span.from_text(item.text, 0),
                    source="workload",
                )
            else:
                seen_texts[normalized] = item.index

            try:
                raw = parse_raw(item.text)
            except Exception:
                raw = None
            if raw is not None and raw.labels is not None:
                if raw.labels.kind == "named":
                    env.use_labeling(raw.labels.name)

            if bound is None:
                continue
            engine = self._engine_for(bound.source)
            record.engine = engine
            record.poisoned = bound.source.upper() in poisoned_cubes
            if engine is None:
                continue
            self._plan_statement(record, bound, engine)
            for info in record.gets:
                env.use_views(info.meta)

        # A view defined *anywhere* invalidates static routing claims for
        # its cube across the whole script (position-independent, sound).
        if poisoned_cubes:
            for record in records:
                if record.bound is not None and (
                    record.bound.source.upper() in poisoned_cubes
                ):
                    record.poisoned = True

        # -- no-eviction budget proof per engine ------------------------
        claims_ok = self._claims_ok(records)

        # -- pass 2: cache simulation (derivability) --------------------
        self._simulate_cache(records, bags, claims_ok, report)

        # -- pass 3: fusion replay --------------------------------------
        self._predict_fusion(records, bags, report)

        # -- pass 4: exactness, parallel safety, bounds -----------------
        self._exactness_and_bounds(records, bags, report)

        # -- def-use summary --------------------------------------------
        env.report_into(bags)

        for record in records:
            item = record.item
            bag = bags.get(item.index, DiagnosticBag())
            kind = item.kind
            source = record.bound.source if record.bound is not None else ""
            group_by: Tuple[str, ...] = ()
            measures: Tuple[str, ...] = ()
            if record.bound is not None:
                group_by = tuple(record.bound.group_by.levels)
                measures = (record.bound.measure,)
            report.statements.append(
                StatementInfo(
                    item.index, kind, item.text, bag,
                    source=source, group_by=group_by, measures=measures,
                    plan_name=self.plan_name if record.gets else "",
                    composite=record.composite,
                    parallel_safe=record.parallel_safe,
                )
            )
        return report

    # ------------------------------------------------------------------
    def _claims_ok(self, records: Sequence[_StatementRecord]) -> Dict[int, bool]:
        """Per-engine no-eviction proof: every stored result certainly
        stays cached for the whole workload."""
        totals: Dict[int, Optional[int]] = {}
        for record in records:
            if record.engine is None or not record.gets:
                continue
            key = id(record.engine)
            total = totals.get(key, 0)
            if total is None:
                continue
            seen: Set[Fingerprint] = set()
            for info in record.gets:
                if info.fingerprint in seen:
                    continue
                seen.add(info.fingerprint)
                if info.cells_ub is None:
                    total = None
                    break
                total += info.cells_ub
            if total is not None:
                if record.composite_cells_ub is None:
                    total = None
                else:
                    total += record.composite_cells_ub
            totals[key] = total

        verdicts: Dict[int, bool] = {}
        for key, total in totals.items():
            verdicts[key] = total is not None
        for record in records:
            if record.engine is None:
                continue
            key = id(record.engine)
            if not verdicts.get(key, False):
                continue
            cache = getattr(record.engine, "result_cache", None)
            total = totals[key]
            if (
                cache is None
                or not getattr(cache, "enabled", False)
                or total is None
                or total > getattr(cache, "cell_budget", 0)
            ):
                verdicts[key] = False
        return verdicts

    def _simulate_cache(
        self,
        records: Sequence[_StatementRecord],
        bags: Dict[int, DiagnosticBag],
        claims_ok: Dict[int, bool],
        report: WorkloadReport,
    ) -> None:
        sims: Dict[int, Tuple[Dict[Fingerprint, _SimEntry], List[_SimEntry]]] = {}
        for record in records:
            engine = record.engine
            if engine is None or not record.gets:
                continue
            key = id(engine)
            by_fp, entries = sims.setdefault(key, ({}, []))
            stats = self._stats_for(engine)
            warm = bool(record.gets) and not record.poisoned and claims_ok.get(
                key, False
            )
            edges: List[Tuple[int, str, str]] = []
            for info in record.gets:
                hit = by_fp.get(info.fingerprint)
                if hit is not None and hit.aggregate == info.aggregate:
                    edges.append((hit.statement, "exact", "same pushed get"))
                    continue
                derived_from: Optional[_SimEntry] = None
                if warm:
                    for entry in entries:
                        if entry.meta.source != info.meta.source:
                            continue
                        if not can_derive(info.meta, entry.meta):
                            continue
                        if self._derivation_certain(engine, stats, info.meta, entry):
                            derived_from = entry
                            break
                if derived_from is None:
                    warm = False
                else:
                    entry_gb = derived_from.meta.query.group_by
                    edges.append(
                        (
                            derived_from.statement, "derive",
                            f"rolls up from by ({', '.join(entry_gb.levels)})",
                        )
                    )
            if warm and edges:
                seen_edges: Set[Tuple[int, int, str]] = set()
                for source_index, kind, reason in edges:
                    key_edge = (record.item.index, source_index, kind)
                    if key_edge in seen_edges or source_index == record.item.index:
                        continue
                    seen_edges.add(key_edge)
                    report.derivations.append(
                        DerivationEdge(record.item.index, source_index, kind, reason)
                    )
                for info in record.gets:
                    report.warm_fingerprints.add(info.fingerprint)
                sources = sorted(
                    {s + 1 for s, _, _ in edges if s != record.item.index}
                )
                if sources:
                    bags[record.item.index].report(
                        "ASSESS504", severity_of("ASSESS504"),
                        "statement is answerable from the cached results of "
                        f"item{'s' if len(sources) > 1 else ''} "
                        f"{', '.join(str(s) for s in sources)} "
                        "(no fact scan when run in order)",
                        span=Span.from_text(record.item.text, 0),
                        source="workload",
                    )
            # Every executed get ends up cached (store or pre-existing).
            for info in record.gets:
                if info.fingerprint not in by_fp:
                    entry = _SimEntry(
                        info.aggregate, info.meta, record.item.index
                    )
                    by_fp[info.fingerprint] = entry
                    entries.append(entry)

    def _predict_fusion(
        self,
        records: Sequence[_StatementRecord],
        bags: Dict[int, DiagnosticBag],
        report: WorkloadReport,
    ) -> None:
        candidates: Dict[int, List[AggregateQuery]] = {}
        owners: Dict[int, Dict[Fingerprint, List[int]]] = {}
        engines: Dict[int, object] = {}
        for record in records:
            engine = record.engine
            if engine is None or not record.gets or record.poisoned:
                continue
            if bags[record.item.index].has_errors:
                continue
            key = id(engine)
            engines[key] = engine
            queries = candidates.setdefault(key, [])
            owner_map = owners.setdefault(key, {})
            for info in record.gets:
                queries.append(info.aggregate)
                owner_map.setdefault(info.fingerprint, []).append(
                    record.item.index
                )
        for key, queries in candidates.items():
            engine = engines[key]
            stats = self._stats_for(engine)
            for group in plan_fusion(queries):
                statements: Set[int] = set()
                for member in group.members:
                    statements.update(owners[key].get(member.fingerprint, ()))
                if len(statements) < 2:
                    continue
                key_space = self._fusion_key_space(engine, stats, group)
                member_safety: List[bool] = []
                exact = key_space is not None and key_space < _MAX_COMBINED_KEY
                for member in group.members:
                    safe = self._member_safe(engine, stats, member.query)
                    member_safety.append(bool(safe))
                    if safe is not True:
                        exact = False
                scan = tuple(
                    f"{cp.table}.{cp.column} {cp.predicate!r}"
                    for cp in group.scan_where
                )
                prediction = FusionPrediction(
                    tuple(sorted(statements)), scan, key_space, exact,
                    tuple(member_safety),
                )
                report.fusions.append(prediction)
                for member in group.members:
                    report.fusable_scan_keys.add(_scan_key(member.query))
                ordered = ", ".join(str(s + 1) for s in sorted(statements))
                for index in sorted(statements):
                    bags[index].report(
                        "ASSESS505", severity_of("ASSESS505"),
                        f"items {ordered} share one fused fact scan in a "
                        f"batch ({prediction.verdict})",
                        span=Span.from_text(records[index].item.text, 0),
                        source="workload",
                    )

    def _exactness_and_bounds(
        self,
        records: Sequence[_StatementRecord],
        bags: Dict[int, DiagnosticBag],
        report: WorkloadReport,
    ) -> None:
        seen_measures: Set[Tuple[str, str, str]] = set()
        threshold: Optional[int] = self.admission_cells
        for record in records:
            engine = record.engine
            if engine is None or not record.gets:
                continue
            stats = self._stats_for(engine)
            if not record.poisoned:
                record.parallel_safe = self._parallel_safe(engine, stats, record)
            inexact: List[str] = []
            for info in record.gets:
                for agg in info.aggregate.aggregates:
                    if agg.op not in ("sum", "avg"):
                        continue
                    abstract = stats.column_abstract(
                        info.aggregate.fact, agg.column
                    )
                    if abstract is None:
                        verdict = Exactness.UNKNOWN
                        detail = "column statistics unavailable"
                    else:
                        verdict = abstract.verdict()
                        detail = (
                            f"max|x| = {abstract.max_abs:g} over "
                            f"{abstract.rows} rows"
                            + ("" if abstract.integral else "; non-integral")
                        )
                    measure_key = (info.meta.source, agg.alias, agg.op)
                    if measure_key not in seen_measures:
                        seen_measures.add(measure_key)
                        report.exactness.append(
                            ExactnessEntry(
                                info.meta.source, agg.alias, agg.op,
                                verdict, detail,
                            )
                        )
                    if verdict is Exactness.INEXACT and agg.alias not in inexact:
                        inexact.append(agg.alias)
            if inexact:
                bags[record.item.index].report(
                    "ASSESS506", severity_of("ASSESS506"),
                    f"measure{'s' if len(inexact) > 1 else ''} "
                    f"{', '.join(inexact)} fail"
                    f"{'' if len(inexact) > 1 else 's'} the static "
                    "float-exactness gate; parallel and fused paths fall "
                    "back to serial",
                    span=Span.from_text(record.item.text, 0),
                    source="workload",
                )

            # Cardinality / cost interval bounds per statement.
            target = next(
                (info for info in record.gets if info.role == "target"),
                record.gets[0],
            )
            cells_hi = (
                float(target.cells_ub)
                if target.cells_ub is not None else float("inf")
            )
            cost_hi = 0.0
            for info in record.gets:
                fact_rows = stats.fact_rows(info.aggregate.fact)
                if fact_rows is None or info.cells_ub is None:
                    cost_hi = float("inf")
                    break
                cost_hi += (
                    SCAN_WEIGHT * fact_rows + GROUP_WEIGHT * info.cells_ub
                )
            cap = threshold
            if cap is None:
                cache = getattr(engine, "result_cache", None)
                cap = getattr(cache, "cell_budget", None)
            warn = cap is not None and cells_hi > cap
            report.bounds.append(
                CardinalityBound(
                    record.item.index,
                    Interval(0.0, cells_hi),
                    Interval(0.0, cost_hi),
                    bool(warn),
                )
            )
            if warn:
                bags[record.item.index].report(
                    "ASSESS507", severity_of("ASSESS507"),
                    f"result-cell upper bound {cells_hi:,.0f} exceeds the "
                    f"admission threshold {cap:,}",
                    span=Span.from_text(record.item.text, 0),
                    hint="coarsen the by clause or add selective for "
                    "predicates before running this interactively",
                    source="workload",
                )

            # Bounded-memory admission: predict the spill-tier routing.
            self._spill_verdict(record, stats, bags)

    def _spill_verdict(
        self,
        record: _StatementRecord,
        stats: StatsProvider,
        bags: Dict[int, DiagnosticBag],
    ) -> None:
        """Emit ``ASSESS508`` when the executor would provably route the
        statement's target get through the bounded-memory spill tier.

        Applies the executor's admission test (``spill.over_budget``)
        to abstract fact-row statistics, plus the float-exactness gate
        the lowering re-checks at runtime.  Soundness convention: any
        missing statistic (unknown budget, unabstractable measure
        column) keeps the analyzer silent, never optimistic.
        """
        settings = getattr(record.engine, "settings", None)
        budget = None if settings is None else settings.memory_budget
        if budget is None or not record.gets:
            return
        target = next(
            (info for info in record.gets if info.role == "target"),
            record.gets[0],
        )
        aggregate = target.aggregate
        fact_rows = stats.fact_rows(aggregate.fact)
        if fact_rows is None:
            return
        slots = len(aggregate.aggregates)
        if not over_budget(fact_rows, slots, budget):
            return
        for agg in aggregate.aggregates:
            if agg.op not in ("sum", "avg"):
                continue
            abstract = stats.column_abstract(aggregate.fact, agg.column)
            if abstract is None or not abstract.sum_exact():
                # Unknown or inexact measures make the lowering fall
                # back to serial in-RAM; no spill claim.
                return
        estimate = grouping_state_bytes(fact_rows, 0, slots)
        bags[record.item.index].report(
            "ASSESS508", severity_of("ASSESS508"),
            f"grouping-state estimate {estimate:,} B exceeds the "
            f"{budget:,} B memory budget; the fact pass runs in the "
            "bounded-memory spill tier (partitioned external "
            "aggregation, bit-identical to in-RAM)",
            span=Span.from_text(record.item.text, 0),
            source="workload",
        )


def analyze_workload(
    text: str,
    context: Optional[AnalysisContext] = None,
    session: Optional[object] = None,
    origin: str = "<workload>",
    plan_name: str = "best",
    admission_cells: Optional[int] = None,
) -> WorkloadReport:
    """Run the whole-workload static analysis over script text.

    Exactly one of ``context`` / ``session`` should be given; with
    neither, the analysis runs schema-less (parse-level diagnostics
    only).  The returned :class:`WorkloadReport` carries per-item
    diagnostic bags plus the sharing plan, derivation edges, exactness
    verdicts, and cardinality bounds.
    """
    if context is None:
        if session is not None:
            context = AnalysisContext.for_session(session)
        else:
            context = AnalysisContext(schemas=None)
    analyzer = WorkloadAnalyzer(
        context, plan_name=plan_name, admission_cells=admission_cells
    )
    return analyzer.analyze(text, origin=origin)

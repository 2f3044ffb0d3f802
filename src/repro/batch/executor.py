"""The batch engine executor: CSE memo + fused scans over one batch.

During :meth:`AssessSession.execute_many` the engine's executor is
temporarily replaced by a :class:`BatchEngineExecutor`.  It extends the
caching executor with two batch-scoped mechanisms:

* a **memo** keyed by canonical fingerprint, so any pushed get or
  composite (drill-across, pivot) that several plans share executes
  exactly once and feeds every consuming plan — common-subexpression
  elimination across the merged plan DAG;
* the **fusion groups** planned by :mod:`repro.batch.fuse`: the first
  time any member of a group is requested, the whole group runs through
  :meth:`EngineExecutor.execute_fused` in one shared fact pass, and every
  member's result is memoized (and stored into the result cache, so the
  batch warms the session for later statements).

Both mechanisms serve shallow copies, like the result cache, and both
preserve bit-identity with sequential execution: the memo replays a
deterministic computation, and the fused path re-aggregates only under
the same exactness gates cold execution would satisfy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cache.executor import CachingEngineExecutor
from ..cache.fingerprint import CacheableQuery, Fingerprint, fingerprint_query
from ..cache.store import SemanticResultCache
from ..engine.catalog import Catalog
from ..engine.executor import ResultSet
from ..engine.query import AggregateQuery
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import active as _active_tracer
from .fuse import FusionGroup


class SharingReport:
    """What one batch shared, fused, and actually scanned."""

    __slots__ = (
        "statements", "plan_names", "unique_queries", "shared_hits",
        "fused_groups", "fused_derived", "fused_fallbacks", "engine_scans",
        "cache_hits", "cache_derivations",
    )

    def __init__(self, statements: int = 0, unique_queries: int = 0):
        self.statements = statements
        self.plan_names: List[str] = []
        self.unique_queries = unique_queries
        self.shared_hits = 0        # memo serves (CSE across plans)
        self.fused_groups = 0       # shared scans executed
        self.fused_derived = 0      # members answered from a fused pass
        self.fused_fallbacks = 0    # members that needed their own grouping pass
        self.engine_scans = 0       # fact passes actually executed
        self.cache_hits = 0         # result-cache exact hits during the batch
        self.cache_derivations = 0  # result-cache derivations during the batch

    def to_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}

    def render(self) -> str:
        lines = [
            f"statements          {self.statements}",
            f"plans               {', '.join(self.plan_names) or '-'}",
            f"unique queries      {self.unique_queries}",
            f"shared (CSE) hits   {self.shared_hits}",
            f"fused scans         {self.fused_groups} "
            f"({self.fused_derived} derived, {self.fused_fallbacks} fallback)",
            f"engine scans        {self.engine_scans}",
            f"cache hits          {self.cache_hits} "
            f"(+{self.cache_derivations} derivations)",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharingReport(statements={self.statements}, "
            f"scans={self.engine_scans}, shared={self.shared_hits})"
        )


class BatchEngineExecutor(CachingEngineExecutor):
    """Engine executor scoped to one statement batch."""

    def __init__(
        self,
        catalog: Catalog,
        cache: SemanticResultCache,
        groups: Sequence[FusionGroup],
        report: SharingReport,
        metrics: Optional[MetricsRegistry] = None,
        engine=None,
    ):
        super().__init__(catalog, cache, metrics, engine)
        self.report = report
        self._memo: Dict[Fingerprint, Tuple[CacheableQuery, ResultSet]] = {}
        self._group_of: Dict[Fingerprint, FusionGroup] = {}
        for group in groups:
            for member in group.members:
                self._group_of[member.fingerprint] = group

    # ------------------------------------------------------------------
    def execute_aggregate(self, query: AggregateQuery) -> ResultSet:
        fingerprint = fingerprint_query(query)
        served = self._from_memo(fingerprint, query)
        if served is not None:
            self._count_cse_hit()
            return served
        group = self._group_of.get(fingerprint)
        if group is not None and not group.executed:
            self._run_group(group)
            served = self._from_memo(fingerprint, query)
            if served is not None:
                # First consumption of the fused result.
                tracer = _active_tracer()
                if tracer.enabled:
                    tracer.event("batch.fused-serve", rows_out=len(served))
                return served
        result = super().execute_aggregate(query)
        self._memo[fingerprint] = (query, result)
        return result

    def execute_composite(
        self, query: CacheableQuery, run: Callable[[], ResultSet]
    ) -> ResultSet:
        fingerprint = fingerprint_query(query)
        served = self._from_memo(fingerprint, query)
        if served is not None:
            self._count_cse_hit()
            return served
        # A cold composite runs its gets through execute_aggregate, so
        # they still share.
        result = super().execute_composite(query, run)
        self._memo[fingerprint] = (query, result)
        return result

    # ------------------------------------------------------------------
    def _count_cse_hit(self) -> None:
        self.report.shared_hits += 1
        self.metrics.inc("batch.cse_hits")
        tracer = _active_tracer()
        if tracer.enabled:
            tracer.event("batch.cse-hit")

    def _from_memo(self, fingerprint: Fingerprint, query: CacheableQuery):
        entry = self._memo.get(fingerprint)
        if entry is not None and entry[0] == query:
            return entry[1].copy()
        return None

    def _run_group(self, group: FusionGroup) -> None:
        queries = [member.query for member in group.members]
        residuals = [member.residual for member in group.members]
        tracer = _active_tracer()
        with tracer.span("batch.fused-group", members=len(group.members)):
            results, derived = self.execute_fused(
                queries, group.scan_where, residuals
            )
        group.executed = True
        self.report.fused_groups += 1
        self.metrics.inc("batch.fused_groups")
        for member, result, was_derived in zip(group.members, results, derived):
            self._memo[member.fingerprint] = (member.query, result)
            if was_derived:
                self.report.fused_derived += 1
            else:
                self.report.fused_fallbacks += 1
            if self.cache.enabled:
                self.cache.store(member.query, result)

"""The caching engine executor: the cache's seat in the execution path.

:class:`CachingEngineExecutor` subclasses the vectorised
:class:`~repro.engine.executor.EngineExecutor` and intercepts every
pushed query shape:

* ``execute_aggregate`` — the choke point all *gets* flow through,
  including the two inner aggregates of a drill-across, the base
  aggregate of a pivot, and view construction in ``materialize()``.
  Aggregate results participate in both exact and derivation reuse.
* ``execute_drill_across`` / ``execute_pivot`` — the composite JOP/POP
  queries.  Their results are memoized for exact reuse, because on
  repeated statements the join/pivot post-processing dominates once the
  aggregate sides are warm.  A cold composite still routes its sides
  through ``execute_aggregate`` (method dispatch lands back here), so
  the sides are individually cached and derivable either way.

The executor stays a drop-in replacement: with the cache disabled
(``cache.enabled = False``) every call falls straight through to the
superclass, which the experiment runner uses to keep the paper's cold
timings honest.
"""

from __future__ import annotations

from typing import Optional

from ..engine.catalog import Catalog
from ..engine.executor import EngineExecutor, ResultSet
from ..engine.query import AggregateQuery, DrillAcrossQuery, PivotQuery
from ..obs.metrics import MetricsRegistry
from .store import SemanticResultCache


class CachingEngineExecutor(EngineExecutor):
    """An engine executor that consults a semantic result cache."""

    def __init__(
        self,
        catalog: Catalog,
        cache: SemanticResultCache,
        metrics: Optional[MetricsRegistry] = None,
        engine=None,
    ):
        super().__init__(catalog, metrics, engine)
        self.cache = cache

    def execute_aggregate(self, query: AggregateQuery) -> ResultSet:
        if not self.cache.enabled:
            return super().execute_aggregate(query)
        cached = self.cache.fetch(query)
        if cached is not None:
            return cached
        result = super().execute_aggregate(query)
        self.cache.store(query, result)
        return result

    def execute_drill_across(self, query: DrillAcrossQuery) -> ResultSet:
        if not self.cache.enabled:
            return super().execute_drill_across(query)
        cached = self.cache.fetch(query)
        if cached is not None:
            return cached
        result = super().execute_drill_across(query)
        self.cache.store(query, result)
        return result

    def execute_pivot(self, query: PivotQuery) -> ResultSet:
        if not self.cache.enabled:
            return super().execute_pivot(query)
        cached = self.cache.fetch(query)
        if cached is not None:
            return cached
        result = super().execute_pivot(query)
        self.cache.store(query, result)
        return result

"""The caching engine executor: the cache's seat in the execution path.

:class:`CachingEngineExecutor` subclasses the vectorised
:class:`~repro.engine.executor.EngineExecutor` and intercepts the two
kinds of pushed work:

* ``execute_aggregate`` — the choke point all *gets* flow through,
  including the gets of a pushed drill-across or pivot and view
  construction in ``materialize()``.  Aggregate results participate in
  both exact and derivation reuse.
* ``execute_composite`` — a pushed JOP drill-across or POP pivot, keyed
  by its :class:`~repro.engine.query.DrillAcrossQuery` or
  :class:`~repro.engine.query.PivotQuery`, which the multidimensional
  engine computes as the cube operator over its gets.  The result is
  memoized for exact reuse, because on repeated statements the
  join/pivot post-processing dominates once the gets are warm.  A cold
  composite still runs its gets through ``execute_aggregate``, so they
  are individually cached and derivable either way.

The executor stays a drop-in replacement: with the cache disabled
(``cache.enabled = False``) every call falls straight through, which the
experiment runner uses to keep the paper's cold timings honest.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..engine.catalog import Catalog
from ..engine.executor import EngineExecutor, ResultSet
from ..engine.query import AggregateQuery
from ..obs.metrics import MetricsRegistry
from .fingerprint import CacheableQuery
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
        return self._cached(query, partial(super().execute_aggregate, query))

    def execute_composite(
        self, query: CacheableQuery, run: Callable[[], ResultSet]
    ) -> ResultSet:
        """The drill-across or pivot ``query``, which ``run`` computes."""
        return self._cached(query, run)

    def _cached(
        self, query: CacheableQuery, run: Callable[[], ResultSet]
    ) -> ResultSet:
        if not self.cache.enabled:
            return run()
        cached = self.cache.fetch(query)
        if cached is not None:
            return cached
        result = run()
        self.cache.store(query, result)
        return result

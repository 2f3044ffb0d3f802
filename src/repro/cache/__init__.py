"""Semantic result cache for interactive assess sessions.

Assess sessions re-query the same detailed cube over and over — the
target cube recurs across statements, sibling and past benchmarks hit
the same fact table at related group-by sets — yet each pushed get would
otherwise re-scan the fact table.  This package memoizes aggregate
results and reuses them two ways:

* **exact reuse** — canonical query fingerprints
  (:mod:`~repro.cache.fingerprint`) make spelled-differently-but-equal
  queries share one cache slot;
* **derivation reuse** — a query answerable from a cached *finer* result
  is re-aggregated from it (:mod:`~repro.cache.derive`), so drilling
  from ``month × product`` up to ``year`` never touches the fact table.

A materialized view is a pinned entry: one more derivation source,
outside LRU order and the cell budget.

Wiring: :class:`~repro.olap.engine.MultidimensionalEngine` owns a
:class:`SemanticResultCache`, executes through a
:class:`CachingEngineExecutor`, annotates every query it builds with
:class:`QueryMeta`, and invalidates by table on catalog changes.  See
``docs/performance.md`` for the design rationale and the ``repro cache``
CLI subcommand for live statistics.
"""

from .derive import QueryMeta, can_derive, derive_result, predicate_subsumes
from .executor import CachingEngineExecutor
from .fingerprint import fingerprint_query, normalize_predicate
from .store import CacheEntry, CacheStats, SemanticResultCache

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CachingEngineExecutor",
    "QueryMeta",
    "SemanticResultCache",
    "can_derive",
    "derive_result",
    "fingerprint_query",
    "normalize_predicate",
    "predicate_subsumes",
]

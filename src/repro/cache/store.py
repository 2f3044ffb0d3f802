"""The semantic result cache: LRU store keyed by query fingerprint.

An entry memoizes one executed :class:`AggregateQuery`'s
:class:`ResultSet`.  The budget is measured in cached *cells* (rows ×
columns), not entry count, so one huge fine-grained result cannot be
"cheaper" than a hundred tiny ones.  Lookup follows a three-step
protocol (see :meth:`SemanticResultCache.fetch`):

1. **exact hit** — the fingerprint matches and the stored query equals
   the request (guaranteeing the result layout matches, since the
   fingerprint deliberately canonicalises column order away);
2. **derivation** — some cached entry of the same cube is finer along
   every hierarchy with subsuming predicates, and the answer is
   re-aggregated from it (:mod:`repro.cache.derive`) without touching
   the fact table;
3. **miss** — the caller executes cold and :meth:`store`s the result.

A materialized view is a *pinned* entry (:meth:`SemanticResultCache.pin`):
a derivation source like any other, ranked with the cached entries by
size, but outside LRU order and the cell budget, and kept by
:meth:`~SemanticResultCache.clear`.  Derivation is the one place a get
picks a finer source.

Invalidation is by table name: the OLAP layer annotates every query it
builds with the base tables of its star (:class:`QueryMeta`), and the
catalog notifies the cache when a table is replaced or dropped; every
entry whose physical or base tables include it is discarded, pinned
ones included.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..engine.executor import ResultSet
from ..engine.query import AggregateQuery, DrillAcrossQuery, PivotQuery
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.tracer import active as _active_tracer
from .derive import QueryMeta, RollupOf, can_derive, derive_result
from .fingerprint import CacheableQuery, Fingerprint, fingerprint_query

DEFAULT_CELL_BUDGET = 16_000_000
"""Default cache capacity in cells (~128 MB of float64 measure data).

Sized so an interactive session over the mid benchmark rung (600k fact
rows) keeps its whole working set resident: the four reference
intentions cache ~6.3M cells, and an undersized budget would make the
statements evict each other's targets in LRU ping-pong."""

_MAX_SEMANTICS = 4096
"""Bound on retained query annotations (tiny metadata objects)."""


class CacheEntry:
    """One memoized aggregate result (``view`` names a pinned one)."""

    __slots__ = ("fingerprint", "query", "result", "meta", "tables", "cells",
                 "nbytes", "derived", "view")

    def __init__(
        self,
        fingerprint: Fingerprint,
        query: AggregateQuery,
        result: ResultSet,
        meta: Optional[QueryMeta],
        tables: FrozenSet[str],
        derived: bool,
    ):
        self.fingerprint = fingerprint
        self.query = query
        self.result = result
        self.meta = meta
        self.tables = tables
        self.cells = len(result) * max(len(result.column_names), 1)
        self.nbytes = sum(
            column.nbytes for column in result.columns.values()
        ) + sum(codes.nbytes for codes, _ in result.codes.values())
        self.derived = derived
        self.view: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheEntry(rows={len(self.result)}, cells={self.cells})"


class CacheStats:
    """Counters of one cache's lifetime activity.

    Since the observability refactor the counters live in a
    :class:`~repro.obs.metrics.MetricsRegistry` (by default a private
    child of the process-wide registry, so every bump also aggregates
    upward as ``cache.<name>``).  The attribute API is unchanged —
    ``stats.hits`` reads and ``stats.hits += 1`` writes exactly as the
    old plain-int fields did, and :meth:`snapshot` returns the same flat
    dict of ints.
    """

    NAMES = ("hits", "misses", "derivations", "evictions", "invalidations",
             "stores")

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.metrics = (
            metrics
            if metrics is not None
            else MetricsRegistry(parent=METRICS, prefix="cache")
        )

    def snapshot(self) -> Dict[str, int]:
        return {name: self.metrics.get(name) for name in self.NAMES}


def _counter_property(name: str) -> property:
    def getter(self: CacheStats) -> int:
        return self.metrics.get(name)

    def setter(self: CacheStats, value: int) -> None:
        # Assignment is expressed as a delta so the increment propagates
        # to parent registries (plain assignment would bypass them).
        delta = value - self.metrics.get(name)
        if delta:
            self.metrics.inc(name, delta)

    return property(getter, setter)


for _name in CacheStats.NAMES:
    setattr(CacheStats, _name, _counter_property(_name))
del _name


class SemanticResultCache:
    """LRU result cache with exact and derivation reuse."""

    def __init__(
        self,
        cell_budget: int = DEFAULT_CELL_BUDGET,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.enabled = True
        self.cell_budget = cell_budget
        self.rollup: Optional[RollupOf] = None
        self.counters = CacheStats(metrics)
        self._entries: "OrderedDict[Fingerprint, CacheEntry]" = OrderedDict()
        self._semantics: "OrderedDict[Fingerprint, QueryMeta]" = OrderedDict()
        self._by_source: Dict[str, Set[Fingerprint]] = {}
        self._pinned: Dict[str, CacheEntry] = {}
        self._cached_cells = 0
        # One reentrant lock over all mutable state: sessions may be
        # shared across threads (and catalog listeners may invalidate
        # concurrently with lookups), and the LRU bookkeeping — entry
        # dict, per-source index, cell accounting — must move together
        # or an eviction could leave a torn entry.  Reentrant because
        # ``fetch`` stores derived results while already holding it.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Annotation (populated by the OLAP layer's query rewriting)
    # ------------------------------------------------------------------
    def annotate(self, query: AggregateQuery, meta: QueryMeta) -> None:
        """Attach cube-level semantics to a pushed query's fingerprint.

        Derivation needs hierarchy knowledge the physical query lacks;
        the OLAP layer calls this from ``build_aggregate_query`` so every
        query that flows through the engine carries its provenance.
        """
        fingerprint = fingerprint_query(query)
        with self._lock:
            self._semantics[fingerprint] = meta
            self._semantics.move_to_end(fingerprint)
            # Bounded LRU; live entries keep their own ``meta`` reference, so
            # evicting an annotation never breaks candidate scans.
            while len(self._semantics) > _MAX_SEMANTICS:
                self._semantics.popitem(last=False)

    def semantics_for(self, query: AggregateQuery) -> Optional[QueryMeta]:
        fingerprint = fingerprint_query(query)
        with self._lock:
            return self._semantics.get(fingerprint)

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------
    def fetch(self, query: CacheableQuery) -> Optional[ResultSet]:
        """Exact hit, else derivation, else a recorded miss (``None``).

        Composite (drill-across/pivot) queries only take the exact-hit
        path: they have no annotated cube semantics, so ``_derive`` is a
        no-op for them — but their aggregate sides, which the executor
        routes back through :meth:`fetch`, still derive individually.
        """
        if not self.enabled:
            return None
        tracer = _active_tracer()
        with tracer.span("cache.lookup") as span:
            fingerprint = fingerprint_query(query)
            with self._lock:
                entry = self._entries.get(fingerprint)
                if entry is not None and entry.query == query:
                    self._entries.move_to_end(fingerprint)
                    self.counters.hits += 1
                    if tracer.enabled:
                        span.set(outcome="hit", fingerprint=_short(fingerprint),
                                 rows_out=len(entry.result))
                    return _serve(entry.result)
                derived = self._derive(query, fingerprint)
                if derived is not None:
                    self.counters.derivations += 1
                    self.store(query, derived, derived_from_cache=True)
                    if tracer.enabled:
                        span.set(outcome="derive",
                                 fingerprint=_short(fingerprint),
                                 rows_out=len(derived))
                    return _serve(derived)
                self.counters.misses += 1
            if tracer.enabled:
                span.set(outcome="miss", fingerprint=_short(fingerprint))
            return None

    def store(
        self,
        query: CacheableQuery,
        result: ResultSet,
        derived_from_cache: bool = False,
    ) -> None:
        """Memoize an executed (or derived) result, evicting LRU-first."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._entry(query, result, derived_from_cache)
            if entry.cells > self.cell_budget:
                return  # would evict the whole cache for one oversized result
            fingerprint = entry.fingerprint
            old = self._entries.pop(fingerprint, None)
            if old is not None:
                self._forget(old)
            self._entries[fingerprint] = entry
            self._cached_cells += entry.cells
            if entry.meta is not None:
                self._by_source.setdefault(entry.meta.source, set()).add(fingerprint)
            self.counters.stores += 1
            while self._cached_cells > self.cell_budget and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._forget(evicted)
                self.counters.evictions += 1

    def pin(self, name: str, query: AggregateQuery, result: ResultSet) -> None:
        """Keep an annotated result as the materialized view ``name``.

        The entry answers later gets through derivation, like a cached
        one; it leaves only by :meth:`unpin` or by invalidation of a table
        it read.  An LRU copy of the same query is dropped: one result,
        stored once.
        """
        with self._lock:
            entry = self._entry(query, result, False)
            entry.view = name
            old = self._entries.pop(entry.fingerprint, None)
            if old is not None:
                self._forget(old)
            self._pinned[name] = entry

    def unpin(self, name: str) -> bool:
        """Forget the view ``name``; ``False`` when no such view is pinned."""
        with self._lock:
            return self._pinned.pop(name, None) is not None

    def pinned_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._pinned))

    def would_hit(self, query: AggregateQuery) -> Optional[str]:
        """Non-mutating probe: ``"exact"``, ``"derive"``, or ``None``.

        The derivation probe runs only the static usability check, so it
        can be (rarely) optimistic about roll-ups the engine cannot
        build — acceptable for cost estimation.
        """
        if not self.enabled:
            return None
        fingerprint = fingerprint_query(query)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None and entry.query == query:
                return "exact"
            meta = self._semantics.get(fingerprint)
            if meta is not None:
                for candidate in self._candidates(meta):
                    if can_derive(meta, candidate.meta):  # type: ignore[arg-type]
                        return "derive"
        return None

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """Discard every entry depending on a table; returns the count."""
        with self._lock:
            stale = [
                fingerprint
                for fingerprint, entry in self._entries.items()
                if table_name in entry.tables
            ]
            for fingerprint in stale:
                self._forget(self._entries.pop(fingerprint))
            views = [
                name
                for name, entry in self._pinned.items()
                if table_name in entry.tables
            ]
            for name in views:
                del self._pinned[name]
            self.counters.invalidations += len(stale) + len(views)
            return len(stale) + len(views)

    def clear(self) -> None:
        """Drop all cached results; pinned views and counters are kept."""
        with self._lock:
            self._entries.clear()
            self._by_source.clear()
            self._cached_cells = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current occupancy, as one flat dict."""
        snapshot = self.counters.snapshot()
        with self._lock:
            snapshot.update(
                entries=len(self._entries),
                cached_cells=self._cached_cells,
                cached_bytes=sum(e.nbytes for e in self._entries.values()),
                cell_budget=self.cell_budget,
                enabled=int(self.enabled),
            )
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entry(
        self, query: CacheableQuery, result: ResultSet, derived: bool
    ) -> CacheEntry:
        """An entry for a result, with the tables that invalidate it."""
        fingerprint = fingerprint_query(query)
        tables: Set[str] = set()
        for aggregate in _component_aggregates(query):
            tables |= {aggregate.fact}
            tables |= {join.table for join in aggregate.joins}
            component_meta = self._semantics.get(fingerprint_query(aggregate))
            if component_meta is not None:
                tables |= component_meta.base_tables
        return CacheEntry(
            fingerprint, query, result, self._semantics.get(fingerprint),
            frozenset(tables), derived,
        )

    def _candidates(self, meta: QueryMeta):
        """Annotated entries of the same cube, pinned views included,
        smallest result first."""
        fingerprints = self._by_source.get(meta.source, ())
        entries = [
            self._entries[f]
            for f in fingerprints
            if f in self._entries and self._entries[f].meta is not None
        ]
        entries += [
            entry
            for entry in self._pinned.values()
            if entry.meta is not None and entry.meta.source == meta.source
        ]
        entries.sort(key=lambda entry: len(entry.result))
        return entries

    def _derive(
        self, query: AggregateQuery, fingerprint: Fingerprint
    ) -> Optional[ResultSet]:
        meta = self._semantics.get(fingerprint)
        if meta is None or self.rollup is None:
            return None
        for candidate in self._candidates(meta):
            if not can_derive(meta, candidate.meta):  # type: ignore[arg-type]
                continue
            result = derive_result(
                meta, candidate.meta, candidate.result, self.rollup  # type: ignore[arg-type]
            )
            if result is not None:
                if candidate.view is None:
                    self._entries.move_to_end(candidate.fingerprint)
                tracer = _active_tracer()
                if tracer.enabled:
                    event = tracer.event(
                        "cache.rollup-derivation",
                        source_fingerprint=_short(candidate.fingerprint),
                        source_rows=len(candidate.result),
                        rows_out=len(result),
                    )
                    if candidate.view is not None:
                        event.set(source_view=candidate.view)
                return result
        return None

    def _forget(self, entry: CacheEntry) -> None:
        self._cached_cells -= entry.cells
        if entry.meta is not None:
            fingerprints = self._by_source.get(entry.meta.source)
            if fingerprints is not None:
                fingerprints.discard(entry.fingerprint)


def _short(fingerprint: Fingerprint) -> str:
    """A short stable digest of a fingerprint, for span attributes.

    Fingerprints are deterministic tuples of strings, so the digest of
    their ``repr`` is stable within a process run and across runs —
    enough to correlate a derivation with its source entry in a trace.
    """
    import hashlib

    return hashlib.sha1(repr(fingerprint).encode()).hexdigest()[:10]


def _serve(result: ResultSet) -> ResultSet:
    """A shallow copy: callers get their own column dict, shared arrays."""
    return result.copy()


def _component_aggregates(query: CacheableQuery):
    """The aggregate subqueries a cacheable query is built from.

    Invalidation tracks tables through these: a drill-across entry
    depends on both sides' tables, a pivot entry on its base's.
    """
    if isinstance(query, DrillAcrossQuery):
        return (query.left, query.right)
    if isinstance(query, PivotQuery):
        return (query.base,)
    return (query,)

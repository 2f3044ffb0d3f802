"""Derivation reuse: answering a cube query from a cached finer result.

This is the semantic half of the cache — the usability/containment
relation between query results that classic OLAP caching (and the
comparative cube algebras in the related work) formalise: a cached result
``r_e`` of query ``q_e`` can answer query ``q_t`` when

* both range over the same detailed cube,
* ``q_e``'s group-by set is finer or equal along every hierarchy of
  ``q_t`` (``G_e ⪰_H G_t``),
* every predicate ``q_e`` was filtered by subsumes a predicate of
  ``q_t`` on the same level (the cached rows are a superset of the rows
  the target needs),
* the remaining target predicates are evaluable on the cached
  coordinates (their level is reachable by roll-up from an entry level),
* every requested measure re-aggregates soundly — the same distributive
  rule as :mod:`repro.olap.materialized` (``sum/min/max`` re-aggregate as
  themselves, ``count`` by summing); ``avg`` only when the group-by sets
  are *equal*, where every output group is a single cached row and
  re-aggregation is the identity.

Derivation then never touches the fact table and never hashes a row:
it works on the dictionary codes the cached result carries
(:meth:`ResultSet.encoded`).  Each distinct cached member rolls up
through the engine's rollup resolver, residual predicates are evaluated
with :meth:`Predicate.mask` on the distinct members and gathered per
row, and the re-grouping runs through the same
:func:`~repro.engine.kernels.combine_codes` / ``aggregate`` kernels as
cold execution.  Because both paths order groups lexicographically by
member value (every dictionary is sorted), a derived result has the same
row order as a cold one.

**Bit-exactness policy.**  A derived answer must be bit-identical to the
cold one, so re-aggregations that could *re-associate* floating-point
additions are only taken when provably exact: ``min``/``max`` pick
existing values, ``count`` sums integral counts, equal group-by sets
make every output group a single cached row (identity), and ``sum``
over strictly finer groups is accepted only when the cached partial
sums are integral and small enough that integer addition is exact in
float64.  Anything else bails out to cold execution — slower, never
wrong by a bit.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..core.query import CubeQuery, Predicate, PredicateOp
from ..engine.executor import ResultSet
from ..engine.kernels import (
    aggregate,
    combine_codes,
    dictionary_encode,
    narrow_codes,
    sums_exactly,
)
from ..olap.materialized import REAGGREGATION_OPS

RollupResolver = Callable[[str, str, str], Optional[Mapping]]
"""``(source, fine_level, coarse_level) -> {fine_member: coarse_member}``.

Returns ``None`` when the engine cannot build the member roll-up (e.g. a
degenerate level with no hydrated hierarchy), which makes derivation
bail out and the query fall back to cold execution.
"""


class QueryMeta:
    """OLAP-level semantics of a pushed aggregate query.

    The physical :class:`~repro.engine.query.AggregateQuery` has no
    hierarchy knowledge, so the OLAP layer annotates each query it builds
    with the originating :class:`~repro.core.query.CubeQuery` plus the set
    of base tables its star touches (for invalidation).
    """

    __slots__ = ("query", "base_tables")

    def __init__(self, query: CubeQuery, base_tables: FrozenSet[str]):
        self.query = query
        self.base_tables = base_tables

    @property
    def source(self) -> str:
        return self.query.source

    @property
    def measure_names(self) -> Tuple[str, ...]:
        return self.query.measures or self.query.schema.measure_names()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryMeta({self.query!r})"


def predicate_subsumes(broader: Predicate, narrower: Predicate) -> bool:
    """Whether every member accepted by ``narrower`` satisfies ``broader``.

    Only same-level predicates are compared (cross-level implication via
    roll-up is deliberately out of scope — conservative, always sound).
    """
    if broader.level != narrower.level:
        return False
    if broader == narrower:
        return True
    members = narrower.member_set()
    if members is not None:
        return all(broader.matches(member) for member in members)
    if broader.op is PredicateOp.RANGE and narrower.op is PredicateOp.RANGE:
        return (
            broader.values[0] <= narrower.values[0]
            and narrower.values[1] <= broader.values[1]
        )
    return False


def can_derive(target: QueryMeta, entry: QueryMeta) -> bool:
    """Static usability check: can ``entry``'s result answer ``target``?

    Pure metadata reasoning — no roll-up maps are built, so this is cheap
    enough for candidate scans and for the cost model's warm-probe.  The
    execution step can still bail out (returning ``None``) when a member
    roll-up proves unbuildable.
    """
    if entry.source != target.source:
        return False
    entry_gb = entry.query.group_by
    target_gb = target.query.group_by
    if not entry_gb.rolls_up_to(target_gb):
        return False
    schema = target.query.schema

    # Measures: requested ⊆ cached, each re-aggregatable.
    cached = set(entry.measure_names)
    equal_sets = set(entry_gb.levels) == set(target_gb.levels)
    for name in target.measure_names:
        if name not in cached:
            return False
        op = schema.measure(name).op
        if op not in REAGGREGATION_OPS and not equal_sets:
            return False

    # Every entry predicate must be implied by a target predicate on the
    # same level, else the cached rows are missing data the target needs.
    target_preds = target.query.predicates
    for entry_pred in entry.query.predicates:
        covering = next(
            (p for p in target_preds if p.level == entry_pred.level), None
        )
        if covering is None or not predicate_subsumes(entry_pred, covering):
            return False

    # Residual target predicates must be evaluable on cached coordinates.
    entry_hierarchies = set(entry_gb.hierarchy_names)
    for target_pred in target_preds:
        if any(p == target_pred for p in entry.query.predicates):
            continue
        hierarchy = schema.hierarchy_of_level(target_pred.level)
        if hierarchy.name not in entry_hierarchies:
            return False
        entry_level = entry_gb.level_for_hierarchy(hierarchy.name)
        if not hierarchy.rolls_up_to(entry_level, target_pred.level):
            return False
    return True


def derive_result(
    target: QueryMeta,
    entry: QueryMeta,
    cached: ResultSet,
    rollup: RollupResolver,
) -> Optional[ResultSet]:
    """Compute ``target``'s result from ``entry``'s cached result.

    Assumes :func:`can_derive` holds.  Returns ``None`` when a needed
    member roll-up cannot be built (the caller falls back to cold
    execution).
    """
    schema = target.query.schema
    entry_gb = entry.query.group_by
    target_gb = target.query.group_by
    source = target.source
    equal_sets = set(entry_gb.levels) == set(target_gb.levels)

    # Exactness gate, checked before any roll-up work: a strictly-finer
    # sum is only taken when the cached partial sums re-add exactly.  Any
    # row subset of an exactly-summable column is itself exactly summable,
    # so testing the full column here is conservative and spares encoding
    # a large entry just to bail afterwards.
    if not equal_sets:
        for name in target.measure_names:
            if REAGGREGATION_OPS.get(schema.measure(name).op) == "sum":
                if not _sums_exactly(cached.column(name)):
                    return None  # re-associating float sums drifts by ulps

    def coded_at(level: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(codes, dictionary)`` of the cached rows at ``level``."""
        hierarchy = schema.hierarchy_of_level(level)
        entry_level = entry_gb.level_for_hierarchy(hierarchy.name)
        mapping = None if entry_level == level else rollup(source, entry_level, level)
        try:
            codes, dictionary = cached.encoded(entry_level)
            if entry_level == level:
                return codes, dictionary
            return _rollup_codes(codes, dictionary, mapping)
        except TypeError:  # un-orderable mixed member types
            return None

    # Residual predicate mask over the cached rows, evaluated once per
    # distinct member.
    mask: Optional[np.ndarray] = None
    for predicate in target.query.predicates:
        if any(p == predicate for p in entry.query.predicates):
            continue  # already fully applied when the entry was computed
        coded = coded_at(predicate.level)
        if coded is None:
            return None
        part = predicate.mask(coded[1])[coded[0]]
        mask = part if mask is None else (mask & part)

    # Roll cached coordinates up to the target levels, then re-group.
    level_codes: List[Tuple[np.ndarray, np.ndarray]] = []
    for level in target_gb.levels:
        coded = coded_at(level)
        if coded is None:
            return None
        codes, dictionary = coded
        level_codes.append((codes if mask is None else codes[mask], dictionary))
    n_rows = int(mask.sum()) if mask is not None else len(cached)
    group_ids, group_count, first_rows = combine_codes(
        [(codes, len(dictionary)) for codes, dictionary in level_codes], n_rows
    )

    columns: Dict[str, np.ndarray] = {}
    kept: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for level, (codes, dictionary) in zip(target_gb.levels, level_codes):
        codes = codes[first_rows]
        columns[level] = dictionary[codes]
        kept[level] = (narrow_codes(codes, len(dictionary)), dictionary)
    for name in target.measure_names:
        op = schema.measure(name).op
        # For equal group-by sets every output group is one cached row, so
        # even avg re-aggregates as the identity (avg of a singleton).
        reagg = REAGGREGATION_OPS.get(op, op if equal_sets else None)
        if reagg is None:  # pragma: no cover - excluded by can_derive
            return None
        values = cached.column(name)
        if mask is not None:
            values = values[mask]
        columns[name] = aggregate(group_ids, group_count, values, reagg)
    result = ResultSet(columns)
    result.codes = kept
    return result


# The float-sum exactness gate is shared with the fused-scan path of the
# engine executor, which applies it at fact-row granularity; here it gates
# cached *partial* sums before re-association.
_sums_exactly = sums_exactly


def _rollup_codes(
    codes: np.ndarray, dictionary: np.ndarray, mapping: Optional[Mapping]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Map a coded member column through a fine→coarse roll-up.

    Only the distinct members the cached rows hold go through the
    mapping; the coarse codes are then gathered per row.  ``None`` when
    the roll-up is unavailable or a member is missing from it.
    """
    if mapping is None:
        return None
    present = np.flatnonzero(np.bincount(codes, minlength=len(dictionary)))
    rolled = np.empty(len(present), dtype=object)
    for slot, member in enumerate(dictionary[present]):
        coarse = mapping.get(member, _MISSING)
        if coarse is _MISSING:
            return None
        rolled[slot] = coarse
    coarse_codes, coarse_dictionary = dictionary_encode(rolled)
    lut = np.zeros(len(dictionary), dtype=np.int64)
    lut[present] = coarse_codes
    return lut[codes], coarse_dictionary


_MISSING = object()

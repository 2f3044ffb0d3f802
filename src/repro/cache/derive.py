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
* every requested measure re-aggregates exactly (the bit-exactness policy
  below).

A cached result is then one more source of finest groups of partials:
:func:`derive_result` rolls the dictionary codes the cached result
carries (:meth:`ResultSet.encoded`) up to the target levels with one
gather through the engine's coded roll-up
(:meth:`~repro.olap.engine.MultidimensionalEngine.rollup`), hands the
cached measure columns over as the partials, and the engine's one
re-aggregation step (:func:`~repro.engine.executor.finish_member`, the
step fused batch members finish in) filters the residual predicates and
re-groups.  Derivation never touches the fact table and does no Python
work per member or row.  A rolled-up level takes the coarse dictionary
of the table that binds both levels, the dictionary a cold result
grouped by it carries, so a derived result holds the codes, the
dictionary object and the row order of the cold one.  A part-of order
that is no function (a fine member with two parents) has no coded
roll-up, and derivation refuses.

**Bit-exactness policy.**  A derived answer must be bit-identical to the
cold one.  Equal group-by sets make every output group a single cached
row, so re-aggregation is the identity and any measure, ``avg``
included, derives.  Strictly coarser groups re-aggregate by Gray et
al.'s distributive rule (``REAGGREGATION_OPS``: ``sum/min/max`` as
themselves, ``count`` by summing): ``min``/``max`` pick existing values
and counts are integers, but re-added ``sum`` partials re-associate the
cold scan's row-order additions.  That is exact only when the *base
fact column* passes ``Table.sums_exactly`` (integral, with the column's
total bound below 2**53) — the gate the lowering applies to morsel
merges and fused members.  The cached partial sums themselves prove
nothing: fractional rows can sum to integral partials.  The OLAP layer
records the verdict per measure in :attr:`QueryMeta.reaggregable`, and
:func:`can_derive` refuses anything else, so the cost model's probe and
the lookup agree.  Refused queries execute cold — slower, never wrong by
a bit.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Optional, Tuple

import numpy as np

from ..core.query import CubeQuery, Predicate, PredicateOp
from ..engine.executor import Groups, Member, ResultSet, finish_member
from ..engine.kernels import REAGGREGATION_OPS, Rollup

RollupOf = Callable[[str, str, str], Optional[Rollup]]
"""``(source, fine_level, coarse_level) -> Rollup``, ``None`` when none exists."""


class QueryMeta:
    """OLAP-level semantics of a pushed aggregate query.

    The physical :class:`~repro.engine.query.AggregateQuery` has no
    hierarchy knowledge, so the OLAP layer annotates each query it builds
    with the originating :class:`~repro.core.query.CubeQuery`, the set of
    base tables its star touches (for invalidation), and the requested
    measures whose finer partials re-aggregate exactly
    (``MultidimensionalEngine.reaggregable``).
    """

    __slots__ = ("query", "base_tables", "reaggregable")

    def __init__(
        self,
        query: CubeQuery,
        base_tables: FrozenSet[str],
        reaggregable: FrozenSet[str],
    ):
        self.query = query
        self.base_tables = base_tables
        self.reaggregable = reaggregable

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

    Pure metadata reasoning — no roll-up is built, so this is cheap
    enough for candidate scans and for the cost model's warm-probe.  The
    execution step can still bail out (returning ``None``) when a coded
    roll-up does not exist or lacks a cached member.
    """
    if entry.source != target.source:
        return False
    entry_gb = entry.query.group_by
    target_gb = target.query.group_by
    if not entry_gb.rolls_up_to(target_gb):
        return False
    schema = target.query.schema

    # Measures: requested ⊆ cached; coarser groups only where exact.
    cached = set(entry.measure_names)
    equal_sets = set(entry_gb.levels) == set(target_gb.levels)
    for name in target.measure_names:
        if name not in cached:
            return False
        if not equal_sets and name not in target.reaggregable:
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
    rollup: RollupOf,
) -> Optional[ResultSet]:
    """Compute ``target``'s result from ``entry``'s cached result.

    Assumes :func:`can_derive` holds.  Returns ``None`` when a needed
    roll-up does not exist or lacks a cached member (the caller falls
    back to cold execution).
    """
    schema = target.query.schema
    entry_gb = entry.query.group_by
    target_gb = target.query.group_by
    residual = [
        predicate
        for predicate in target.query.predicates
        if not any(p == predicate for p in entry.query.predicates)
    ]

    # The cached rows as finest groups, keyed by the levels the target
    # groups or filters by.
    codes: Dict[Hashable, Tuple[np.ndarray, int]] = {}
    dictionaries: Dict[Hashable, np.ndarray] = {}
    for level in dict.fromkeys((*target_gb.levels, *(p.level for p in residual))):
        entry_level = entry_gb.level_for_hierarchy(
            schema.hierarchy_of_level(level).name
        )
        try:
            level_codes, dictionary = cached.encoded(entry_level)
            if entry_level != level:
                coded = rollup(target.source, entry_level, level)
                lut = None if coded is None else coded.lut_for(dictionary)
                if coded is None or lut is None:
                    return None
                level_codes, dictionary = lut[level_codes], coded.coarse
        except TypeError:  # un-orderable mixed member types
            return None
        codes[level] = (level_codes, len(dictionary))
        dictionaries[level] = dictionary

    names = target.measure_names
    # An avg only derives at equal levels, where every group is one cached
    # row and summing it is the identity.
    ops = [
        op if op in REAGGREGATION_OPS else "sum"
        for op in (schema.measure(name).op for name in names)
    ]
    return finish_member(
        Groups(
            len(cached), codes, dictionaries, ops,
            [cached.column(name) for name in names],
        ),
        Member(
            tuple((level, level) for level in target_gb.levels),
            tuple((predicate, predicate.level) for predicate in residual),
            tuple((name, (slot,)) for slot, name in enumerate(names)),
            not residual and target_gb.levels == entry_gb.levels,
        ),
    )


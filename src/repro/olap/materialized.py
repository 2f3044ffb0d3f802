"""Materialized aggregate views and query routing.

The paper's experimental setup notes that "materialized views were created
to improve performances" on the Oracle star schema.  This module supplies
the same capability for our engine substrate:

* :meth:`MultidimensionalEngine.materialize` (wired in
  :mod:`repro.olap.engine`) pre-aggregates a cube at a chosen group-by set
  and stores the result as a catalog table;
* query routing rewrites any later *get* whose group-by levels, predicate
  levels, and measures are all answerable from a view onto the smallest
  applicable view instead of the fact table.

Soundness rules (a view answer must be bit-identical to the fact-table
answer):

* a view can answer a query iff every group-by level **and** every
  predicate level of the query is one of the view's levels (re-grouping a
  view by a subset of its columns is exactly an aggregate query over the
  view table, with no hierarchy knowledge needed);
* only distributive measures (sum/min/max/count) are materialized; avg
  measures fall back to the fact table;
* a query on exactly the view's levels reads one view row per group —
  the identity, always allowed.  A coarser query re-aggregates the view's
  partials by ``REAGGREGATION_OPS``, which is exact for ``min``, ``max``
  and ``count`` but re-associates the additions of a ``sum``: it routes
  only measures whose *base fact column* passes ``Table.sums_exactly``
  (``MultidimensionalEngine.reaggregable``), the gate cache derivation
  and the fused scan apply.  Any other query falls back to the fact
  table.

Because routing happens inside the cube-query-to-SQL rewriting, the pushed
joins of JOP and pivots of POP benefit transparently, and the rendered SQL
truthfully shows the view table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.errors import EngineError
from ..core.query import CubeQuery
from ..core.schema import CubeSchema
from ..engine.executor import ResultSet
from ..engine.query import (
    Aggregate,
    AggregateQuery,
    ColumnPredicate,
    FACT,
    GroupByColumn,
)
from ..engine.kernels import REAGGREGATION_OPS
from ..engine.table import Table


class MaterializedView:
    """A pre-aggregated cube stored as a plain catalog table.

    The table has one column per view level (named after the level) and one
    per materialized measure (named after the measure).
    """

    __slots__ = ("name", "source", "levels", "table_name", "measures", "row_count")

    def __init__(
        self,
        name: str,
        source: str,
        levels: Tuple[str, ...],
        table_name: str,
        measures: Tuple[str, ...],
        row_count: int,
    ):
        self.name = name
        self.source = source
        self.levels = levels
        self.table_name = table_name
        self.measures = measures
        self.row_count = row_count

    def covers(
        self, query: CubeQuery, schema: CubeSchema, reaggregable: FrozenSet[str]
    ) -> bool:
        """Whether this view answers a cube query bit-identically.

        ``reaggregable`` names the query's measures whose partials may be
        re-aggregated into coarser groups.
        """
        levels = set(query.group_by.levels)
        if not levels | {p.level for p in query.predicates} <= set(self.levels):
            return False
        identity = levels == set(self.levels)
        return all(
            name in self.measures and (identity or name in reaggregable)
            for name in query.measures or schema.measure_names()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializedView({self.name!r}, on={list(self.levels)}, "
            f"rows={self.row_count})"
        )


class ViewRegistry:
    """The set of materialized views of one engine, grouped by source cube."""

    def __init__(self):
        self._views: Dict[str, List[MaterializedView]] = {}
        self._by_name: Dict[str, MaterializedView] = {}

    def add(self, view: MaterializedView) -> None:
        if view.name in self._by_name:
            raise EngineError(f"materialized view {view.name!r} already exists")
        self._views.setdefault(view.source, []).append(view)
        self._by_name[view.name] = view

    def remove(self, name: str) -> MaterializedView:
        view = self._by_name.pop(name, None)
        if view is None:
            raise EngineError(f"unknown materialized view {name!r}")
        self._views[view.source].remove(view)
        return view

    def for_source(self, source: str) -> Tuple[MaterializedView, ...]:
        return tuple(self._views.get(source, ()))

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._by_name))

    def best_for(
        self, query: CubeQuery, schema: CubeSchema, reaggregable: FrozenSet[str]
    ) -> Optional[MaterializedView]:
        """The smallest view that covers a query, or ``None``."""
        candidates = [
            view
            for view in self.for_source(query.source)
            if view.covers(query, schema, reaggregable)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda view: view.row_count)


def build_view_table(
    name: str, levels: Sequence[str], measures: Sequence[str], result: ResultSet
) -> Table:
    """Assemble the stored table of a view from an aggregate result."""
    columns = {level: result.column(level) for level in levels}
    for measure_name in measures:
        columns[measure_name] = result.column(measure_name)
    return Table(name, columns)


def rewrite_on_view(
    query: CubeQuery, view: MaterializedView, schema: CubeSchema
) -> AggregateQuery:
    """Rewrite a cube query as an aggregate query over a view table.

    All level columns live on the view table itself (no joins); each
    measure re-aggregates with the operator of :data:`REAGGREGATION_OPS`.
    """
    group_by = tuple(
        GroupByColumn(FACT, level, level) for level in query.group_by.levels
    )
    where = tuple(
        ColumnPredicate(FACT, predicate.level, predicate)
        for predicate in query.predicates
    )
    requested = query.measures or schema.measure_names()
    aggregates = tuple(
        Aggregate(
            measure_name,
            REAGGREGATION_OPS[schema.measure(measure_name).op],
            measure_name,
        )
        for measure_name in requested
    )
    return AggregateQuery(
        fact=view.table_name,
        joins=(),
        where=where,
        group_by=group_by,
        aggregates=aggregates,
    )

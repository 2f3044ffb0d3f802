"""The multidimensional engine: cube queries → star-schema SQL.

This is our implementation of the component the paper reuses from [6]
("Towards Conversational OLAP"): it owns the multidimensional metadata —
which cube schemas are stored as which star schemas — and rewrites the
logical *get*, *drill-across* and *pivot* operations into engine queries,
wrapping results back into :class:`~repro.core.cube.Cube` objects.

It is the single point through which plans touch the DBMS substrate, so the
executor can attribute time to "get the target cube", "get the benchmark",
"get C+B" exactly as Figure 4 does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.cube import Cube
from ..core.errors import EngineError, SchemaError
from ..core.groupby import GroupBySet
from ..core.query import CubeQuery
from ..core.schema import CubeSchema
from ..engine.catalog import Catalog
from ..engine.executor import EngineExecutor, ResultSet
from ..engine.kernels import REAGGREGATION_OPS, Rollup
from ..engine.query import (
    Aggregate,
    AggregateQuery,
    ColumnPredicate,
    DrillAcrossQuery,
    FACT,
    PivotQuery,
)
from ..engine.sqlgen import render_sql
from ..engine.star import StarSchema
from ..parallel.config import ParallelConfig
from ..settings import Settings


class RegisteredCube:
    """A detailed cube known to the engine: logical schema + physical star."""

    __slots__ = ("name", "schema", "star")

    def __init__(self, name: str, schema: CubeSchema, star: StarSchema):
        self.name = name
        self.schema = schema
        self.star = star

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegisteredCube({self.name!r})"


@dataclass(frozen=True)
class MaterializedView:
    """A cube pre-aggregated at ``levels``, pinned in the result cache.

    The paper's Oracle setup created materialized views "to improve
    performances".  Here a view is the cached result of its get, kept
    outside LRU order: every later get that the cache can derive from
    it (``can_derive``) is answered by re-aggregating its rows.
    """

    name: str
    source: str
    levels: Tuple[str, ...]
    measures: Tuple[str, ...]
    row_count: int


class MultidimensionalEngine:
    """Rewrites OLAP-level operations to engine queries and executes them."""

    def __init__(self, catalog: Catalog):
        from ..cache import CachingEngineExecutor, SemanticResultCache
        from ..obs.metrics import METRICS, MetricsRegistry

        self.catalog = catalog
        # Engine-scoped metrics: the cache and executor report into this
        # registry (the cache under the "cache." prefix), and it in turn
        # aggregates into the process-wide repro.obs.METRICS.
        self.metrics = MetricsRegistry(parent=METRICS)
        self.result_cache = SemanticResultCache(
            metrics=MetricsRegistry(parent=self.metrics, prefix="cache")
        )
        self.result_cache.rollup = self.rollup
        # How statements run: the environment's settings until code
        # configures the engine.  Every executor reads these two.
        self.settings = Settings.from_env()
        self.parallel: Optional[ParallelConfig] = _parallel_config(self.settings)
        self._configured = False
        self.executor: EngineExecutor = CachingEngineExecutor(
            catalog, self.result_cache, metrics=self.metrics, engine=self
        )
        self._cubes: Dict[str, RegisteredCube] = {}
        self._rollup_maps: Dict[Tuple[str, str, str], Optional[Rollup]] = {}
        catalog.add_listener(self._on_catalog_change)

    def _on_catalog_change(self, event: str, table_name: str) -> None:
        """Invalidate caches when a catalog table changes identity.

        Replacing or dropping a table makes every cached result, pinned
        view and coded roll-up that read from it stale.  Fresh
        registrations cannot be referenced by any cached result, so they
        only reset the roll-ups (cheap to rebuild) in case a cube binding
        follows.
        """
        if event in ("replace", "drop"):
            self.result_cache.invalidate_table(table_name)
        self._rollup_maps.clear()

    # ------------------------------------------------------------------
    # Settings
    # ------------------------------------------------------------------
    def configure(self, settings: Optional[Settings] = None, **changes) -> Settings:
        """Replace this engine's :class:`~repro.settings.Settings` whole.

        The new value is ``settings`` with ``changes`` (field names)
        applied; without ``settings``, the changes apply to what code set
        before, or to the built-in defaults on an engine only the
        environment configured — the precedence rule of
        :mod:`repro.settings`.  Settings change how a scan runs, never
        what it answers, so cached results stay valid.  Returns the new
        settings.
        """
        if settings is None:
            settings = self.settings if self._configured else Settings()
        old, self.settings = self.settings, replace(settings, **changes)
        self._configured = True
        if _pool_shape(self.settings) != _pool_shape(old):
            previous, self.parallel = self.parallel, _parallel_config(self.settings)
            if previous is not None:
                previous.close()
        return self.settings

    # ------------------------------------------------------------------
    # Registration & lookup
    # ------------------------------------------------------------------
    def register_cube(self, name: str, schema: CubeSchema, star: StarSchema) -> RegisteredCube:
        """Register a detailed cube under a name usable in ``with`` clauses."""
        if name in self._cubes:
            raise EngineError(f"cube {name!r} is already registered")
        registered = RegisteredCube(name, schema, star)
        self._cubes[name] = registered
        return registered

    def cube(self, name: str) -> RegisteredCube:
        """Look a registered cube up by name."""
        try:
            return self._cubes[name]
        except KeyError:
            raise EngineError(
                f"unknown cube {name!r} (registered: {', '.join(sorted(self._cubes))})"
            ) from None

    def has_cube(self, name: str) -> bool:
        return name in self._cubes

    def cube_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._cubes))

    # ------------------------------------------------------------------
    # Query rewriting
    # ------------------------------------------------------------------
    def build_aggregate_query(self, query: CubeQuery) -> AggregateQuery:
        """Rewrite a cube query (a logical *get*) into a star SQL query.

        The rewrite depends on the cube query alone: whether a cached
        result or a materialized view answers it is the result cache's
        choice at execution time, as in Oracle's query rewrite.
        """
        registered = self.cube(query.source)
        star = registered.star
        schema = registered.schema

        group_by = []
        for level_name in query.group_by.levels:
            table, column = star.column_for_level(level_name)
            group_by.append(_group_by_column(table, column, level_name))

        where = []
        for predicate in query.predicates:
            table, column = star.column_for_level(predicate.level)
            where.append(ColumnPredicate(table, column, predicate))

        measures = query.measures or schema.measure_names()
        aggregates = []
        for measure_name in measures:
            measure = schema.measure(measure_name)
            column = star.column_for_measure(measure_name)
            aggregates.append(Aggregate(column, measure.op, measure_name))

        return self._annotated(
            AggregateQuery(
                fact=star.fact_table,
                joins=star.all_joins(),
                where=where,
                group_by=group_by,
                aggregates=aggregates,
            ),
            query,
        )

    def reaggregable(self, query: CubeQuery) -> FrozenSet[str]:
        """The measures of a get whose finer partials re-aggregate exactly.

        The operator must be distributive (``REAGGREGATION_OPS``), and a
        ``sum`` must pass ``Table.sums_exactly`` on its base fact column:
        only then do re-added partial sums equal the cold scan's row-order
        sum bit for bit.  The lowering applies the same gate to morsel
        merges and fused members; cache derivation, from cached entries
        and pinned views alike, takes a strictly coarser answer only for
        these measures.
        """
        registered = self.cube(query.source)
        schema, star = registered.schema, registered.star
        fact = self.catalog.table(star.fact_table)
        ops = {
            name: schema.measure(name).op
            for name in query.measures or schema.measure_names()
        }
        return frozenset(
            name
            for name, op in ops.items()
            if op in REAGGREGATION_OPS
            and (op != "sum" or fact.sums_exactly(star.column_for_measure(name)))
        )

    def _annotated(self, aggregate: AggregateQuery, query: CubeQuery) -> AggregateQuery:
        """Record the cube-level semantics of a pushed query in the cache.

        The physical query carries no hierarchy knowledge; this side
        annotation is what lets the cache later decide whether a cached
        result is finer than (and so can answer) another query, and which
        base tables invalidate it.
        """
        from ..cache import QueryMeta

        star = self.cube(query.source).star
        base_tables = frozenset(
            {star.fact_table} | {binding.table for binding in star.dimensions}
        )
        self.result_cache.annotate(
            aggregate, QueryMeta(query, base_tables, self.reaggregable(query))
        )
        return aggregate

    # ------------------------------------------------------------------
    # Execution entry points (one per pushable logical operator)
    # ------------------------------------------------------------------
    def get(self, query: CubeQuery) -> Cube:
        """Execute a *get*: the derived cube of a cube query."""
        aggregate = self.build_aggregate_query(query)
        result = self.executor.execute_aggregate(aggregate)
        return self._to_cube(result, query)

    def drill_across(
        self,
        left: CubeQuery,
        right: CubeQuery,
        join_levels: Sequence[str],
        alias: str = "benchmark",
        outer: bool = False,
        multi: bool = False,
    ) -> Cube:
        """Execute a pushed drill-across (the JOP join, Listing 4).

        Measures of the right side appear in the result cube qualified with
        ``alias`` (the statement syntax's ``benchmark.`` prefix).  With
        ``multi=True`` a fan-in partial join appends one column per match
        (``benchmark.m_1 …``), as the P2-rewritten past plan needs.
        """
        left_aggregate = self.build_aggregate_query(left)
        right_aggregate = self.build_aggregate_query(right)
        renames = {
            agg.alias: f"{alias}.{agg.alias}" for agg in right_aggregate.aggregates
        }
        query = DrillAcrossQuery(
            left_aggregate, right_aggregate, tuple(join_levels), renames,
            outer=outer, multi=multi,
        )
        result = self.executor.execute_drill_across(query)
        return self._to_cube(result, left, measure_aliases=None)

    def pivot_get(
        self,
        base: CubeQuery,
        pivot_level: str,
        reference,
        member_renames: Mapping[object, Mapping[str, str]],
        require_all: bool = True,
    ) -> Cube:
        """Execute a pushed get+pivot (the POP rewrite, Listing 5).

        ``base`` must select all the needed slices of ``pivot_level`` at
        once (the widened predicate of property P3); ``member_renames`` maps
        each non-reference member to ``{measure: new_column}``.
        """
        aggregate = self.build_aggregate_query(base)
        query = PivotQuery(aggregate, pivot_level, reference, member_renames, require_all)
        result = self.executor.execute_pivot(query)
        return self._to_cube(result, base, measure_aliases=None)

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------
    def materialize(
        self,
        source: str,
        levels: Sequence[str],
        name: str = "",
    ) -> MaterializedView:
        """Pre-aggregate a cube at a group-by set and pin it as a view.

        Only distributive measures (sum/min/max/count) are stored; avg
        measures keep hitting the fact table.  The result is pinned in
        the result cache, where it answers every get derivable from it
        until :meth:`drop_view` or a change to a table it read.
        """
        registered = self.cube(source)
        schema = registered.schema
        group_by = GroupBySet(schema, levels)
        measures = tuple(
            measure.name
            for measure in schema.measures
            if measure.is_distributive
        )
        if not measures:
            raise EngineError(
                f"cube {source!r} has no distributive measures to materialize"
            )
        view_name = name or f"mv_{source.lower()}_{'_'.join(group_by.levels)}"
        if view_name in self.view_names():
            raise EngineError(f"materialized view {view_name!r} already exists")
        aggregate = self.build_aggregate_query(CubeQuery(source, group_by, (), measures))
        result = self.executor.execute_aggregate(aggregate)
        self.result_cache.pin(view_name, aggregate, result)
        return MaterializedView(
            view_name, source, tuple(group_by.levels), measures, len(result)
        )

    def drop_view(self, name: str) -> None:
        """Unpin a materialized view.

        Results already derived from it stay cached: they are
        bit-identical to cold answers.
        """
        if not self.result_cache.unpin(name):
            raise EngineError(f"unknown materialized view {name!r}")

    def view_names(self) -> Tuple[str, ...]:
        """Names of all materialized views."""
        return self.result_cache.pinned_names()

    # ------------------------------------------------------------------
    # SQL rendering (for Table 1 and explain())
    # ------------------------------------------------------------------
    def sql_for_get(self, query: CubeQuery) -> str:
        """The SQL text a *get* pushes to the DBMS."""
        return render_sql(self.build_aggregate_query(query))

    def sql_for_drill_across(
        self,
        left: CubeQuery,
        right: CubeQuery,
        join_levels: Sequence[str],
        alias: str = "benchmark",
        outer: bool = False,
    ) -> str:
        """The SQL text of the JOP drill-across."""
        left_aggregate = self.build_aggregate_query(left)
        right_aggregate = self.build_aggregate_query(right)
        renames = {
            agg.alias: f"bc_{agg.alias}" for agg in right_aggregate.aggregates
        }
        return render_sql(
            DrillAcrossQuery(left_aggregate, right_aggregate, tuple(join_levels),
                             renames, outer=outer)
        )

    def sql_for_pivot(
        self,
        base: CubeQuery,
        pivot_level: str,
        reference,
        member_renames: Mapping[object, Mapping[str, str]],
        require_all: bool = True,
    ) -> str:
        """The SQL text of the POP pivot."""
        aggregate = self.build_aggregate_query(base)
        return render_sql(
            PivotQuery(aggregate, pivot_level, reference, member_renames, require_all)
        )

    # ------------------------------------------------------------------
    # Level properties (§8 extension)
    # ------------------------------------------------------------------
    def property_lookup(self, source: str, property_name: str):
        """The ``(level, {member: value})`` mapping of a level property.

        Built from the dimension table holding the property; inconsistent
        values for the same member (a violated functional dependency) raise.
        """
        registered = self.cube(source)
        level, table_name, column = registered.star.property_binding(property_name)
        _, level_column = registered.star.column_for_level(level)
        table = self.catalog.table(table_name)
        members = table.column(level_column)
        values = table.column(column)
        lookup: Dict = {}
        for member, value in zip(members, values):
            known = lookup.get(member)
            if known is None:
                lookup[member] = value
            elif known != value:
                raise EngineError(
                    f"property {property_name!r} is not functionally dependent "
                    f"on level {level!r}: member {member!r} has values "
                    f"{known!r} and {value!r}"
                )
        return level, lookup

    def has_property(self, source: str, property_name: str) -> bool:
        """Whether a cube's star binds a descriptive property."""
        return self.cube(source).star.has_property(property_name)

    # ------------------------------------------------------------------
    # Coded roll-ups (cache derivation and the ancestor join)
    # ------------------------------------------------------------------
    def rollup(self, source: str, fine: str, coarse: str) -> Optional[Rollup]:
        """The part-of function from ``fine`` to ``coarse`` members, coded.

        Built from the one table that binds both levels — the dimension
        table, or the fact table for degenerate levels — by one integer
        scatter of its rows' codes, and kept until the catalog changes.
        Its dictionaries are that table's, the ones every result grouped
        by those levels carries.  ``None`` when no single table binds the
        pair or a fine member has two parents in it: cache derivation then
        refuses and the get runs cold.
        """
        key = (source, fine, coarse)
        if key not in self._rollup_maps:
            self._rollup_maps[key] = self._build_rollup(source, fine, coarse)
        return self._rollup_maps[key]

    def _build_rollup(self, source: str, fine: str, coarse: str) -> Optional[Rollup]:
        registered = self.cube(source)
        try:
            hierarchy = registered.schema.hierarchy_of_level(fine)
            if not hierarchy.rolls_up_to(fine, coarse):
                return None
            fine_table, fine_column = registered.star.column_for_level(fine)
            coarse_table, coarse_column = registered.star.column_for_level(coarse)
        except (SchemaError, EngineError):
            return None
        if fine_table != coarse_table:
            return None
        table = self.catalog.table(
            registered.star.fact_table if fine_table == FACT else fine_table
        )
        return Rollup.of(
            table.dictionary_values(fine_column), table.dictionary(fine_column)[0],
            table.dictionary_values(coarse_column), table.dictionary(coarse_column)[0],
        )

    # ------------------------------------------------------------------
    # Domain helpers (used by sibling/past planning)
    # ------------------------------------------------------------------
    def ordered_members(self, source: str, level_name: str) -> List:
        """The distinct members of a level, sorted ascending.

        Past benchmarks use this ordering to find the k predecessors of the
        target time slice; member encodings must therefore sort temporally
        (ISO dates and zero-padded month strings do).
        """
        registered = self.cube(source)
        table_token, column = registered.star.column_for_level(level_name)
        if table_token == "__fact__" or table_token == registered.star.fact_table:
            table = self.catalog.table(registered.star.fact_table)
        else:
            table = self.catalog.table(table_token)
        return list(np.unique(table.column(column)))

    def predecessors(self, source: str, level_name: str, member, k: int) -> List:
        """The ``k`` members immediately preceding ``member`` in the level's
        order (fewer if the history is shorter), oldest first."""
        members = self.ordered_members(source, level_name)
        try:
            position = members.index(member)
        except ValueError:
            raise SchemaError(
                f"member {member!r} not found in level {level_name!r}"
            ) from None
        start = max(0, position - k)
        return members[start:position]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _to_cube(
        self,
        result: ResultSet,
        query: CubeQuery,
        measure_aliases: Optional[Sequence[str]] = None,
    ) -> Cube:
        registered = self.cube(query.source)
        levels = set(query.group_by.levels)
        if measure_aliases is None:
            # Every non-coordinate result column is a measure; this covers
            # drill-across renames and pivot-created columns uniformly.
            measure_aliases = [
                name for name in result.column_names if name not in levels
            ]
        coords = {level: result.column(level) for level in query.group_by.levels}
        measures = {alias: result.column(alias) for alias in measure_aliases}
        cube = Cube(registered.schema, query.group_by, coords, measures)
        cube.codes = {
            level: result.codes[level]
            for level in query.group_by.levels
            if level in result.codes
        }
        return cube


def _pool_shape(settings: Settings) -> Tuple[int, int, Optional[int]]:
    return settings.parallelism, settings.morsel_rows, settings.min_rows


def _parallel_config(settings: Settings) -> Optional[ParallelConfig]:
    """The worker pool config the settings ask for (``None`` when serial)."""
    if settings.parallelism <= 1:
        return None
    return ParallelConfig(
        settings.parallelism, settings.morsel_rows, settings.min_rows
    )


def _group_by_column(table: str, column: str, alias: str):
    from ..engine.query import GroupByColumn

    return GroupByColumn(table, column, alias)

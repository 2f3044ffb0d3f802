"""Vectorised execution of pushed gets (the engine's query processor).

This is the substitute for the paper's DBMS: it evaluates the aggregate
queries of :mod:`repro.engine.query` with set-oriented NumPy kernels —
semi-join filtering through dimension tables and factorised multi-column
group-by — and hands each result back with the dictionary codes it
grouped by.  A pushed drill-across or pivot is not evaluated here: the
multidimensional engine runs it as the cube operator over its gets
(:meth:`repro.olap.engine.MultidimensionalEngine.drill_across`), the
same operator the NP plans run in memory.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.deadline import checkpoint as _checkpoint
from ..core.errors import EngineError
from ..core.query import Predicate
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.tracer import active as _active_tracer
from ..parallel.config import ParallelConfig
from ..parallel.merge import decode_keys as _decode_keys
from ..parallel.merge import merge_morsels as _merge_morsels
from ..parallel.morsel import (
    AggSpec,
    DimPredicate,
    FactPredicate,
    JoinSpec,
    KeySpec,
    MorselTask,
    partial_aggregate as _partial_aggregate,
    run_morsel,
    semijoin as _semijoin,
)
from .catalog import Catalog
from .columns import (
    Ranges,
    ZonePruner,
    plan_zone_pruning as _plan_zone_pruning,
    split_ranges as _split_ranges,
)
from .kernels import REAGGREGATION_OPS
from .kernels import aggregate as _aggregate
from .kernels import combine_codes as _combine_codes
from .kernels import dictionary_encode as _dictionary_encode
from .kernels import narrow_codes as _narrow_codes
from .spill import (
    SpillAggregator,
    choose_partitions as _choose_partitions,
    grouping_state_bytes as _grouping_state_bytes,
    over_budget as _over_budget,
)
from ..settings import Settings
from .query import AggregateQuery, ColumnPredicate, FACT
from .table import Table

_MAX_COMBINED_KEY = 2**62
"""Bail out of key folding when the cardinality product nears int64."""

_DEFAULTS = Settings()


class ResultSet:
    """A query result: ordered named columns of equal length.

    ``codes`` keeps, per grouping column, the ``(codes, dictionary)`` pair
    the fact pass grouped by: ``dictionary[codes]`` is the column, the
    dictionary is sorted.  The cube a result becomes keeps the pair, and
    its joins and pivots read it; :meth:`encoded` encodes on demand for a
    result built without.
    """

    def __init__(self, columns: "Dict[str, np.ndarray]"):
        self.columns = columns
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise EngineError(f"ragged result columns: {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0
        self.codes: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def encoded(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, dictionary)`` of a column: kept, or encoded now."""
        entry = self.codes.get(name)
        if entry is None:
            entry = self.codes[name] = _dictionary_encode(self.column(name))
        return entry

    def copy(self) -> "ResultSet":
        """A shallow copy: its own column and code dicts, shared arrays."""
        copied = ResultSet(dict(self.columns))
        copied.codes = dict(self.codes)
        return copied

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise EngineError(
                f"result has no column {name!r} (columns: {list(self.columns)})"
            ) from None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet(rows={self._n}, columns={list(self.columns)})"


class Groups(NamedTuple):
    """The finest groups of partial aggregates, keyed by finest column.

    A fact pass's merged morsels, or a cached result's rows rolled up to
    the levels a derivation needs.
    """

    count: int
    codes: Dict[Hashable, Tuple[np.ndarray, int]]  # (codes, cardinality)
    dictionaries: Dict[Hashable, np.ndarray]  # dictionary[codes] decodes
    ops: Sequence[str]  # each slot's partial op: sum, count, min or max
    partials: Sequence[np.ndarray]  # one array per slot, aligned with the groups


class Member(NamedTuple):
    """One answer to finish from :class:`Groups` (see :func:`finish_member`)."""

    keys: Tuple[Tuple[str, Hashable], ...]  # (alias, finest key) per grouping column
    residual: Tuple[Tuple[Predicate, Hashable], ...]  # (predicate, finest key)
    finish: Tuple[Tuple[str, Tuple[int, ...]], ...]  # (alias, (slot,) | avg (sum, count))
    is_finest: bool  # grouped exactly like the finest key, no residual


def finish_member(groups: Groups, member: Member) -> ResultSet:
    """One answer from finest groups of partials: the re-aggregation step.

    Fused members of a fact pass and cache derivations both finish here.
    A member grouped exactly like the finest key reads the groups as they
    are.  Any other member filters them by its residual predicates
    (residual keys are part of the finest key, so they are constant within
    each finest group), folds its own coarser key over the surviving
    groups, and re-aggregates each slot by :data:`REAGGREGATION_OPS`.
    Re-added sums are bit-identical only when the base fact column passes
    ``Table.sums_exactly``; the caller checks that before it gets here.
    """
    rmask: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None  # each member group's first finest group
    ids = count = None
    if not member.is_finest:
        for predicate, key in member.residual:
            # evaluated once per dictionary member, gathered per group
            codes = groups.codes[key][0]
            part = predicate.mask(groups.dictionaries[key])[codes]
            rmask = part if rmask is None else (rmask & part)
        member_codes = [groups.codes[key] for _, key in member.keys]
        if rmask is not None:
            member_codes = [
                (codes[rmask], cardinality) for codes, cardinality in member_codes
            ]
        n_groups = groups.count if rmask is None else int(rmask.sum())
        ids, count, first = _combine_codes(member_codes, n_groups)
        rows = first if rmask is None else np.flatnonzero(rmask)[first]

    def regroup(slot: int) -> np.ndarray:
        values = groups.partials[slot]
        if ids is None:
            return values
        if rmask is not None:
            values = values[rmask]
        return _aggregate(ids, count, values, REAGGREGATION_OPS[groups.ops[slot]])

    columns: Dict[str, np.ndarray] = {}
    coded: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for alias, key in member.keys:
        codes, cardinality = groups.codes[key]
        if rows is not None:
            codes = codes[rows]
        dictionary = groups.dictionaries[key]
        columns[alias] = dictionary[codes]
        coded[alias] = (_narrow_codes(codes, cardinality), dictionary)
    for alias, slots in member.finish:
        if len(slots) == 2:  # avg: merged totals over merged counts
            with np.errstate(divide="ignore", invalid="ignore"):
                columns[alias] = regroup(slots[0]) / regroup(slots[1])
        else:
            columns[alias] = regroup(slots[0])
    result = ResultSet(columns)
    result.codes = coded
    return result


class _Lowering(NamedTuple):
    """The physical shape of one fact pass (see ``EngineExecutor._lower``)."""

    finest: List[Tuple[str, str]]  # the finest shared key, (table, column)
    tables: List[Table]  # the table each finest column lives in
    cardinalities: List[int]  # dictionary cardinality of each finest column
    key_space: int  # their product: the folded key's range
    specs: List[Tuple[str, Optional[str]]]  # deduplicated (op, column) partials
    members: List[Optional[Member]]  # None: the query runs its own pass


class EngineExecutor:
    """Evaluates pushed queries against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        metrics: Optional[MetricsRegistry] = None,
        engine=None,
    ):
        self.catalog = catalog
        # Fact passes actually executed (cold aggregates, fused scans, and
        # per-member fused fallbacks).  Cache hits and derived results do
        # not count; the batch sharing report reads this.
        self.scan_count = 0
        # Counter registry ("engine.scans", "engine.rows_scanned", ...);
        # engine-owned executors share their engine's registry, standalone
        # ones report straight into the process-wide aggregate.
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(parent=METRICS)
        )
        # The engine whose settings and worker pool every tier reads, at
        # each use: reconfiguring the engine reconfigures each of its
        # executors, the batch executor included.  A standalone executor
        # runs by the built-in defaults (serial, unbounded, pruning on).
        self._engine = engine

    @property
    def settings(self) -> Settings:
        """The settings this executor runs by (its engine's)."""
        return _DEFAULTS if self._engine is None else self._engine.settings

    @property
    def parallel(self) -> Optional[ParallelConfig]:
        """The engine's worker pool config (``None`` when serial)."""
        return None if self._engine is None else self._engine.parallel

    def _count_scan(self, rows: int) -> None:
        """One executed fact pass over ``rows`` post-pruning fact rows."""
        self.scan_count += 1
        self.metrics.inc("engine.scans")
        self.metrics.inc("engine.rows_scanned", rows)

    def _zone_pruner(
        self,
        fact: Table,
        fact_name: str,
        predicates: Sequence[ColumnPredicate],
        joins,
    ) -> Optional[ZonePruner]:
        """Plan zone-map pruning for one scan; ``None`` when inapplicable.

        Emits a ``storage.prune`` span and the ``engine.storage.*``
        counters.  Soundness: a pruned zone provably holds no row passing
        ``predicates``, so dropping it removes only mask-rejected rows —
        the surviving masked row sequence (and every float summation
        order) is unchanged and results stay bit-identical.
        """
        if not self.settings.zone_pruning or not fact.has_zone_maps:
            return None
        with _active_tracer().span("storage.prune", fact=fact_name) as span:
            pruner = _plan_zone_pruning(
                self.catalog, fact, fact_name, predicates, joins
            )
            if pruner is None:
                span.set(zones=0, zones_pruned=0, rows_pruned=0)
                return None
            zones, zones_pruned, rows_pruned = (
                pruner.zones_checked, pruner.zones_pruned, pruner.rows_pruned
            )
            self.metrics.inc("engine.storage.prunes")
            self.metrics.inc("engine.storage.zones_checked", zones)
            self.metrics.inc("engine.storage.zones_pruned", zones_pruned)
            self.metrics.inc("engine.storage.rows_pruned", rows_pruned)
            # zones_checked forces the survival vector, so planning-time and
            # apply-time misalignment drops are both counted by now.
            if pruner.misaligned:
                self.metrics.inc(
                    "engine.storage.zone_misaligned", pruner.misaligned
                )
            span.set(
                zones=zones, zones_pruned=zones_pruned, rows_pruned=rows_pruned
            )
            return pruner

    # ------------------------------------------------------------------
    # Aggregate (get): one pipeline for every tier and batch size
    #
    #   lowering -> morsel source -> partial aggregator -> merge sink
    #
    # A single get is the fused batch of one, a serial pass is the scan of
    # one morsel, and the parallel and spill tiers slice the same source.
    # ------------------------------------------------------------------
    def execute_aggregate(self, query: AggregateQuery) -> ResultSet:
        """Star join + filter + group-by + aggregate.

        The fused batch ``([query], query.where, [()])``: its finest
        shared grouping *is* its result.
        """
        results, _ = self._run_batch([query], query.where, [()], fused=False)
        return results[0]

    def execute_fused(
        self,
        queries: Sequence[AggregateQuery],
        scan_where: Sequence[ColumnPredicate],
        residuals: Sequence[Sequence[ColumnPredicate]],
    ) -> "Tuple[List[ResultSet], List[bool]]":
        """Answer several compatible aggregate queries from one fact pass.

        All queries must share the same fact table and joins, and each
        query's predicate set must equal ``scan_where ∧ residuals[i]``
        (the caller — the batch fusion planner — guarantees this, using
        predicate subsumption so the scan is never broader than what some
        member itself requires).

        One semi-join mask and one set of gathered dictionary codes build
        the *finest shared group-by* (the union of every member's grouping
        columns plus residual predicate columns); each member is then
        derived from the finest partial aggregates via the distributive
        re-aggregation rules, with residual predicates evaluated on the
        (tiny) finest-group coordinates.  A member whose sums would be
        re-added but fail the float-exactness gate runs as its own
        one-morsel pass instead — never faster than fused, never
        different by a bit.

        Returns the per-query results (input order) and a parallel list of
        flags: ``True`` when the result was derived from the shared pass,
        ``False`` when the member needed its own pass.
        """
        if not queries:
            return [], []
        return self._run_batch(queries, scan_where, residuals, fused=True)

    def tier_of(self, query: AggregateQuery) -> str:
        """How a get would run: ``"serial"``, ``"parallel"`` or ``"spill"``.

        The lowering's own verdict, free of side effects — the cost model
        prices gets by it instead of re-deriving admission and the gate.
        """
        fact = self.catalog.table(query.fact)
        tiers = self._admitted_tiers(fact, len(query.aggregates))
        if tiers and self._lower(fact, [query], [()], tiers[0]).members[0] is not None:
            return tiers[0]
        return "serial"

    def _admitted_tiers(self, fact: Table, n_slots: int) -> List[str]:
        """The multi-morsel tiers a pass qualifies for, preferred first.

        A memory budget below the pass's worst-case grouping state (every
        scanned row opening a group — deliberately pessimistic, so such a
        budget reliably routes through the bounded-memory path) admits
        the spill tier, which supersedes the parallel one.
        """
        tiers = []
        if _over_budget(len(fact), n_slots, self.settings.memory_budget):
            tiers.append("spill")
        parallel = self.parallel
        if parallel is not None and parallel.eligible(len(fact)):
            tiers.append("parallel")
        return tiers

    def _run_batch(
        self,
        queries: Sequence[AggregateQuery],
        scan_where: Sequence[ColumnPredicate],
        residuals: Sequence[Sequence[ColumnPredicate]],
        fused: bool,
        tier: Optional[str] = None,
    ) -> "Tuple[List[ResultSet], List[bool]]":
        """Run one batch through the pipeline (``tier`` forces the tier)."""
        fact_name = queries[0].fact
        fact = self.catalog.table(fact_name)
        tiers: List[str] = []
        if tier is None:
            tiers = self._admitted_tiers(
                fact, sum(len(query.aggregates) for query in queries)
            )
            tier = tiers[0] if tiers else "serial"
        lowering = self._lower(fact, queries, residuals, tier)
        if tier != "serial" and all(m is None for m in lowering.members):
            # Nothing may be merged across morsels: every admitted tier
            # declines and the batch runs in RAM as one morsel.
            for declined in tiers:
                self.metrics.inc(f"engine.{declined}.fallbacks")
            tier = "serial"
            lowering = self._lower(fact, queries, residuals, tier)
        shared = [i for i, m in enumerate(lowering.members) if m is not None]

        tracer = _active_tracer()
        attrs = {"members": len(queries)} if fused else {"fact": fact_name}
        with tracer.span(
            "engine.fused-scan" if fused else "engine.scan", **attrs
        ) as span:
            results: List[Optional[ResultSet]] = [None] * len(queries)
            rows_in = 0
            if shared:
                if fused:
                    self.metrics.inc("engine.fused_scans")
                rows_in, groups = self._shared_pass(
                    fact, fact_name, scan_where, queries[0].joins, lowering,
                    tier, span,
                )
                for i in shared:
                    results[i] = finish_member(groups, lowering.members[i])
            for i, query in enumerate(queries):
                if results[i] is None:
                    # This member as its own one-morsel pass: exactly its
                    # standalone execution, pruned by its own predicates.
                    results[i] = self._run_batch(
                        [query], query.where, [()], fused=False, tier="serial"
                    )[0][0]
            if fused:
                fallbacks = len(queries) - len(shared)
                self.metrics.inc("engine.fused_derived", len(shared))
                self.metrics.inc("engine.fused_fallbacks", fallbacks)
                span.set(derived=len(shared), fallbacks=fallbacks)
            span.set(
                rows_in=rows_in,
                rows_out=sum(len(result) for result in results),
                cells_out=sum(
                    len(result) * max(len(result.column_names), 1)
                    for result in results
                ),
            )
        return results, [m is not None for m in lowering.members]

    # -- stage 1: lowering ---------------------------------------------
    def _lower(
        self,
        fact: Table,
        queries: Sequence[AggregateQuery],
        residuals: Sequence[Sequence[ColumnPredicate]],
        tier: str,
    ) -> "_Lowering":
        """Lower a batch onto one finest grouping and physical partials.

        The finest shared key is every member grouping column plus every
        residual predicate column, ordered by first appearance.  Logical
        aggregates become deduplicated ``(op, column)`` partial specs
        (op in sum/count/min/max; ``avg`` is a sum slot and a count slot,
        divided after the merge).  A member is answered from the shared
        pass unless its sums would be *re-added* — morsels merged
        (``tier`` is not serial) or a finer grouping rolled up — and fail
        the float-exactness gate: fractional sums do not re-associate
        bit-identically.  A serial member whose grouping is the finest
        one reads its row-order aggregates straight off the single
        morsel and needs no gate.  Free of side effects.
        """
        fact_name = queries[0].fact

        def key_of(ref) -> Tuple[str, str]:
            table = FACT if ref.table in (FACT, fact_name) else ref.table
            return table, ref.column

        finest = list(dict.fromkeys(
            key_of(ref)
            for query, residual in zip(queries, residuals)
            for ref in (*query.group_by, *residual)
        ))
        tables = [
            fact if table == FACT else self.catalog.table(table)
            for table, _ in finest
        ]
        cardinalities = [
            table.cardinality(column)
            for table, (_, column) in zip(tables, finest)
        ]
        key_space = 1
        for cardinality in cardinalities:
            key_space *= cardinality
        # The folded finest key must fit int64.  Members of a batch may
        # still fit on their own; a single get has no narrower key.
        fits = key_space < _MAX_COMBINED_KEY
        if not fits and len(queries) == 1:
            raise EngineError(
                f"group-by key space {key_space} of the get on "
                f"{fact_name!r} does not fit a 64-bit group key"
            )

        specs: List[Tuple[str, Optional[str]]] = []

        def slot(op: str, column: Optional[str]) -> int:
            if (op, column) not in specs:
                specs.append((op, column))
            return specs.index((op, column))

        members: List[Optional[Member]] = []
        for query, residual in zip(queries, residuals):
            keys = tuple(key_of(gb) for gb in query.group_by)
            is_finest = not residual and list(dict.fromkeys(keys)) == finest
            shared = fits and (
                (tier == "serial" and is_finest)
                or all(
                    fact.sums_exactly(agg.column)
                    for agg in query.aggregates
                    if agg.op in ("sum", "avg")
                )
            )
            if not shared:
                members.append(None)
                continue
            finish = []
            for agg in query.aggregates:
                if agg.op == "count":
                    slots: Tuple[int, ...] = (slot("count", None),)
                elif agg.op == "avg":
                    slots = (slot("sum", agg.column), slot("count", None))
                else:
                    slots = (slot(agg.op, agg.column),)
                finish.append((agg.alias, slots))
            members.append(Member(
                tuple(zip((gb.alias for gb in query.group_by), keys)),
                tuple((cp.predicate, key_of(cp)) for cp in residual),
                tuple(finish),
                is_finest,
            ))
        return _Lowering(
            finest, tables, cardinalities, key_space, specs, members
        )

    # -- stage 2: morsel source ----------------------------------------
    def _morsel_source(
        self,
        fact: Table,
        fact_name: str,
        predicates: Sequence[ColumnPredicate],
        joins,
        lowering: "_Lowering",
        tier: str,
    ):
        """Zone-pruned morsels of one fact pass, and their task builder.

        Returns ``(morsels, build)``: the surviving ``(index, ranges,
        rows)`` row selections and a builder producing the
        :class:`MorselTask` of one of them on demand.  A serial pass is
        one morsel covering every surviving range; the parallel and
        spill tiers cut the same ranges at morsel-sized windows, so a
        window no zone of which can satisfy the predicates is never
        enqueued — its rows would contribute zero groups, and the merged
        result is unchanged.  Morsels stay in row order, which is what
        keeps the merge deterministic.

        Dimension-side work (key indexes, dimension predicate masks,
        dimension dictionaries) is computed once here and shared by every
        task; per-fact-row arrays are gathered per morsel, so compressed
        or memory-mapped columns decode one morsel at a time and pruned
        rows are never decoded.  Pruning uses the shared scan predicates
        only: every member mask is ``base ∧ residual``, so a zone no row
        of which passes the base predicates contributes to no member.
        """
        fact_predicates = []
        dim_masks = []
        for cp in predicates:
            if cp.table in (FACT, fact_name):
                fact_predicates.append((cp.predicate, cp.column))
            else:
                # Evaluated once per dimension row, then propagated
                # through the FK by the morsel — a semi-join.
                dimension = self.catalog.table(cp.table)
                dim_masks.append(DimPredicate(
                    cp.table, cp.predicate.mask(dimension.column(cp.column))
                ))
        dim_predicates = tuple(dim_masks)
        # Join elimination: untouched dimensions are never resolved.
        referenced = {table for table, _ in lowering.finest}
        referenced |= {cp.table for cp in predicates}
        join_sources = [
            (
                join.table,
                self.catalog.table(join.table).key_index(join.dim_key),
                join.fact_fk,
            )
            for join in joins
            if join.table in referenced
        ]
        # Integer key codes: dimension-sourced grouping columns encode
        # members once over the (small) dimension table, fact-resident
        # columns gather their global dictionary codes per morsel.
        # Avoiding factorization of member strings per fact row is what
        # keeps large group-bys cheap.  Dimension codes are narrowed here,
        # over the dimension's rows, so the per-fact-row gather through
        # the FK positions and the group decode move 1-2 bytes per row.
        dim_codes = {
            key: _narrow_codes(table.dictionary(key[1])[0], cardinality)
            for key, table, cardinality in zip(
                lowering.finest, lowering.tables, lowering.cardinalities
            )
            if key[0] != FACT
        }
        measure_columns = {
            column for _, column in lowering.specs if column is not None
        }

        pruner = self._zone_pruner(fact, fact_name, predicates, joins)
        ranges = None if pruner is None else pruner.surviving_row_ranges()
        window = max(
            len(fact) if tier == "serial" else self.settings.morsel_rows, 1
        )
        morsels = _split_ranges(ranges, len(fact), window)
        if tier != "serial":
            pruned = -(-len(fact) // window) - len(morsels)
            if pruned:
                self.metrics.inc("engine.storage.morsels_pruned", pruned)

        def build(index: int, ranges: Ranges, rows: int) -> MorselTask:
            measures = {
                column: fact.gather(column, ranges)
                for column in measure_columns
            }
            return MorselTask(
                index, 0, rows,
                tuple(
                    JoinSpec(alias, key_index, fact.gather(fk_column, ranges))
                    for alias, key_index, fk_column in join_sources
                ),
                tuple(
                    FactPredicate(predicate, fact.gather(column, ranges))
                    for predicate, column in fact_predicates
                ),
                dim_predicates,
                tuple(
                    KeySpec(
                        "fact", None,
                        fact.dictionary_gather(column, ranges)[0], cardinality,
                    )
                    if table == FACT
                    else KeySpec(
                        "dim", table, dim_codes[(table, column)], cardinality
                    )
                    for (table, column), cardinality in zip(
                        lowering.finest, lowering.cardinalities
                    )
                ),
                tuple(
                    AggSpec(op, None if column is None else measures[column])
                    for op, column in lowering.specs
                ),
            )

        return morsels, build

    # -- stage 3: partial aggregator -----------------------------------
    def _partials(self, morsels, build, tier: str, n_predicates: int):
        """Yield each morsel's partial result, in morsel order.

        One morsel at a time on the driver thread — a serial pass, or a
        sliced one without a worker pool — each built, run under the
        ``engine.semijoin`` / ``engine.groupby`` spans, and dropped
        before the next, so only one morsel's decoded windows are ever
        live.  With a pool, morsels are dispatched in waves (workers
        cannot emit spans — the tracer is driver-local — so the driver
        back-fills each worker's measured time as a ``parallel.morsel``
        event); the spill tier bounds a wave so retained state stays
        within reach of the budget.  A deadline checkpoint precedes every
        morsel on the driver thread and every wave on the pool.
        """
        tracer = _active_tracer()
        pool = self.parallel
        if len(morsels) < 2 or pool is None or not pool.enabled:
            for morsel in morsels:
                _checkpoint("the fact scan")
                task = build(*morsel)
                with tracer.span(
                    "engine.semijoin", rows_in=morsel[2], predicates=n_predicates
                ) as semijoin:
                    positions, mask = _semijoin(task)
                with tracer.span("engine.groupby", keys=len(task.keys)) as span:
                    result = _partial_aggregate(task, positions, mask)
                    span.set(rows_out=len(result.keys))
                semijoin.set(rows_matched=result.rows_matched)
                yield result
            return
        wave = pool.degree * 4 if tier == "spill" else len(morsels)
        for start in range(0, len(morsels), wave):
            _checkpoint("the fact scan")
            tasks = [build(*morsel) for morsel in morsels[start:start + wave]]
            self.metrics.inc("engine.parallel.morsels", len(tasks))
            for result in pool.map_ordered(run_morsel, tasks):
                if tracer.enabled:
                    event = tracer.event(
                        "parallel.morsel",
                        index=result.index,
                        rows_in=result.rows_in,
                        rows_matched=result.rows_matched,
                        groups=len(result.keys),
                    )
                    event.duration = result.seconds
                yield result

    # -- stage 4: merge sink -------------------------------------------
    def _shared_pass(
        self,
        fact: Table,
        fact_name: str,
        predicates: Sequence[ColumnPredicate],
        joins,
        lowering: "_Lowering",
        tier: str,
        span,
    ) -> "Tuple[int, Groups]":
        """Scan once and merge the morsel partials into the finest groups.

        The sink is the identity for one morsel, ``merge_morsels`` in RAM,
        and a :class:`SpillAggregator` under a budget (range-partitioned
        buffers, runs spilled to temp files when the budget is exceeded,
        merged partition by partition).  All three emit the finest groups
        in folded-key order — the group order of a single pass — so
        decoding the keys through the global dictionaries yields the same
        coordinates whatever the tier.  Returns the scanned row count and
        the groups.
        """
        morsels, build = self._morsel_source(
            fact, fact_name, predicates, joins, lowering, tier
        )
        rows_in = sum(rows for _, _, rows in morsels)
        self._count_scan(rows_in)
        ops = [op for op, _ in lowering.specs]
        partials = self._partials(morsels, build, tier, len(predicates))
        tracer = _active_tracer()
        codes = None
        if tier == "spill":
            self.metrics.inc("engine.spill.queries")
            budget = self.settings.memory_budget
            estimate = _grouping_state_bytes(
                len(fact), len(lowering.finest), len(ops)
            )
            with SpillAggregator(
                lowering.key_space,
                ops,
                budget,
                metrics=self.metrics,
                n_partitions=_choose_partitions(estimate, budget),
            ) as spiller:
                for partial in partials:
                    spiller.add(partial.keys, partial.partials)
                merged_keys, merged = spiller.merge_all()
                span.set(spill=True, morsels=len(morsels), spills=spiller.spills)
        else:
            results = list(partials)
            if len(results) == 1:
                codes = results[0].codes  # a lone morsel's groups, unfolded
            if tier == "parallel":
                self.metrics.inc("engine.parallel.queries")
                span.set(
                    parallel=True,
                    degree=self.parallel.degree,
                    morsels=len(morsels),
                )
                with tracer.span("parallel.merge", morsels=len(results)) as merge:
                    merged_keys, merged = _merge_morsels(results, ops)
                    merge.set(rows_out=len(merged_keys))
            else:
                merged_keys, merged = _merge_morsels(results, ops)
        if codes is None:
            codes = _decode_keys(merged_keys, lowering.cardinalities)
        return rows_in, Groups(
            len(merged_keys),
            dict(zip(lowering.finest, zip(codes, lowering.cardinalities))),
            {
                key: table.dictionary_values(key[1])
                for key, table in zip(lowering.finest, lowering.tables)
            },
            ops,
            merged,
        )

"""Batch orchestration: plan a statement list, merge, execute, report.

:func:`run_batch` is the engine room behind
:meth:`AssessSession.execute_many`:

1. every statement is parsed and planned (``plan="auto"`` uses the
   batch-aware cost model, which prices nodes already chosen by earlier
   statements as shared);
2. the distinct pushed aggregate queries of all plans are collected by
   canonical fingerprint — minus those the result cache would already
   answer — and handed to the fusion planner;
3. the engine's executor is swapped for a batch executor (CSE memo +
   fused scans) and each plan runs in input order through the session's
   ordinary plan executor, so results are bit-identical to sequential
   execution and carry the usual per-step timings.

The returned :class:`BatchResult` holds the per-statement
:class:`AssessResult`s in input order, per-statement wall-clock seconds
(shared work is attributed to the statement that first triggered it),
and the :class:`SharingReport`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Sequence

from ..algebra.plan import GetNode, Plan
from ..cache.fingerprint import fingerprint_query
from ..core.result import AssessResult
from ..core.statement import AssessStatement
from ..obs.tracer import active as _active_tracer
from .executor import BatchEngineExecutor, SharingReport
from .fuse import plan_fusion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import AssessSession, StatementLike


class BatchResult:
    """The outcome of one ``execute_many`` call."""

    __slots__ = ("results", "seconds", "report", "plans")

    def __init__(
        self,
        results: Sequence[AssessResult],
        seconds: Sequence[float],
        report: SharingReport,
        plans: Sequence[Plan] = (),
    ):
        self.results: List[AssessResult] = list(results)
        self.seconds: List[float] = list(seconds)
        self.report = report
        # The executed plan objects, input order — explain_analyze
        # correlates operator spans back to these by node identity.
        self.plans: List[Plan] = list(plans)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> AssessResult:
        return self.results[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchResult(statements={len(self.results)}, "
            f"scans={self.report.engine_scans})"
        )


def results_identical(left: AssessResult, right: AssessResult) -> bool:
    """Bit-level equality of two assess results (NaN-aware).

    Column order, coordinates, every measure column's byte pattern (so
    NaNs and signed zeros must match exactly), and labels must all agree
    — the equality :meth:`AssessSession.execute_many` promises against
    running the same statements sequentially.
    """
    import numpy as np

    a, b = left.cube, right.cube
    if tuple(a.group_by.levels) != tuple(b.group_by.levels):
        return False
    if tuple(a.measures) != tuple(b.measures) or len(a) != len(b):
        return False
    for level in a.group_by.levels:
        if a.coords[level].tolist() != b.coords[level].tolist():
            return False
    for name, column in a.measures.items():
        other = b.measures[name]
        if column.dtype != other.dtype:
            return False
        if column.dtype == np.float64:
            if column.tobytes() != other.tobytes():
                return False
        elif column.tolist() != other.tolist():
            return False
    return True


def run_batch(
    session: "AssessSession",
    statements: "Sequence[StatementLike]",
    plan: str = "best",
) -> BatchResult:
    """Plan, merge, and execute a statement batch against one session."""
    engine = session.engine
    engine.metrics.inc("batch.batches")
    engine.metrics.inc("batch.statements", len(statements))
    resolved: List[AssessStatement] = []
    for statement in statements:
        statement = session._resolve(statement)
        session._substitute_named_spec(statement)
        resolved.append(statement)

    if plan == "auto":
        from ..algebra.cost import choose_plan_batch

        plans, _ = choose_plan_batch(resolved, engine)
    else:
        plans = [session.plan(statement, plan) for statement in resolved]

    cache = engine.result_cache
    candidates = []
    seen = set()
    for built in plans:
        for query in _pushed_aggregates(built, engine):
            fingerprint = fingerprint_query(query)
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            if cache.enabled and cache.would_hit(query) is not None:
                continue  # the cache will answer it without a scan
            candidates.append(query)
    groups = plan_fusion(candidates)

    report = SharingReport(statements=len(resolved), unique_queries=len(seen))
    report.plan_names = [built.name for built in plans]
    before = cache.counters.snapshot()
    batch_executor = BatchEngineExecutor(
        engine.catalog, cache, groups, report, metrics=engine.metrics,
        engine=engine,
    )
    original = engine.executor
    engine.executor = batch_executor
    results: List[AssessResult] = []
    seconds: List[float] = []
    tracer = _active_tracer()
    # Telemetry record hook: with a query log attached, every batch
    # statement writes its own record (batch-tagged, per-statement
    # counter deltas — statements run sequentially, so the delta between
    # consecutive snapshots is attributable).  ``None`` costs one load.
    telemetry = getattr(session, "telemetry", None)
    session_label = getattr(session, "telemetry_label", None)
    batch_id = None
    if telemetry is not None:
        import os as _os

        label = session_label or telemetry.session_id
        batch_id = f"{label}-{_os.urandom(3).hex()}"
    try:
        with tracer.span("batch", statements=len(resolved)):
            for index, (built, statement) in enumerate(zip(plans, resolved)):
                counters_before = (
                    engine.metrics.snapshot()["counters"]
                    if telemetry is not None else None
                )
                with tracer.span("statement", index=index, plan=built.name):
                    start = time.perf_counter()
                    results.append(session._executor.execute(built, statement))
                    seconds.append(time.perf_counter() - start)
                if telemetry is not None:
                    result = results[-1]
                    telemetry.record_statement(
                        statement,
                        plan_name=result.plan_name,
                        status="ok",
                        total_s=seconds[-1],
                        phases=result.timings,
                        rows_out=len(result),
                        cells_out=len(result.cube)
                        * max(len(result.cube.measures), 1),
                        counters_before=counters_before,
                        counters_after=engine.metrics.snapshot()["counters"],
                        batch=batch_id,
                        parallelism=session.parallelism,
                        memory_budget=engine.settings.memory_budget,
                        session_label=session_label,
                    )
    finally:
        engine.executor = original
    after = cache.counters.snapshot()
    report.engine_scans = batch_executor.scan_count
    report.cache_hits = after["hits"] - before["hits"]
    report.cache_derivations = after["derivations"] - before["derivations"]
    return BatchResult(results, seconds, report, plans=plans)


def _pushed_aggregates(plan: Plan, engine):
    """Every aggregate query a plan pushes, composite sides included.

    ``plan.nodes()`` yields the get children of pushed joins/pivots too,
    and the engine builds the same :class:`AggregateQuery` for them at
    execution time, so fingerprinting these covers the whole DAG.
    """
    return [
        engine.build_aggregate_query(node.query)
        for node in plan.nodes()
        if isinstance(node, GetNode)
    ]

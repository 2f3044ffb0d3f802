"""The experiment runner: builds the SSB ladder and executes the four
reference intentions under every feasible plan, with timing and breakdowns.

The ladder mirrors the paper's SSB1/SSB10/SSB100 at laptop scale: the
default is 1:100 of the paper's (60k/600k/6M lineorder rows), preserving
the 1:10:100 ratios that the linear-scaling claim depends on.  Override it
with the ``REPRO_LADDER`` environment variable, e.g.::

    REPRO_LADDER="20000,200000,2000000" pytest benchmarks/ --benchmark-only
    REPRO_LADDER="6000000,60000000,600000000" python benchmarks/harness.py all
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from ..algebra.executor import PlanExecutor
from ..algebra.plan import Plan
from ..algebra.planner import build_plan, feasible_plans
from ..api import AssessSession
from ..codegen.generator import formulation_effort
from ..core.result import AssessResult
from ..core.statement import AssessStatement
from .paper_reference import SCALES
from .statements import INTENTIONS, prepare_engine, statement_text

DEFAULT_LADDER: Tuple[int, ...] = (60_000, 600_000, 6_000_000)


def ladder_from_env() -> Dict[str, int]:
    """The scale ladder, as ``{"SSB1": rows, "SSB10": ..., "SSB100": ...}``.

    ``REPRO_LADDER`` accepts a comma-separated list of up to three row
    counts; fewer entries shorten the ladder (useful for quick runs).
    """
    raw = os.environ.get("REPRO_LADDER", "")
    if raw.strip():
        rows = [int(part) for part in raw.split(",") if part.strip()]
    else:
        rows = list(DEFAULT_LADDER)
    return {name: count for name, count in zip(SCALES, rows)}


class ExperimentRunner:
    """Caches one engine+session per scale and runs the reference
    intentions under any plan, the way Section 6 does (repeated runs,
    averaged, with per-step breakdowns)."""

    def __init__(
        self,
        ladder: Optional[Dict[str, int]] = None,
        seed: int = 7,
        parallelism: Optional[int] = None,
    ):
        self.ladder = dict(ladder) if ladder is not None else ladder_from_env()
        self.seed = seed
        self.parallelism = parallelism
        self._sessions: Dict[str, AssessSession] = {}

    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------
    @property
    def scales(self) -> Tuple[str, ...]:
        return tuple(self.ladder.keys())

    def session(self, scale: str) -> AssessSession:
        """The (cached) session for one ladder rung.

        The engine's result cache is disabled: the paper's measurements
        are cold-execution times, and the repeated runs of
        :meth:`run_timed` would otherwise all be served warm.  The cache
        ablation benchmark re-enables it explicitly.
        """
        if scale not in self._sessions:
            engine = prepare_engine(self.ladder[scale], seed=self.seed)
            engine.result_cache.enabled = False
            self._sessions[scale] = AssessSession(
                engine, parallelism=self.parallelism
            )
        return self._sessions[scale]

    def statement(self, intention: str, scale: str) -> AssessStatement:
        return self.session(scale).parse(statement_text(intention))

    def plan(self, intention: str, scale: str, plan_name: str) -> Plan:
        session = self.session(scale)
        return build_plan(self.statement(intention, scale), session.engine, plan_name)

    def plans_for(self, intention: str) -> Tuple[str, ...]:
        scale = self.scales[0]
        return tuple(feasible_plans(self.statement(intention, scale)))

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def run_once(self, intention: str, scale: str, plan_name: str) -> AssessResult:
        """One execution, returning the result (with step timings)."""
        session = self.session(scale)
        statement = self.statement(intention, scale)
        plan = build_plan(statement, session.engine, plan_name)
        executor = PlanExecutor(session.engine, session.registry)
        return executor.execute(plan, statement)

    def run_timed(
        self,
        intention: str,
        scale: str,
        plan_name: str,
        repetitions: int = 5,
        warmup: int = 0,
    ) -> Dict[str, object]:
        """Average wall time over ``repetitions`` runs (paper: 5 runs).

        ``warmup`` untimed runs happen first (dictionary encodings and
        interned join indexes populate on first touch, so the first timed
        run is otherwise noisier).  Returns ``{"seconds", "times",
        "min_s", "median_s", "cells", "breakdown"}`` — ``seconds`` stays
        the mean (the paper's statistic); ``min_s``/``median_s`` are the
        robust alternatives the harness reports alongside it.
        """
        for _ in range(warmup):
            self.run_once(intention, scale, plan_name)
        times: List[float] = []
        breakdowns: List[Dict[str, float]] = []
        cells = 0
        for _ in range(repetitions):
            start = time.perf_counter()
            result = self.run_once(intention, scale, plan_name)
            times.append(time.perf_counter() - start)
            breakdowns.append(result.timings)
            cells = len(result)
        steps = sorted({step for b in breakdowns for step in b})
        breakdown = {
            step: sum(b.get(step, 0.0) for b in breakdowns) / len(breakdowns)
            for step in steps
        }
        return {
            "seconds": sum(times) / len(times),
            "times": times,
            "min_s": min(times),
            "median_s": statistics.median(times),
            "cells": cells,
            "breakdown": breakdown,
        }

    def target_cardinality(self, intention: str, scale: str) -> int:
        """|C| — the target cube cardinality (Table 2)."""
        session = self.session(scale)
        statement = self.statement(intention, scale)
        from ..core.query import CubeQuery

        query = CubeQuery(
            statement.source,
            statement.group_by,
            statement.predicates,
            (statement.measure,),
        )
        return len(session.engine.get(query))

    def formulation_row(self, intention: str) -> Dict[str, int]:
        """One Table 1 column: sql/python/total/assess character counts."""
        scale = self.scales[0]
        session = self.session(scale)
        statement = self.statement(intention, scale)
        return formulation_effort(
            statement, session.engine, statement_text(intention)
        )

    # ------------------------------------------------------------------
    # Full experiments
    # ------------------------------------------------------------------
    def table1(self) -> Dict[str, Dict[str, int]]:
        """Formulation effort per intention (Table 1)."""
        return {intention: self.formulation_row(intention) for intention in INTENTIONS}

    def table2(self) -> Dict[str, Dict[str, int]]:
        """Target cardinalities per intention × scale (Table 2)."""
        return {
            intention: {
                scale: self.target_cardinality(intention, scale)
                for scale in self.scales
            }
            for intention in INTENTIONS
        }

    def fig3(
        self, repetitions: int = 5, warmup: int = 0
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Execution times per intention × plan × scale (Figure 3)."""
        results: Dict[str, Dict[str, Dict[str, float]]] = {}
        for intention in INTENTIONS:
            results[intention] = {}
            for plan_name in self.plans_for(intention):
                results[intention][plan_name] = {
                    scale: self.run_timed(
                        intention, scale, plan_name, repetitions, warmup
                    )["seconds"]
                    for scale in self.scales
                }
        return results

    def table3(
        self, fig3_data: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None
    ) -> Dict[str, Dict[str, Tuple[float, float]]]:
        """Best-plan time with NP time, per intention × scale (Table 3)."""
        data = fig3_data if fig3_data is not None else self.fig3()
        table: Dict[str, Dict[str, Tuple[float, float]]] = {}
        for intention, per_plan in data.items():
            table[intention] = {}
            for scale in self.scales:
                best = min(per_plan[plan][scale] for plan in per_plan)
                table[intention][scale] = (best, per_plan["NP"][scale])
        return table

    def fig4(
        self, repetitions: int = 3, warmup: int = 0
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Step breakdown of the Past intention per plan × scale (Figure 4)."""
        results: Dict[str, Dict[str, Dict[str, float]]] = {}
        for plan_name in self.plans_for("Past"):
            results[plan_name] = {
                scale: self.run_timed("Past", scale, plan_name, repetitions, warmup)[
                    "breakdown"
                ]
                for scale in self.scales
            }
        return results

    def workload(
        self,
        scale: str,
        plan: str = "best",
        repetitions: int = 3,
        warmup: int = 0,
    ) -> Dict[str, object]:
        """Batched vs. sequential execution of the reference workload.

        Runs the four reference intentions as one session workload twice:
        once statement-by-statement (:meth:`AssessSession.assess`) and
        once through :meth:`AssessSession.execute_many`, which merges the
        plans and fuses compatible scans.  The runner's sessions keep the
        result cache disabled, so both arms are cold and the difference
        is pure batch sharing.  Reports the min/median wall time of each
        arm over ``repetitions`` runs plus the batch's sharing report.
        """
        session = self.session(scale)
        statements = [statement_text(intention) for intention in INTENTIONS]
        for _ in range(warmup):
            for text in statements:
                session.assess(text, plan=plan)
        sequential: List[float] = []
        batched: List[float] = []
        report: Dict[str, object] = {}
        for _ in range(repetitions):
            start = time.perf_counter()
            for text in statements:
                session.assess(text, plan=plan)
            sequential.append(time.perf_counter() - start)
            start = time.perf_counter()
            outcome = session.execute_many(statements, plan=plan)
            batched.append(time.perf_counter() - start)
            report = outcome.report.to_dict()
        return {
            "statements": len(statements),
            "plan": plan,
            "sequential_min_s": min(sequential),
            "sequential_median_s": statistics.median(sequential),
            "batch_min_s": min(batched),
            "batch_median_s": statistics.median(batched),
            "speedup": min(sequential) / min(batched) if min(batched) > 0 else 0.0,
            "report": report,
        }

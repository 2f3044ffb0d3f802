"""Differential soundness tests for the workload analyzer.

Every "safe" verdict the analyzer emits is a falsifiable claim about the
runtime, and these tests falsify them against actual execution:

* predicted-warm statement  => zero fact scans when the workload is run
  in order through a fresh session (``engine.scans`` delta is 0), and
* predicted fusable-exact   => the batch really executes the group as one
  fused scan with zero exactness fallbacks, bit-identical to sequential,
* predicted parallel-safe   => forcing the morsel-parallel path causes no
  serial fallback (``engine.parallel.fallbacks`` delta is 0).

The counters come from the metrics registry; the checks run over both
bundled example workloads and over seeded random multi-statement
workloads on the SALES cube (roll-up chains over exact and inexact
measures).  The analyzer must never claim "safe" and be wrong; claiming
nothing (unknown) is always allowed.
"""

import math
import random
from pathlib import Path

import pytest

from repro.analysis.lint import extract_statements
from repro.api import AssessSession
from repro.datagen.sales import sales_engine
from repro.experiments.statements import prepare_engine

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = [
    REPO_ROOT / "examples" / "ssb_batch_workload.assess",
    REPO_ROOT / "examples" / "ssb_trace_session.assess",
]


def rows_equal(rows_a, rows_b):
    """Bit-identity over result rows, treating NaN as equal to NaN."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if set(row_a) != set(row_b):
            return False
        for key, value_a in row_a.items():
            value_b = row_b[key]
            if (
                isinstance(value_a, float)
                and isinstance(value_b, float)
                and math.isnan(value_a)
                and math.isnan(value_b)
            ):
                continue
            if value_a != value_b:
                return False
    return True


def check_soundness(make_engine, text):
    """Run the three differentials for one workload; return prediction counts."""
    statements = extract_statements(text)

    report = AssessSession(make_engine()).analyze_workload(text)
    warm = set(report.warm_statements())
    parallel_safe = {
        info.index for info in report.statements if info.parallel_safe is True
    }
    exact_fusions = [f for f in report.fusions if f.exact]

    # Differential 1: sequential fresh session.  A warm statement must not
    # touch the fact table (exact hit or derivation from an earlier store).
    engine_seq = make_engine()
    session_seq = AssessSession(engine_seq)
    sequential = []
    for index, statement in enumerate(statements):
        before = engine_seq.metrics.get("engine.scans")
        sequential.append(session_seq.assess(statement))
        delta = engine_seq.metrics.get("engine.scans") - before
        if index in warm:
            assert delta == 0, (
                f"statement {index} predicted warm but scanned {delta}x"
            )
    if warm:
        stats = session_seq.cache_stats()
        assert stats["hits"] + stats["derivations"] >= len(warm)

    # Differential 2: execute_many.  Exact fusion predictions must fuse
    # without fallback, and the batch must stay bit-identical.
    engine_batch = make_engine()
    batch = AssessSession(engine_batch).execute_many(statements)
    fused_scans = engine_batch.metrics.get("engine.fused_scans")
    fallbacks = engine_batch.metrics.get("engine.fused_fallbacks")
    if report.fusions and all(f.exact for f in report.fusions):
        assert fallbacks == 0, f"exact-only prediction but {fallbacks} fallbacks"
        assert fused_scans == len(report.fusions)
    for index, (got, want) in enumerate(zip(batch.results, sequential)):
        assert rows_equal(got.cube.to_rows(), want.cube.to_rows()), (
            f"statement {index}: batch result differs from sequential"
        )

    # Differential 3: force the parallel path and watch for fallbacks.
    engine_par = make_engine()
    session_par = AssessSession(engine_par)
    session_par.set_parallelism(2, min_rows=0)
    for index, statement in enumerate(statements):
        before = engine_par.metrics.get("engine.parallel.fallbacks")
        result = session_par.assess(statement)
        delta = engine_par.metrics.get("engine.parallel.fallbacks") - before
        if index in parallel_safe:
            assert delta == 0, (
                f"statement {index} predicted parallel-safe "
                f"but fell back {delta}x"
            )
        assert rows_equal(result.cube.to_rows(), sequential[index].cube.to_rows())

    return {
        "warm": len(warm),
        "edges": len(report.derivations),
        "exact_fusions": len(exact_fusions),
        "parallel_safe": len(parallel_safe),
    }


AVG_WORKLOAD = ";\n".join(
    f"with SSB for year = '1997' by {by} assess discount against 5 "
    "using ratio(discount, 5) labels {[0, 1): low, [1, inf): high}"
    for by in ("month", "month, category", "category")
)


def test_avg_member_on_integral_column_fuses_exactly():
    """``avg`` finishes from a sum and a count slot, gated like a sum."""
    report = AssessSession(prepare_engine(lineorder_rows=2000)).analyze_workload(
        AVG_WORKLOAD
    )
    assert report.fusions
    assert all(f.exact for f in report.fusions)
    # check_soundness then requires zero fused fallbacks and a batch
    # bit-identical to sequential execution.
    check_soundness(lambda: prepare_engine(lineorder_rows=2000), AVG_WORKLOAD)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_workloads_sound(path):
    counts = check_soundness(
        lambda: prepare_engine(lineorder_rows=2000), path.read_text()
    )
    # The acceptance examples must yield non-vacuous predictions.
    assert counts["warm"] >= 1
    assert counts["edges"] >= 1
    assert counts["parallel_safe"] >= 1


# ---------------------------------------------------------------------------
# Property test: random multi-statement workloads on SALES
# ---------------------------------------------------------------------------
GROUP_BYS = [
    "month, category",
    "month",
    "year",
    "category",
    "year, category",
    "month, type",
    "type",
    "year, type",
    "month, country",
    "country",
]
PREDICATES = ["for year = '1996' ", "for year = '1997' ", ""]
MEASURES = ["quantity", "storeSales"]  # exact / inexact
LABELS = "labels {[0, 1): low, [1, inf): high}"


def random_workload(rng):
    """Roll-up-chain-biased workload: shared predicate, mixed granularity."""
    predicate = rng.choice(PREDICATES)
    dominant = rng.choice(MEASURES)
    statements = []
    for _ in range(rng.randint(4, 7)):
        group_by = rng.choice(GROUP_BYS)
        measure = dominant if rng.random() < 0.8 else rng.choice(MEASURES)
        statements.append(
            f"with SALES {predicate}by {group_by} assess {measure} "
            f"against 100 using ratio({measure}, 100) {LABELS}"
        )
    return ";\n".join(statements)


@pytest.mark.parametrize("seed", range(8))
def test_random_sales_workloads_sound(seed):
    text = random_workload(random.Random(seed))
    check_soundness(lambda: sales_engine(n_rows=2000, seed=11), text)


def test_random_workloads_not_vacuous():
    """Across the seeds, the analyzer must actually predict something."""
    totals = {"warm": 0, "edges": 0, "exact_fusions": 0, "parallel_safe": 0}
    for seed in range(8):
        text = random_workload(random.Random(seed))
        report = AssessSession(sales_engine(n_rows=2000, seed=11)).analyze_workload(
            text
        )
        totals["warm"] += len(report.warm_statements())
        totals["edges"] += len(report.derivations)
        totals["exact_fusions"] += sum(1 for f in report.fusions if f.exact)
        totals["parallel_safe"] += sum(
            1 for info in report.statements if info.parallel_safe is True
        )
    assert totals["warm"] >= 1
    assert totals["edges"] >= 1
    assert totals["exact_fusions"] >= 1
    assert totals["parallel_safe"] >= 1

"""Observability overhead — the disabled tracer must be (nearly) free.

Tracing is opt-in: with no tracer installed, every instrumented call
site reduces to one ``tracer.enabled`` branch (plus the always-on
metrics counters, one dict operation per engine call).  This benchmark
pins that promise on the 10-statement overlapping workload
``examples/ssb_batch_workload.assess``, sequential and batched:

* **baseline** — the workload with the default ``NULL_TRACER``;
* **enabled** — the same workload under ``repro.obs.tracing()``
  (reported for context, not asserted: recording spans has a real cost
  and is only paid when requested).

The acceptance gate is ``disabled overhead < 2%``: the **disabled** arm
against a **stripped** arm where the plan executor's tracing wrapper is
monkeypatched out (``PlanExecutor._run`` → ``_run_node``) — i.e. what the
instrumentation costs when nobody is tracing, measured against code
with the wrapper gone.  (The engine executor has no wrapper to strip:
its one pipeline opens its spans on the no-op ``NULL_TRACER`` span.)
Arms are interleaved and min-of-N wall times are compared, so the margin
absorbs scheduler noise.  Results go to ``BENCH_PR4.json``.

Usage::

    python benchmarks/bench_obs_overhead.py                    # 60k rung
    python benchmarks/bench_obs_overhead.py --rows 600000 --json BENCH_PR4.json
    python benchmarks/bench_obs_overhead.py --smoke            # CI mode
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.algebra.executor import PlanExecutor
from repro.api import AssessSession
from repro.analysis import extract_statements
from repro.experiments.statements import prepare_engine
from repro.obs import tracing

WORKLOAD_FILE = Path(__file__).resolve().parent.parent / "examples" / "ssb_batch_workload.assess"
OVERHEAD_CEILING = 0.02      # acceptance: disabled-tracer overhead < 2%
SMOKE_CEILING = 0.10         # CI mode: small rung, noisy boxes


def load_workload() -> list:
    return extract_statements(WORKLOAD_FILE.read_text())


@contextmanager
def stripped_instrumentation():
    """Monkeypatch the tracing wrapper out — the pre-instrumentation code."""
    original_run = PlanExecutor._run
    PlanExecutor._run = PlanExecutor._run_node
    try:
        yield
    finally:
        PlanExecutor._run = original_run


def run_arm(session: AssessSession, statements, plan: str) -> float:
    """One pass of the workload (sequential then batched), cold caches."""
    session.clear_cache()
    start = time.perf_counter()
    for text in statements:
        session.assess(text, plan=plan)
    session.clear_cache()
    session.execute_many(statements, plan=plan)
    return time.perf_counter() - start


def run_rung(rows: int, plan: str, repetitions: int, seed: int = 7) -> dict:
    statements = load_workload()
    engine = prepare_engine(rows, seed=seed)
    session = AssessSession(engine)

    # Warm dictionary encodings and key indexes once; all arms then see
    # identical engine state.
    run_arm(session, statements, plan)

    stripped_times, disabled_times, enabled_times = [], [], []
    for _ in range(repetitions):
        # Interleaved so drift (thermal, page cache) hits all arms alike.
        with stripped_instrumentation():
            stripped_times.append(run_arm(session, statements, plan))
        disabled_times.append(run_arm(session, statements, plan))
        with tracing():
            enabled_times.append(run_arm(session, statements, plan))

    stripped_s = min(stripped_times)
    disabled_s = min(disabled_times)
    enabled_s = min(enabled_times)
    return {
        "rows": rows,
        "plan": plan,
        "statements": len(statements),
        "repetitions": repetitions,
        "stripped_s": stripped_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_overhead": disabled_s / stripped_s - 1.0,
        "enabled_overhead": enabled_s / stripped_s - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Disabled-tracer overhead on the 10-statement SSB "
        "workload (sequential + batched, cold caches)."
    )
    parser.add_argument("--rows", type=str, default="60000",
                        help="comma-separated lineorder rungs "
                        "(default: 60000)")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best", "auto"))
    parser.add_argument("--repetitions", type=int, default=5,
                        help="interleaved repetitions per arm; min is "
                        "reported (default: 5)")
    parser.add_argument("--json", metavar="OUT", default="",
                        help="write machine-readable results to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: one small rung, relaxed ceiling "
                        f"({100 * SMOKE_CEILING:.0f}%%) for noisy runners")
    args = parser.parse_args(argv)

    rungs = [int(part) for part in args.rows.split(",") if part.strip()]
    if args.smoke:
        rungs = [60_000]
    ceiling = SMOKE_CEILING if args.smoke else OVERHEAD_CEILING

    print("observability overhead — 10-statement workload, "
          "NULL_TRACER vs tracing() (cold caches)")
    results, failures = [], []
    for rows in rungs:
        record = run_rung(rows, args.plan, args.repetitions)
        overhead = record["disabled_overhead"]
        record["ceiling"] = ceiling
        record["within_ceiling"] = overhead < ceiling
        results.append(record)
        print(
            f"  {rows:>9,} rows: stripped {1000 * record['stripped_s']:.1f} ms, "
            f"disabled {1000 * record['disabled_s']:.1f} ms "
            f"({100 * overhead:+.2f}%), "
            f"enabled {1000 * record['enabled_s']:.1f} ms "
            f"({100 * record['enabled_overhead']:+.1f}%), "
            f"ceiling {100 * ceiling:.0f}%"
        )
        if not record["within_ceiling"]:
            failures.append(
                f"{rows} rows: disabled-tracer overhead "
                f"{100 * overhead:.2f}% exceeds the "
                f"{100 * ceiling:.0f}% ceiling"
            )

    if args.json:
        payload = {
            "benchmark": "bench_obs_overhead",
            "workload": str(WORKLOAD_FILE.name),
            "plan": args.plan,
            "ceiling": ceiling,
            "rungs": results,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok: disabled-tracer overhead within the ceiling")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

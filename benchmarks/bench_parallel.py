"""Morsel-parallel execution benchmark (PR 5): serial vs parallel arms.

Runs the fused SSB batch workload (the ten statements of
``examples/ssb_batch_workload.assess``) three ways on one engine scale:

* **serial** — parallelism off entirely (the seed baseline);
* **disabled** — a parallel config installed but ineligible for every
  scan (measures the pure overhead of having the feature off: the
  acceptance bar is < 2%);
* **parallel** — morsel-driven execution at ``--degree`` workers.

Results (min/median seconds per arm, speedup, overhead, and the host's
CPU count — speedups are physically bounded by it) are printed and, with
``--json``, written to ``BENCH_PR5.json``.  ``--smoke`` shrinks the
workload for CI: it only verifies the three arms run and stay
bit-identical, not the timings.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py --json BENCH_PR5.json
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from repro.analysis import extract_statements
from repro.api import AssessSession
from repro.batch import results_identical
from repro.experiments.statements import prepare_engine

WORKLOAD = os.path.join(
    os.path.dirname(__file__), "..", "examples", "ssb_batch_workload.assess"
)


def load_statements():
    with open(WORKLOAD) as handle:
        return extract_statements(handle.read())


def build_session(rows: int, mode: str, degree: int, morsel_rows: int):
    session = AssessSession(prepare_engine(rows))
    session.engine.result_cache.enabled = False
    if mode == "parallel":
        session.set_parallelism(degree, morsel_rows=morsel_rows)
    elif mode == "disabled":
        # Config present but ineligible for every scan: times the cost
        # of the feature's guard checks when it never fires.
        session.set_parallelism(degree, morsel_rows=morsel_rows, min_rows=2**62)
    return session


def time_arm(session, statements, repetitions: int, warmup: int):
    for _ in range(warmup):
        session.execute_many(statements)
    samples = []
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = session.execute_many(statements)
        samples.append(time.perf_counter() - start)
    return samples, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=600_000,
                        help="lineorder rows (default: 600000)")
    parser.add_argument("--degree", type=int, default=4,
                        help="parallelism degree of the parallel arm")
    parser.add_argument("--morsel-rows", type=int, default=65_536,
                        help="rows per morsel (default: 65536)")
    parser.add_argument("--repetitions", type=int, default=5,
                        help="timed runs per arm (default: 5)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed runs per arm (default: 1)")
    parser.add_argument("--json", metavar="OUT", default="",
                        help="write the measurements as JSON to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny workload, correctness only")
    args = parser.parse_args(argv)

    if args.smoke:
        args.rows = min(args.rows, 60_000)
        args.repetitions = 1
        args.warmup = 0
        args.morsel_rows = min(args.morsel_rows, 8192)

    statements = load_statements()
    cpus = os.cpu_count() or 1
    print(f"bench_parallel: {args.rows:,} rows, {len(statements)} statements, "
          f"degree {args.degree}, morsel {args.morsel_rows:,} rows, "
          f"{cpus} CPU(s)")

    arms = {}
    results = {}
    for mode in ("serial", "disabled", "parallel"):
        session = build_session(args.rows, mode, args.degree, args.morsel_rows)
        samples, result = time_arm(
            session, statements, args.repetitions, args.warmup
        )
        arms[mode] = samples
        results[mode] = result
        metrics = session.engine.metrics
        print(f"  {mode:<9} min {min(samples):.3f}s  "
              f"median {statistics.median(samples):.3f}s  "
              f"(parallel queries: {metrics.get('engine.parallel.queries')}, "
              f"morsels: {metrics.get('engine.parallel.morsels')})")
        if mode == "parallel" and not args.smoke:
            assert metrics.get("engine.parallel.queries") > 0, (
                "the parallel arm never parallelized"
            )
        if session.engine.parallel is not None:
            session.engine.parallel.close()

    # Bit-identity across all three arms, statement by statement.
    for mode in ("disabled", "parallel"):
        for ours, theirs in zip(results[mode].results, results["serial"].results):
            assert results_identical(ours, theirs), (
                f"{mode} arm diverged from serial"
            )
    print("  bit-identical: yes (all arms, all statements)")

    serial = min(arms["serial"])
    speedup = serial / min(arms["parallel"])
    overhead = (min(arms["disabled"]) - serial) / serial
    print(f"  speedup (parallel vs serial): {speedup:.2f}x")
    print(f"  disabled-parallelism overhead: {100 * overhead:+.2f}%")
    if cpus < 2:
        print("  note: single-CPU host — thread-parallel speedup is "
              "physically capped at ~1x here; re-run on a multicore "
              "machine for the real numbers")

    if args.json:
        payload = {
            "benchmark": "parallel-fused-workload",
            "rows": args.rows,
            "statements": len(statements),
            "degree": args.degree,
            "morsel_rows": args.morsel_rows,
            "repetitions": args.repetitions,
            "cpus": cpus,
            "serial_s": {"min": min(arms["serial"]),
                         "median": statistics.median(arms["serial"])},
            "disabled_s": {"min": min(arms["disabled"]),
                           "median": statistics.median(arms["disabled"])},
            "parallel_s": {"min": min(arms["parallel"]),
                           "median": statistics.median(arms["parallel"])},
            "speedup": speedup,
            "disabled_overhead_pct": 100 * overhead,
            "bit_identical": True,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"  wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

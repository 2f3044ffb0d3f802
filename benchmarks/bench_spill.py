"""Bounded-memory spill-tier benchmark (PR 8): peak RSS under a budget.

Measures the acceptance numbers of the spill-to-disk partitioned
aggregation tier over the out-of-core SSB ladder:

* **bit-identity** — the same integral-measure workload through the
  unbudgeted in-RAM engine, the unbudgeted memory-mapped store, and the
  budgeted spill tier must produce byte-identical cells;
* **bounded memory** — the budgeted arm's grouping state is capped by
  the budget (runs spill to temp files), so its peak RSS stays far below
  the unbudgeted in-RAM arm's at the same rung;
* **the SF100 rung** (opt-in, ``--sf100-rows``) — a store built chunk by
  chunk with :func:`repro.datagen.ssb.build_ssb_store` (peak RAM is one
  partition, never the table) and queried end to end out of core.

Every arm runs in its own subprocess so the peak RSS (normalized to
kilobytes by ``repro.obs.rss``) is the arm's own peak, and every arm digests its result cells so
the driver can assert bit-identity.  The workload measure is
``quantity`` (integral), so the spill merge passes the float-exactness
gate and the distributive re-aggregation is provably exact.

Usage::

    PYTHONPATH=src python benchmarks/bench_spill.py --json BENCH_PR8.json
    PYTHONPATH=src python benchmarks/bench_spill.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# Mid-cardinality grouping: ~date x city cells fit comfortably in RAM
# while the per-morsel partial state comfortably outgrows a small budget.
STATEMENT = """
    with SSB by date, c_city
    assess quantity against 100000
    using ratio(quantity, 100000)
    labels {[0, 1): low, [1, inf]: high}
"""


# ----------------------------------------------------------------------
# Worker side (runs in a subprocess per arm)
# ----------------------------------------------------------------------
def _cell_value(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    return value.hex() if isinstance(value, float) else str(value)


def _digest(result) -> str:
    """A stable content hash of the result cells (order-independent)."""
    cube = result.cube
    levels = tuple(cube.group_by.levels)
    rows = []
    for row in range(len(cube)):
        coords = tuple(str(cube.coords[level][row]) for level in levels)
        values = tuple(
            _cell_value(cube.measures[name][row]) for name in cube.measures
        )
        rows.append((coords, values))
    blob = repr((levels, sorted(rows))).encode()
    return hashlib.sha256(blob).hexdigest()


def _spill_counters(engine) -> dict:
    counters = engine.metrics.snapshot()["counters"]
    return {
        key: value for key, value in counters.items()
        if key.startswith(("engine.spill.", "engine.storage."))
        or key == "engine.rows_scanned"
    }


def worker(args) -> int:
    from repro.api import AssessSession
    from repro.obs.rss import peak_rss_kb
    from repro.datagen.ssb import build_ssb_store, ssb_engine_from_catalog
    from repro.engine.persist import load_catalog

    if args.worker == "save":
        start = time.perf_counter()
        build_ssb_store(
            args.store, args.rows, seed=7, with_budget=False,
            progress=lambda message: print(f"    {message}", file=sys.stderr),
        )
        payload = {
            "mode": "save",
            "rows": args.rows,
            "save_s": time.perf_counter() - start,
            "peak_rss_kb": peak_rss_kb(),
        }
        print(json.dumps(payload))
        return 0

    if args.worker == "inram":
        # Same store, fully resident: chunked generation and the in-RAM
        # ladder draw different random streams, so the unbudgeted arm
        # loads the identical bytes rather than regenerating.
        engine = ssb_engine_from_catalog(load_catalog(args.store, mmap=False))
    else:  # mmap / spill
        engine = ssb_engine_from_catalog(load_catalog(args.store, mmap=True))
    engine.result_cache.enabled = False
    budget = args.budget if args.worker == "spill" else None
    session = AssessSession(
        engine, memory_budget=budget, morsel_rows=args.morsel_rows or None
    )

    samples = []
    result = None
    for _ in range(args.repetitions):
        start = time.perf_counter()
        result = session.assess(STATEMENT)
        samples.append(time.perf_counter() - start)

    payload = {
        "mode": args.worker,
        "rows": args.rows,
        "budget_bytes": budget,
        "samples_s": samples,
        "min_s": min(samples),
        "median_s": statistics.median(samples),
        "peak_rss_kb": peak_rss_kb(),
        "result_cells": len(result.cube),
        "digest": _digest(result),
        "counters": _spill_counters(engine),
    }
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def run_arm(mode: str, rows: int, store: str, repetitions: int,
            budget: int, morsel_rows: int = 0) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--worker", mode, "--rows", str(rows), "--store", store,
        "--repetitions", str(repetitions), "--budget", str(budget),
        "--morsel-rows", str(morsel_rows),
    ]
    env = dict(os.environ)
    env.pop("REPRO_MEMORY_BYTES", None)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    output = subprocess.run(command, env=env, capture_output=True, text=True)
    if output.returncode != 0:
        sys.stderr.write(output.stderr)
        raise RuntimeError(f"worker arm {mode!r} failed (see stderr above)")
    return json.loads(output.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=60_000_000,
                        help="rows of the differential rung (default: "
                        "60,000,000 — SF10 of the SSB ladder)")
    parser.add_argument("--budget", type=int, default=8_000_000,
                        help="memory budget (bytes) of the spill arm "
                        "(default: 8 MB, far below the working set)")
    parser.add_argument("--sf100-rows", type=int, default=0,
                        help="opt-in second rung built fully out of core "
                        "and queried under the budget (e.g. 600,000,000 "
                        "for SF100); 0 skips it")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="timed runs per arm (default: 3)")
    parser.add_argument("--store-dir", default="",
                        help="where to write the stores (default: a "
                        "temporary directory, removed afterwards)")
    parser.add_argument("--json", metavar="OUT", default="",
                        help="write the measurements as JSON to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny rung, correctness only")
    # worker-side flags
    parser.add_argument("--worker", choices=("save", "inram", "mmap", "spill"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--store", default="", help=argparse.SUPPRESS)
    parser.add_argument("--morsel-rows", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args)

    morsel_rows = 0
    if args.smoke:
        args.rows = min(args.rows, 120_000)
        args.budget = min(args.budget, 50_000)
        args.repetitions = 1
        args.sf100_rows = 0
        morsel_rows = 8_192  # several morsels even at the tiny rung

    cpus = os.cpu_count() or 1
    print(f"bench_spill: rung {args.rows:,} rows, budget "
          f"{args.budget:,} B, {cpus} CPU(s)")

    created_tmp = None
    if args.store_dir:
        store_dir = args.store_dir
        os.makedirs(store_dir, exist_ok=True)
    else:
        created_tmp = tempfile.TemporaryDirectory(prefix="bench_spill_")
        store_dir = created_tmp.name

    try:
        store = os.path.join(store_dir, f"ssb_{args.rows}")
        save = run_arm("save", args.rows, store, args.repetitions, args.budget)
        print(f"  save ({args.rows:,} rows, partitioned out-of-core): "
              f"{save['save_s']:.1f}s, peak RSS "
              f"{save['peak_rss_kb'] / 1024:.0f} MB")

        inram = run_arm("inram", args.rows, store, args.repetitions,
                        args.budget, morsel_rows)
        mmap = run_arm("mmap", args.rows, store, args.repetitions,
                       args.budget, morsel_rows)
        spill = run_arm("spill", args.rows, store, args.repetitions,
                        args.budget, morsel_rows)

        for name, arm in (("inram", inram), ("mmap", mmap),
                          ("mmap+budget", spill)):
            print(f"  {name:<12} min {arm['min_s']:.3f}s  median "
                  f"{arm['median_s']:.3f}s  peak RSS "
                  f"{arm['peak_rss_kb'] / 1024:.0f} MB")

        assert inram["digest"] == mmap["digest"] == spill["digest"], (
            "arms diverged — spilled cells are not bit-identical to the "
            "in-RAM engine"
        )
        print("  bit-identical: yes (inram, mmap, mmap+budget)")

        spilled = spill["counters"].get("engine.spill.spills", 0)
        assert spill["counters"].get("engine.spill.queries", 0) >= 1, (
            "the budget never routed a query through the spill tier"
        )
        assert spilled > 0, (
            "the spill arm never wrote a run to disk — the budget is not "
            "below the working set at this rung"
        )
        assert mmap["counters"].get("engine.spill.queries", 0) == 0, (
            "the unbudgeted mmap arm unexpectedly used the spill tier"
        )
        rss_ratio = inram["peak_rss_kb"] / max(spill["peak_rss_kb"], 1)
        print(f"  spills {spilled:,}, bytes spilled "
              f"{spill['counters'].get('engine.spill.bytes_spilled', 0):,}, "
              f"peak RSS {rss_ratio:.1f}x below the in-RAM arm")
        if not args.smoke:
            assert rss_ratio >= 2.0, (
                f"budgeted peak RSS only {rss_ratio:.1f}x below in-RAM"
            )

        sf100 = None
        if args.sf100_rows:
            big_store = os.path.join(store_dir, f"ssb_{args.sf100_rows}")
            big_save = run_arm("save", args.sf100_rows, big_store, 1,
                               args.budget)
            print(f"  save ({args.sf100_rows:,} rows): "
                  f"{big_save['save_s']:.1f}s, peak RSS "
                  f"{big_save['peak_rss_kb'] / 1024:.0f} MB")
            big_spill = run_arm("spill", args.sf100_rows, big_store, 1,
                                args.budget)
            print(f"  out-of-core rung ({args.sf100_rows:,} rows): "
                  f"{big_spill['min_s']:.1f}s, peak RSS "
                  f"{big_spill['peak_rss_kb'] / 1024:.0f} MB, "
                  f"{big_spill['result_cells']:,} cells, spills "
                  f"{big_spill['counters'].get('engine.spill.spills', 0):,}")
            sf100 = {"rows": args.sf100_rows, "save": big_save,
                     "spill": big_spill}

        if args.json:
            payload = {
                "benchmark": "spill-bounded-memory",
                "cpus": cpus,
                "budget_bytes": args.budget,
                "repetitions": args.repetitions,
                "statement": " ".join(STATEMENT.split()),
                "rung": {
                    "rows": args.rows,
                    "save": save,
                    "inram": inram,
                    "mmap": mmap,
                    "spill": spill,
                    "rss_ratio": rss_ratio,
                },
                "sf100_rung": sf100,
                "bit_identical": True,
            }
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"  wrote {args.json}")
    finally:
        if created_tmp is not None:
            created_tmp.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())

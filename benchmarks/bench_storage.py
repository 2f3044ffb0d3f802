"""Compressed column-store benchmark (PR 7): pruning speedup and RSS.

Measures the two acceptance numbers of the storage layer:

* **zone-map pruning speedup** — a selective SSB statement (one year of
  seven) over the same clustered, memory-mapped store with pruning on vs
  off (the engine's ``zone_pruning`` setting).  Target: >= 1.3x.
* **out-of-core peak RSS** — the same workload from an in-RAM generated
  engine vs a memory-mapped v2 store, one ladder rung above the largest
  the in-RAM seed path was benchmarked at.  Target: >= 2x lower.

Every arm runs in its own subprocess so the peak RSS (normalized to
kilobytes by ``repro.obs.rss``) is the arm's own peak, and every arm digests its result cells so
the driver can assert bit-identity.  The workload measure is
``quantity`` (integral), so re-clustering the store cannot reassociate
its sums — cells stay bit-identical across all arms by construction.

Usage::

    PYTHONPATH=src python benchmarks/bench_storage.py --json BENCH_PR7.json
    PYTHONPATH=src python benchmarks/bench_storage.py --smoke
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

STATEMENT = """
    with SSB for year = '1997' by month, c_region
    assess quantity against 100000
    using ratio(quantity, 100000)
    labels {[0, 0.9): low, [0.9, 1.1]: ok, (1.1, inf): high}
"""

CLUSTER_COLUMN = "lo_datekey"


# ----------------------------------------------------------------------
# Worker side (runs in a subprocess per arm)
# ----------------------------------------------------------------------
def _cell_value(value) -> str:
    """Bit-exact rendering: float64 via hex(), anything else via str()."""
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
        rows.append((coords, values))  # labels ride along in cube.measures
    blob = repr((levels, sorted(rows))).encode()
    return hashlib.sha256(blob).hexdigest()


def _storage_counters(engine) -> dict:
    counters = engine.metrics.snapshot()["counters"]
    picked = {
        key: value for key, value in counters.items()
        if key.startswith("engine.storage.")
    }
    picked["engine.rows_scanned"] = counters.get("engine.rows_scanned", 0)
    return picked


def worker(args) -> int:
    from repro.api import AssessSession
    from repro.obs.rss import peak_rss_kb
    from repro.datagen.ssb import ssb_engine, ssb_engine_from_catalog
    from repro.engine.persist import load_catalog, save_catalog

    if args.worker == "save":
        engine = ssb_engine(lineorder_rows=args.rows, seed=7, with_budget=False)
        start = time.perf_counter()
        save_catalog(
            engine.catalog, args.store,
            cluster={"ssb_lineorder": CLUSTER_COLUMN} if args.cluster else None,
            zone_rows=args.zone_rows,
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
        engine = ssb_engine(lineorder_rows=args.rows, seed=7, with_budget=False)
    else:  # mmap
        engine = ssb_engine_from_catalog(load_catalog(args.store, mmap=True))
    engine.result_cache.enabled = False
    if args.no_prune:  # the environment's settings, pruning off
        engine.configure(engine.settings, zone_pruning=False)
    session = AssessSession(engine)

    session.assess(STATEMENT)  # warmup (key indexes, dictionaries)
    samples = []
    result = None
    for _ in range(args.repetitions):
        start = time.perf_counter()
        result = session.assess(STATEMENT)
        samples.append(time.perf_counter() - start)

    payload = {
        "mode": args.worker,
        "rows": args.rows,
        "pruning": engine.settings.zone_pruning,
        "samples_s": samples,
        "min_s": min(samples),
        "median_s": statistics.median(samples),
        "peak_rss_kb": peak_rss_kb(),
        "digest": _digest(result),
        "counters": _storage_counters(engine),
    }
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def run_arm(mode: str, rows: int, store: str, repetitions: int,
            zone_rows: int, cluster: bool = False,
            no_prune: bool = False) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--worker", mode, "--rows", str(rows), "--store", store,
        "--repetitions", str(repetitions), "--zone-rows", str(zone_rows),
    ]
    if cluster:
        command.append("--cluster")
    if no_prune:
        command.append("--no-prune")
    env = dict(os.environ)
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
    parser.add_argument("--rows", type=int, default=6_000_000,
                        help="rows of the pruning-speedup rung "
                        "(default: 6,000,000 — the seed ladder's top)")
    parser.add_argument("--big-rows", type=int, default=60_000_000,
                        help="rows of the out-of-core rung, one rung above "
                        "the seed ladder (default: 60,000,000)")
    parser.add_argument("--zone-rows", type=int, default=65_536,
                        help="zone-map granularity (default: morsel size)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="timed runs per arm (default: 3)")
    parser.add_argument("--store-dir", default="",
                        help="where to write the stores (default: a "
                        "temporary directory, removed afterwards)")
    parser.add_argument("--json", metavar="OUT", default="",
                        help="write the measurements as JSON to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny rungs, correctness only")
    # worker-side flags
    parser.add_argument("--worker", choices=("save", "inram", "mmap"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--store", default="", help=argparse.SUPPRESS)
    parser.add_argument("--cluster", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--no-prune", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args)

    if args.smoke:
        args.rows = min(args.rows, 120_000)
        args.big_rows = min(args.big_rows, 240_000)
        args.repetitions = 1

    cpus = os.cpu_count() or 1
    print(f"bench_storage: pruning rung {args.rows:,} rows, out-of-core "
          f"rung {args.big_rows:,} rows, zone {args.zone_rows:,} rows, "
          f"{cpus} CPU(s)")

    created_tmp = None
    if args.store_dir:
        store_dir = args.store_dir
        os.makedirs(store_dir, exist_ok=True)
    else:
        created_tmp = tempfile.TemporaryDirectory(prefix="bench_storage_")
        store_dir = created_tmp.name

    try:
        # ---- arm 1: pruning speedup over one clustered mmap store ----
        store = os.path.join(store_dir, f"ssb_{args.rows}")
        save = run_arm("save", args.rows, store, args.repetitions,
                       args.zone_rows, cluster=True)
        print(f"  save ({args.rows:,} rows, clustered by {CLUSTER_COLUMN}): "
              f"{save['save_s']:.1f}s, peak RSS "
              f"{save['peak_rss_kb'] / 1024:.0f} MB")

        prune_on = run_arm("mmap", args.rows, store, args.repetitions,
                           args.zone_rows)
        prune_off = run_arm("mmap", args.rows, store, args.repetitions,
                            args.zone_rows, no_prune=True)
        inram = run_arm("inram", args.rows, store, args.repetitions,
                        args.zone_rows)

        for name, arm in (("mmap+prune", prune_on),
                          ("mmap", prune_off), ("inram", inram)):
            print(f"  {name:<11} min {arm['min_s']:.3f}s  median "
                  f"{arm['median_s']:.3f}s  peak RSS "
                  f"{arm['peak_rss_kb'] / 1024:.0f} MB")

        assert prune_on["digest"] == prune_off["digest"] == inram["digest"], (
            "arms diverged — compressed/mmap/pruned cells are not "
            "bit-identical to the in-RAM engine"
        )
        print("  bit-identical: yes (inram, mmap, mmap+prune)")
        zones_pruned = prune_on["counters"].get(
            "engine.storage.zones_pruned", 0
        )
        assert zones_pruned > 0, "the selective scan never pruned a zone"
        assert prune_off["counters"].get(
            "engine.storage.zones_pruned", 0
        ) == 0, "zone_pruning=False did not disable pruning"
        speedup = prune_off["min_s"] / prune_on["min_s"]
        scan_ratio = (
            prune_off["counters"]["engine.rows_scanned"]
            / max(prune_on["counters"]["engine.rows_scanned"], 1)
        )
        print(f"  pruning speedup: {speedup:.2f}x "
              f"(zones pruned {zones_pruned:,}, "
              f"rows scanned {scan_ratio:.1f}x fewer)")

        # ---- arm 2: out-of-core rung, inram vs mmap peak RSS ----
        big_store = os.path.join(store_dir, f"ssb_{args.big_rows}")
        big_save = run_arm("save", args.big_rows, big_store,
                           args.repetitions, args.zone_rows, cluster=True)
        print(f"  save ({args.big_rows:,} rows): {big_save['save_s']:.1f}s, "
              f"peak RSS {big_save['peak_rss_kb'] / 1024:.0f} MB")
        big_inram = run_arm("inram", args.big_rows, big_store,
                            args.repetitions, args.zone_rows)
        big_mmap = run_arm("mmap", args.big_rows, big_store,
                           args.repetitions, args.zone_rows)
        assert big_inram["digest"] == big_mmap["digest"], (
            "out-of-core rung diverged from the in-RAM engine"
        )
        rss_ratio = big_inram["peak_rss_kb"] / max(big_mmap["peak_rss_kb"], 1)
        print(f"  out-of-core rung ({args.big_rows:,} rows): inram "
              f"{big_inram['peak_rss_kb'] / 1024:.0f} MB vs mmap "
              f"{big_mmap['peak_rss_kb'] / 1024:.0f} MB "
              f"({rss_ratio:.1f}x lower), min "
              f"{big_inram['min_s']:.3f}s vs {big_mmap['min_s']:.3f}s")

        if not args.smoke:
            assert speedup >= 1.3, (
                f"pruning speedup {speedup:.2f}x below the 1.3x bar"
            )
            assert rss_ratio >= 2.0, (
                f"RSS ratio {rss_ratio:.1f}x below the 2x bar"
            )

        if args.json:
            payload = {
                "benchmark": "storage-zone-pruning",
                "cpus": cpus,
                "zone_rows": args.zone_rows,
                "repetitions": args.repetitions,
                "statement": " ".join(STATEMENT.split()),
                "cluster_by": CLUSTER_COLUMN,
                "pruning_rung": {
                    "rows": args.rows,
                    "save": save,
                    "inram": inram,
                    "mmap_prune_off": prune_off,
                    "mmap_prune_on": prune_on,
                    "speedup": speedup,
                    "rows_scanned_ratio": scan_ratio,
                },
                "out_of_core_rung": {
                    "rows": args.big_rows,
                    "save": big_save,
                    "inram": big_inram,
                    "mmap": big_mmap,
                    "rss_ratio": rss_ratio,
                },
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

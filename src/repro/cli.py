"""Command-line interface: run assess statements against a demo cube.

One-shot::

    python -m repro.cli --cube sales "with SALES by month assess storeSales labels quartiles"

Interactive (statements are terminated with a blank line or ';')::

    python -m repro.cli --cube ssb
    assess> with SSB by year, c_region assess revenue labels quartiles
    assess> ;

Useful flags: ``--plan NP|JOP|POP|best`` to pick the execution strategy,
``--explain`` to print the plan tree and the pushed SQL instead of (well,
before) executing, ``--rows N`` to size the demo cube.

Subcommands: ``lint`` (static analysis), ``cache`` (result-cache demo),
``batch`` (multi-statement batches), ``trace`` (EXPLAIN ANALYZE),
``cube`` (save/load compressed column stores), ``storage`` (describe a
saved store), ``history`` (query-log reports), ``serve`` (multi-tenant
HTTP/JSON server — see docs/server.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .api import AssessSession
from .core.errors import ReproError
from .datagen import sales_engine, ssb_engine


def build_session(
    cube: str, rows: Optional[int], parallelism: Optional[int] = None,
    memory_budget: Optional[int] = None,
) -> AssessSession:
    """A session over one of the bundled demo cubes (``sales`` or ``ssb``)."""
    if cube == "sales":
        return AssessSession(
            sales_engine(n_rows=rows or 20_000), parallelism=parallelism,
            memory_budget=memory_budget,
        )
    if cube == "ssb":
        return AssessSession(
            ssb_engine(lineorder_rows=rows or 60_000), parallelism=parallelism,
            memory_budget=memory_budget,
        )
    raise ValueError(f"unknown demo cube {cube!r} (choose 'sales' or 'ssb')")


def add_parallelism_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--parallelism`` option (None = not set in code)."""
    parser.add_argument(
        "--parallelism", type=int, default=None, metavar="N",
        help="worker threads for morsel-driven scans (results are "
        "bit-identical either way).  Default: serial, or "
        "REPRO_PARALLELISM when no engine setting is given "
        "(docs/performance.md, Configuration)",
    )


def add_memory_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--memory-bytes`` option (None = not set in code)."""
    parser.add_argument(
        "--memory-bytes", type=int, default=None,
        help="memory budget for aggregation state (bytes); "
        "scans whose grouping state would exceed it run "
        "through the spill-to-disk tier (results are "
        "bit-identical).  Default: unbounded, or REPRO_MEMORY_BYTES "
        "when no engine setting is given (docs/performance.md, "
        "Configuration)",
    )


def run_statement(session: AssessSession, text: str, plan: str,
                  explain: bool, limit: int) -> int:
    try:
        if explain:
            print(session.explain(text, plan=plan))
        result = session.assess(text, plan=plan)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(result.to_table(limit=limit))
    if len(result) > limit:
        print(f"... plus {len(result) - limit} more cells")
    print(
        f"-- {len(result)} cells, plan {result.plan_name}, "
        f"{1000 * result.total_time():.1f} ms, labels: {result.label_counts()}"
    )
    return 0


def repl(session: AssessSession, plan: str, explain: bool, limit: int) -> int:
    print(f"cubes: {', '.join(session.engine.cube_names())}")
    print("end a statement with ';' or a blank line; 'quit' to exit, "
          "'cache' for result-cache statistics")
    buffer = []
    while True:
        try:
            prompt = "assess> " if not buffer else "     -> "
            line = input(prompt)
        except EOFError:
            break
        stripped = line.strip()
        if not buffer and stripped.lower() in ("quit", "exit"):
            break
        if not buffer and stripped.rstrip(";").lower() == "cache":
            print(render_cache_stats(session.cache_stats()))
            continue
        terminated = stripped.endswith(";") or (not stripped and buffer)
        if stripped:
            buffer.append(stripped.rstrip(";"))
        if terminated and buffer:
            run_statement(session, " ".join(buffer), plan, explain, limit)
            buffer = []
    return 0


# Demo workload of the ``cache`` subcommand for the sales cube; the ssb
# cube reuses the four experiment intentions instead.
SALES_CACHE_WORKLOAD = (
    """with SALES by month, product assess quantity against 1000
       using ratio(quantity, 1000)
       labels {[0, 0.9): low, [0.9, 1.1]: expected, (1.1, inf): high}""",
    """with SALES for year = '1997' by month, product assess quantity
       against 1000 using ratio(quantity, 1000)
       labels {[0, 0.9): low, [0.9, 1.1]: expected, (1.1, inf): high}""",
    """with SALES by year, product assess quantity against 5000
       using ratio(quantity, 5000)
       labels {[0, 0.9): low, [0.9, 1.1]: expected, (1.1, inf): high}""",
)


def render_cache_stats(stats) -> str:
    """The ``repro cache`` stats table (also the REPL's ``cache`` command)."""
    lines = ["result cache:"]
    for key in ("hits", "misses", "derivations", "evictions",
                "invalidations", "stores", "entries", "cached_cells",
                "cached_bytes", "cell_budget"):
        lines.append(f"  {key:<15}{stats[key]:>14,}")
    lines.append(f"  {'enabled':<15}{'yes' if stats['enabled'] else 'no':>14}")
    return "\n".join(lines)


def cache_main(argv=None) -> int:
    """The ``cache`` subcommand: run a demo workload twice, show stats.

    The first pass executes cold and populates the cache; later passes
    are served from it.  The printed per-pass times and the hit/derive
    counters make the reuse visible; see ``docs/performance.md``.
    """
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli cache",
        description="Demonstrate the semantic result cache: run a bundled "
        "workload repeatedly and print per-pass times plus cache statistics.",
    )
    parser.add_argument("--cube", choices=("sales", "ssb"), default="ssb",
                        help="demo cube (default: ssb, using the four "
                        "experiment intentions as the workload)")
    parser.add_argument("--rows", type=int, default=None,
                        help="fact rows to generate")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best", "auto"),
                        help="execution plan (default: best)")
    parser.add_argument("--passes", type=int, default=2,
                        help="workload repetitions (default: 2)")
    add_parallelism_flag(parser)
    args = parser.parse_args(argv)

    if args.cube == "ssb":
        from .experiments.statements import (
            INTENTIONS,
            prepare_engine,
            statement_text,
        )

        engine = prepare_engine(args.rows or 60_000)
        statements = [statement_text(name) for name in INTENTIONS]
    else:
        engine = sales_engine(n_rows=args.rows or 20_000)
        statements = list(SALES_CACHE_WORKLOAD)
    session = AssessSession(engine, parallelism=args.parallelism)

    for number in range(1, max(args.passes, 1) + 1):
        start = time.perf_counter()
        try:
            for text in statements:
                session.assess(text, plan=args.plan)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        label = "cold" if number == 1 else "warm"
        print(f"pass {number} ({label}): {len(statements)} statements "
              f"in {1000 * elapsed:.1f} ms")
    print()
    print(render_cache_stats(session.cache_stats()))
    return 0


def batch_main(argv=None) -> int:
    """The ``batch`` subcommand: run a statement-file workload as one batch.

    Statements are extracted from the given files (same format as ``repro
    lint``: ``;``- or ``with``-separated, ``#``/``--`` comments ignored),
    checked with the batch diagnostics (ASSESS3xx), and executed through
    :meth:`AssessSession.execute_many`.  Prints per-statement timings and
    the sharing report; ``--compare`` additionally runs the statements
    one by one on a fresh session and verifies bit-identical results.
    """
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli batch",
        description="Execute a multi-statement workload as one batch with "
        "plan merging and fused shared scans (see docs/performance.md).",
    )
    parser.add_argument("paths", nargs="*",
                        help="statement files (default: the four bundled "
                        "experiment intentions)")
    parser.add_argument("--cube", choices=("sales", "ssb"), default="ssb",
                        help="demo cube to run against (default: ssb)")
    parser.add_argument("--rows", type=int, default=None,
                        help="fact rows to generate")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best", "auto"),
                        help="execution plan (default: best; auto uses the "
                        "batch-aware cost model)")
    parser.add_argument("--compare", action="store_true",
                        help="also run sequentially on a fresh session and "
                        "verify bit-identical results")
    add_parallelism_flag(parser)
    args = parser.parse_args(argv)

    from .analysis import batch_diagnostics, extract_statements
    from .batch import results_identical

    if args.paths:
        statements = []
        for path in args.paths:
            try:
                with open(path) as handle:
                    statements.extend(extract_statements(handle.read()))
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
    elif args.cube == "ssb":
        from .experiments.statements import INTENTIONS, statement_text

        statements = [statement_text(name) for name in INTENTIONS]
    else:
        statements = list(SALES_CACHE_WORKLOAD)

    for diagnostic in batch_diagnostics(statements).sorted():
        print(diagnostic.render())
    if not statements:
        return 0

    def fresh_session() -> AssessSession:
        if args.cube == "ssb":
            from .experiments.statements import prepare_engine

            return AssessSession(
                prepare_engine(args.rows or 60_000),
                parallelism=args.parallelism,
            )
        return AssessSession(
            sales_engine(n_rows=args.rows or 20_000),
            parallelism=args.parallelism,
        )

    session = fresh_session()
    start = time.perf_counter()
    try:
        batch = session.execute_many(statements, plan=args.plan)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    batch_elapsed = time.perf_counter() - start
    for number, (result, seconds) in enumerate(
        zip(batch.results, batch.seconds), start=1
    ):
        print(f"statement {number:>2}: {len(result):>6} cells, "
              f"plan {result.plan_name:<4} {1000 * seconds:>8.1f} ms")
    print()
    print(batch.report.render())
    print(f"batch wall time     {1000 * batch_elapsed:.1f} ms")

    if args.compare:
        sequential_session = fresh_session()
        start = time.perf_counter()
        try:
            sequential = [
                sequential_session.assess(text, plan=args.plan)
                for text in statements
            ]
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        sequential_elapsed = time.perf_counter() - start
        identical = all(
            results_identical(ours, theirs)
            for ours, theirs in zip(batch.results, sequential)
        )
        print(f"sequential          {1000 * sequential_elapsed:.1f} ms "
              f"({sequential_elapsed / max(batch_elapsed, 1e-9):.2f}x the batch)")
        print(f"bit-identical       {'yes' if identical else 'NO'}")
        if not identical:
            return 1
    return 0


def trace_main(argv=None) -> int:
    """The ``trace`` subcommand: EXPLAIN ANALYZE for statements or batches.

    Executes the statements with the tracer installed and prints the plan
    tree annotated with actual rows, per-operator timings, cost-model
    estimates, and cache/fusion provenance (see ``docs/observability.md``).
    Several statements (from files or the bundled workload) execute as one
    shared batch, so the annotations show CSE and fused-scan reuse.
    ``--json`` writes the full machine-readable trace document (schema
    version 1); ``--format=chrome`` emits Chrome ``trace_event`` JSON for
    ``chrome://tracing`` / Perfetto instead of the tree.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli trace",
        description="Execute assess statements with tracing enabled and "
        "print the plan annotated with actual rows, timings, and "
        "estimated-vs-actual cost (EXPLAIN ANALYZE).",
    )
    parser.add_argument("statements", nargs="*",
                        help="statement texts or statement files (default: "
                        "the four bundled experiment intentions)")
    parser.add_argument("--cube", choices=("sales", "ssb"), default="ssb",
                        help="demo cube to run against (default: ssb)")
    parser.add_argument("--rows", type=int, default=None,
                        help="fact rows to generate")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best", "auto"),
                        help="execution plan (default: best)")
    parser.add_argument("--format", choices=("tree", "chrome"),
                        default="tree", dest="format_",
                        help="stdout format: annotated tree (default) or "
                        "Chrome trace_event JSON")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the trace document (schema v1, "
                        "estimates + actuals + span tree) to PATH "
                        "('-' for stdout)")
    add_parallelism_flag(parser)
    args = parser.parse_args(argv)

    import os

    from .analysis import extract_statements
    from .obs.analyze import trace_diagnostics

    statements = []
    for item in args.statements:
        if os.path.exists(item):
            try:
                with open(item) as handle:
                    statements.extend(extract_statements(handle.read()))
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            statements.append(item)
    if not statements:
        if args.cube == "ssb":
            from .experiments.statements import INTENTIONS, statement_text

            statements = [statement_text(name) for name in INTENTIONS]
        else:
            statements = list(SALES_CACHE_WORKLOAD)

    if args.cube == "ssb":
        from .experiments.statements import prepare_engine

        session = AssessSession(
            prepare_engine(args.rows or 60_000), parallelism=args.parallelism
        )
    else:
        session = AssessSession(
            sales_engine(n_rows=args.rows or 20_000),
            parallelism=args.parallelism,
        )

    bag = trace_diagnostics(session, statements)
    for diagnostic in bag.sorted():
        print(diagnostic.render(), file=sys.stderr)
    if bag.has_errors:
        return 1

    try:
        report = session.explain_analyze(statements, plan=args.plan)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.format_ == "chrome":
        print(json.dumps(report.to_chrome(), indent=2))
    else:
        print(report.render())
    if args.json:
        document = json.dumps(report.to_json(), indent=2)
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
            print(f"-- trace document written to {args.json}", file=sys.stderr)
    return 0


def cube_main(argv=None) -> int:
    """The ``cube`` subcommand: save/load SSB column stores and query them.

    ``--save PATH`` generates the SSB catalog (with the bundled BUDGET
    cube, so the store answers all four experiment intentions), compresses
    it into the v2 column-store format with zone maps, and writes it to
    PATH.  ``--load PATH`` memory-maps a saved store back and runs the
    given statements (default: the four intentions) against it, printing
    the zone-pruning counters afterwards.  See ``docs/performance.md``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli cube",
        description="Save the SSB demo catalog as a compressed column "
        "store, or load one and run assess statements against it "
        "out-of-core (memory-mapped, with zone-map pruning).",
    )
    parser.add_argument("statements", nargs="*",
                        help="assess statements to run after --save/--load "
                        "(default with --load: the four bundled "
                        "experiment intentions)")
    parser.add_argument("--rows", type=int, default=None,
                        help="fact rows to generate for --save "
                        "(default: 60000)")
    parser.add_argument("--scale", type=float, default=None, metavar="SF",
                        help="SSB scale factor for --save (fact rows = "
                        "SF x 6,000,000; e.g. 1, 10, 100).  Builds the "
                        "store out of core, partition by partition, so "
                        "SF100 never materialises the fact in RAM; "
                        "overrides --rows")
    parser.add_argument("--partition-rows", type=int, default=None,
                        help="fact rows per store partition for --scale "
                        "(default: 8388608; rounded to a multiple of "
                        "--zone-rows)")
    add_memory_flag(parser)
    parser.add_argument("--seed", type=int, default=7,
                        help="generator seed (default: 7)")
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="write the generated catalog to PATH")
    parser.add_argument("--load", metavar="PATH", default=None,
                        help="load a saved catalog from PATH instead of "
                        "generating one")
    parser.add_argument("--format", choices=("auto", "v1", "v2"),
                        default="auto", dest="format_",
                        help="store format for --save (default: auto — "
                        "v2 column store unless PATH ends in .npz)")
    parser.add_argument("--cluster-by", metavar="COLUMN", default=None,
                        help="sort the fact table by this column at save "
                        "time so zone maps turn selective predicates into "
                        "skipped morsels (e.g. lo_datekey)")
    parser.add_argument("--zone-rows", type=int, default=None,
                        help="rows per zone map entry (default: the "
                        "morsel size, 65536)")
    parser.add_argument("--no-mmap", action="store_true",
                        help="materialise arrays in RAM on --load instead "
                        "of memory-mapping them")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best", "auto"),
                        help="execution plan (default: best)")
    parser.add_argument("--limit", type=int, default=5,
                        help="max result rows to print per statement "
                        "(default: 5)")
    add_parallelism_flag(parser)
    args = parser.parse_args(argv)

    if not args.save and not args.load:
        parser.error("one of --save PATH or --load PATH is required")
    if args.save and args.load:
        parser.error("--save and --load are mutually exclusive")

    from .datagen.ssb import ssb_engine_from_catalog
    from .engine.columns import DEFAULT_ZONE_ROWS
    from .engine.persist import load_catalog, save_catalog

    if args.save and args.scale is not None:
        import time

        from .datagen.ssb import build_ssb_store

        rows = int(round(args.scale * 6_000_000))
        start = time.perf_counter()
        try:
            build_ssb_store(
                args.save, rows, seed=args.seed,
                zone_rows=args.zone_rows or DEFAULT_ZONE_ROWS,
                partition_rows=args.partition_rows,
                progress=lambda message: print(f"  {message}",
                                               file=sys.stderr),
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        built = time.perf_counter() - start
        print(f"built SF{args.scale:g} store ({rows:,} fact rows, "
              f"clustered by lo_datekey) at {args.save} in {built:.1f}s")
        if not args.statements:
            return 0
        # Query the store we just wrote, out of core — not the generator's
        # in-RAM tables (they never existed as a whole).
        catalog = load_catalog(args.save)
        engine = ssb_engine_from_catalog(catalog)
        session = AssessSession(
            engine, parallelism=args.parallelism,
            memory_budget=args.memory_bytes,
        )
    elif args.save:
        import time

        from .experiments.statements import prepare_engine

        rows = args.rows or 60_000
        start = time.perf_counter()
        engine = prepare_engine(rows, seed=args.seed)
        generated = time.perf_counter() - start
        cluster = None
        if args.cluster_by:
            fact = engine.cube("SSB").star.fact_table
            cluster = {fact: args.cluster_by}
        start = time.perf_counter()
        try:
            save_catalog(
                engine.catalog, args.save, format=args.format_,
                zone_rows=args.zone_rows or DEFAULT_ZONE_ROWS,
                cluster=cluster,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        saved = time.perf_counter() - start
        print(f"generated {rows:,} fact rows in {generated:.2f}s, "
              f"saved to {args.save} in {saved:.2f}s"
              + (f" (clustered by {args.cluster_by})" if args.cluster_by
                 else ""))
        if not args.statements:
            return 0
        session = AssessSession(
            engine, parallelism=args.parallelism,
            memory_budget=args.memory_bytes,
        )
    else:
        try:
            catalog = load_catalog(args.load, mmap=not args.no_mmap)
            engine = ssb_engine_from_catalog(catalog)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        mode = "materialised" if args.no_mmap else "memory-mapped"
        print(f"loaded {args.load} ({mode}); "
              f"cubes: {', '.join(engine.cube_names())}")
        session = AssessSession(
            engine, parallelism=args.parallelism,
            memory_budget=args.memory_bytes,
        )

    statements = list(args.statements)
    if not statements:
        from .experiments.statements import INTENTIONS, statement_text

        statements = [statement_text(name) for name in INTENTIONS]
    status = 0
    for text in statements:
        status = max(
            status,
            run_statement(session, text, args.plan, False, args.limit),
        )
    counters = engine.metrics.snapshot()["counters"]
    prunes = {key: value for key, value in sorted(counters.items())
              if key.startswith("engine.storage.")}
    if prunes:
        print("-- zone pruning: " + ", ".join(
            f"{key.split('.')[-1]}={value:,}" for key, value in prunes.items()
        ))
    spills = {key: value for key, value in sorted(counters.items())
              if key.startswith("engine.spill.")}
    if spills:
        print("-- spill tier: " + ", ".join(
            f"{key.split('.')[-1]}={value:,}" for key, value in spills.items()
        ))
    return status


def storage_main(argv=None) -> int:
    """The ``storage`` subcommand: describe a saved v2 column store.

    Reads only the manifest (no data file is opened) and prints, per
    column: the chosen encoding, logical dtype, plain vs stored bytes,
    the compression ratio, and the number of zone-map entries.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli storage",
        description="Report per-column encodings, compression ratios, and "
        "zone-map coverage of a saved catalog column store.",
    )
    parser.add_argument("path", help="a catalog directory written by "
                        "'repro cube --save' or save_catalog()")
    args = parser.parse_args(argv)

    from .engine.persist import storage_report

    try:
        report = storage_report(args.path)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(f"column store {report['path']} "
          f"(format v{report['version']}, zone_rows {report['zone_rows']:,})")
    grand_plain = grand_stored = 0
    for table in report["tables"]:
        clustered = table["clustered_by"]
        print(f"\ntable {table['table']} ({table['rows']:,} rows"
              + (f", clustered by {clustered}" if clustered else "") + ")")
        print(f"  {'column':<18}{'encoding':<10}{'dtype':<10}"
              f"{'plain':>12}{'stored':>12}{'ratio':>7}{'zones':>7}")
        for column in table["columns"]:
            plain, stored = column["plain_bytes"], column["stored_bytes"]
            grand_plain += plain
            grand_stored += stored
            ratio = plain / stored if stored else float("inf")
            print(f"  {column['column']:<18}{column['encoding']:<10}"
                  f"{column['dtype']:<10}{plain:>12,}{stored:>12,}"
                  f"{ratio:>6.1f}x{column['zones']:>7}")
    overall = grand_plain / grand_stored if grand_stored else float("inf")
    print(f"\ntotal: {grand_plain:,} plain bytes -> {grand_stored:,} stored "
          f"({overall:.1f}x compression)")
    return 0


def history_main(argv=None) -> int:
    """The ``history`` subcommand: aggregate the query log, run the watchdog.

    Reads every record of a telemetry directory (written by sessions
    with ``telemetry=`` / ``REPRO_TELEMETRY_DIR``), folds them into
    per-fingerprint statistics with exact p50/p95/p99 latency, compares
    against the stored baseline, and prints the ASSESS41x advisories —
    slow-query regression, cache-miss storm, spill pressure,
    parallel-fallback storm.  ``--write-baseline`` records the current
    aggregates as the new reference; ``--prometheus`` re-exports the
    logged history in Prometheus text format; ``--bench`` appends the
    BENCH_*.json trajectory.  Exit status is 0 unless ``--strict`` is
    given and advisories fired (CI-friendly either way).
    """
    import json
    import os

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli history",
        description="Aggregate the persistent query log per statement "
        "fingerprint, compare against the stored baseline, and emit "
        "ASSESS41x regression advisories (see docs/observability.md).",
    )
    parser.add_argument("directory", nargs="?", default=None,
                        help="telemetry directory (default: the "
                        "REPRO_TELEMETRY_DIR environment variable)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline file (default: "
                        "<directory>/baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="store the current aggregates as the new "
                        "baseline instead of comparing")
    parser.add_argument("--slow-factor", type=float, default=None,
                        help="p95 regression threshold vs baseline "
                        "(default: 3.0)")
    parser.add_argument("--min-runs", type=int, default=None,
                        help="minimum runs before a rule may fire "
                        "(default: 2)")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregates and advisories as JSON")
    parser.add_argument("--prometheus", action="store_true",
                        help="emit the logged history in Prometheus text "
                        "exposition format instead of the table")
    parser.add_argument("--bench", metavar="DIR", nargs="?", const=".",
                        default=None,
                        help="also summarize the BENCH_*.json trajectory "
                        "found in DIR (default: the current directory)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any advisory fires")
    args = parser.parse_args(argv)

    from .obs.qlog import QueryLogError, iter_records
    from .settings import Settings
    from .obs.watchdog import (
        BASELINE_FILENAME,
        DEFAULT_MIN_RUNS,
        DEFAULT_SLOW_FACTOR,
        aggregate_history,
        bench_trajectory,
        load_baseline,
        watch,
        write_baseline,
    )

    directory = args.directory or Settings.from_env().telemetry_dir
    if not directory:
        print("error: no telemetry directory (pass one or set "
              "REPRO_TELEMETRY_DIR)", file=sys.stderr)
        return 2
    try:
        records = list(iter_records(directory))
    except QueryLogError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    history = aggregate_history(records)
    baseline_path = args.baseline or os.path.join(directory, BASELINE_FILENAME)

    if args.write_baseline:
        document = write_baseline(history, baseline_path)
        print(f"baseline written to {baseline_path} "
              f"({len(document['fingerprints'])} fingerprints, "
              f"{len(records)} records)")
        return 0

    if args.prometheus:
        from .obs.export import to_prometheus
        from .obs.metrics import MetricsRegistry
        from .obs.timeseries import TelemetryHub

        registry = MetricsRegistry()
        hub = TelemetryHub()
        for record in records:
            counters = record.get("counters")
            if isinstance(counters, dict):
                for name, value in counters.items():
                    if isinstance(value, int) and value > 0:
                        registry.inc(name, value)
            if record.get("status") != "ok":
                continue
            ts = float(record.get("ts", 0.0))
            hub.observe_latency(
                "query.seconds", float(record.get("total_s", 0.0)), ts=ts
            )
            phases = record.get("phases")
            if isinstance(phases, dict):
                for step, seconds in phases.items():
                    hub.observe_latency(
                        f"phase.{step}.seconds", float(seconds), ts=ts
                    )
        sys.stdout.write(to_prometheus(registry, hub))
        return 0

    baseline = load_baseline(baseline_path)
    advisories = watch(
        history,
        baseline,
        slow_factor=args.slow_factor or DEFAULT_SLOW_FACTOR,
        min_runs=args.min_runs or DEFAULT_MIN_RUNS,
    )

    if args.json:
        payload = {
            "directory": str(directory),
            "records": len(records),
            "baseline": baseline_path if baseline is not None else None,
            "fingerprints": {
                fingerprint: stats.to_json()
                for fingerprint, stats in sorted(history.items())
            },
            "advisories": [
                {"code": advisory.code,
                 "fingerprint": advisory.fingerprint,
                 "message": advisory.message}
                for advisory in advisories
            ],
        }
        if args.bench is not None:
            payload["bench_trajectory"] = bench_trajectory(args.bench)
        print(json.dumps(payload, indent=2))
    else:
        print(render_history(history, records, baseline is not None))
        for advisory in advisories:
            print(advisory.render())
        if not advisories:
            print("watchdog: no advisories"
                  + ("" if baseline is not None
                     else " (no baseline yet — run --write-baseline)"))
        if args.bench is not None:
            print()
            print(render_bench_trajectory(bench_trajectory(args.bench)))
    return 1 if (args.strict and advisories) else 0


def render_history(history, records, has_baseline: bool) -> str:
    """The per-fingerprint history table ``repro history`` prints."""
    lines = [
        f"query history: {len(records)} records, "
        f"{len(history)} fingerprints"
        + (", baseline loaded" if has_baseline else ""),
        f"{'fingerprint':<18}{'statement':<34}{'runs':>5}{'err':>4}"
        f"{'p50 ms':>9}{'p95 ms':>9}{'p99 ms':>9}{'cache%':>7}"
        f"{'spill':>6}{'fb':>4}",
    ]
    for fingerprint in sorted(
        history, key=lambda fp: -history[fp].p95
    ):
        stats = history[fingerprint]
        label = f"{stats.cube}.{stats.measure} by " + ",".join(
            stats.group_by
        )
        if len(label) > 33:
            label = label[:30] + "..."
        lines.append(
            f"{fingerprint:<18}{label:<34}{stats.runs:>5}{stats.errors:>4}"
            f"{1000 * stats.p50:>9.1f}{1000 * stats.p95:>9.1f}"
            f"{1000 * stats.p99:>9.1f}"
            f"{100 * stats.cache_hit_rate:>6.0f}%"
            f"{stats.spill_runs:>6}{stats.fallback_runs:>4}"
        )
    return "\n".join(lines)


def render_bench_trajectory(rows) -> str:
    """The BENCH_*.json summary table of ``repro history --bench``."""
    lines = ["benchmark trajectory (BENCH_*.json):"]
    if not rows:
        return lines[0] + " none found"
    for row in rows:
        lines.append(f"  {row['file']}  {row['benchmark']}")
        for name, value in list(row["metrics"].items())[:6]:
            lines.append(f"    {name:<58}{value:>12.4f}")
        remaining = len(row["metrics"]) - 6
        if remaining > 0:
            lines.append(f"    ... plus {remaining} more metrics")
    return "\n".join(lines)


def lint_main(argv=None) -> int:
    """The ``lint`` subcommand: statically analyze statement files.

    Exits 1 when any error-severity diagnostic is found; warnings alone
    exit 0.  All diagnostics of every statement are printed in one run.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli lint",
        description="Statically analyze assess statements in files "
        "(.assess/.txt statement files, .py sources) or the bundled "
        "experiment workload.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                        "bundled experiment statements)")
    parser.add_argument("--cube", choices=("sales", "ssb", "all", "none"),
                        default="all",
                        help="demo cubes to resolve statements against "
                        "(default: all; 'none' skips schema checks, for "
                        "sources that register their own cubes)")
    parser.add_argument("--rows", type=int, default=2000,
                        help="fact rows for the demo cubes (default: 2000)")
    parser.add_argument("--permissive", action="store_true",
                        help="report unknown cubes as notes, not errors "
                        "(for sources that register their own cubes)")
    parser.add_argument("--bundled", action="store_true",
                        help="also lint the bundled experiment statements")
    parser.add_argument("--verbose", action="store_true",
                        help="list clean statements too")
    parser.add_argument("--workload", action="store_true",
                        help="whole-script workload analysis: interpret "
                        "each file as one session (directives, cache "
                        "derivability, fused-scan sharing, exactness and "
                        "cardinality verdicts — ASSESS5xx)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text; json emits the "
                        "stable machine-readable schema)")
    args = parser.parse_args(argv)

    from .analysis import AnalysisContext, lint_paths, lint_statements, render_report
    from .experiments.statements import STATEMENTS, prepare_engine

    if args.cube == "none":
        context = AnalysisContext(schemas=None)
    else:
        engines = []
        if args.cube in ("sales", "all"):
            engines.append(sales_engine(n_rows=args.rows))
        if args.cube in ("ssb", "all"):
            engines.append(prepare_engine(lineorder_rows=args.rows))
        context = AnalysisContext.for_engines(
            engines, strict=not args.permissive
        )

    if args.workload:
        return _lint_workloads(args, context)

    try:
        report = lint_paths(args.paths, context)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.bundled or not args.paths:
        report.results.extend(
            lint_statements(
                [text.strip() for text in STATEMENTS.values()],
                context,
                "experiments.statements",
            )
        )
    if args.format == "json":
        import json

        from .analysis import WORKLOAD_SCHEMA_VERSION, report_results_json

        print(json.dumps({
            "schema_version": WORKLOAD_SCHEMA_VERSION,
            "mode": "statement",
            "results": report_results_json(report.results),
        }, indent=2))
    else:
        print(render_report(report, verbose=args.verbose))
    return 1 if report.has_errors else 0


def _lint_workloads(args, context) -> int:
    """``repro lint --workload``: per-file whole-script analysis."""
    from pathlib import Path

    from .analysis import WORKLOAD_SCHEMA_VERSION, analyze_workload

    files = []
    for entry in args.paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(
                child for child in sorted(entry.rglob("*"))
                if child.suffix in (".assess", ".txt") and child.is_file()
            )
        else:
            files.append(entry)
    if not files:
        print("error: --workload needs statement files", file=sys.stderr)
        return 2

    reports = []
    for path in files:
        try:
            text = path.read_text()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        reports.append(
            analyze_workload(text, context=context, origin=str(path))
        )

    if args.format == "json":
        import json

        print(json.dumps({
            "schema_version": WORKLOAD_SCHEMA_VERSION,
            "mode": "workload",
            "workloads": [report.to_json() for report in reports],
        }, indent=2))
    else:
        for report in reports:
            print(report.render(verbose=args.verbose))
            print()
    return 1 if any(report.has_errors for report in reports) else 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "batch":
        return batch_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "cube":
        return cube_main(argv[1:])
    if argv and argv[0] == "storage":
        return storage_main(argv[1:])
    if argv and argv[0] == "history":
        return history_main(argv[1:])
    if argv and argv[0] == "serve":
        from .server import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Run assess statements against a bundled demo cube.",
    )
    parser.add_argument("statement", nargs="?", default="",
                        help="an assess statement (omit for a REPL)")
    parser.add_argument("--cube", choices=("sales", "ssb"), default="sales",
                        help="which demo cube to build (default: sales)")
    parser.add_argument("--rows", type=int, default=None,
                        help="fact rows to generate")
    parser.add_argument("--plan", default="best",
                        choices=("NP", "JOP", "POP", "best"),
                        help="execution plan (default: best)")
    parser.add_argument("--explain", action="store_true",
                        help="print the plan tree and pushed SQL")
    parser.add_argument("--limit", type=int, default=20,
                        help="max result rows to print (default: 20)")
    add_parallelism_flag(parser)
    add_memory_flag(parser)
    args = parser.parse_args(argv)

    session = build_session(args.cube, args.rows, parallelism=args.parallelism,
                            memory_budget=args.memory_bytes)
    if args.statement.strip():
        return run_statement(session, args.statement, args.plan,
                             args.explain, args.limit)
    return repl(session, args.plan, args.explain, args.limit)


if __name__ == "__main__":
    sys.exit(main())

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

Every command is one entry of :data:`COMMANDS`: the options it takes and
the handler that runs on the parsed arguments.  Every command builds its
demo cube with :func:`~repro.experiments.statements.demo_engine`, reads
its statements with :func:`read_statements`, and leaves errors to
:func:`main`: a :class:`ReproError` exits 1, an ``OSError`` on a file
the user named exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .api import AssessSession
from .core.errors import ReproError
from .engine.columns import DEFAULT_ZONE_ROWS
from .experiments.statements import (
    DEMO_DEFAULTS,
    INTENTIONS,
    STATEMENTS,
    demo_engine,
    statement_text,
)
from .obs.watchdog import DEFAULT_MIN_RUNS, DEFAULT_SLOW_FACTOR


def build_session(
    cube: str, rows: Optional[int], parallelism: Optional[int] = None,
    memory_budget: Optional[int] = None,
) -> AssessSession:
    """A session over one of the bundled demo cubes (``sales`` or ``ssb``)."""
    return AssessSession(
        demo_engine(cube, rows), parallelism=parallelism,
        memory_budget=memory_budget,
    )


# Demo workload for the sales cube; the ssb cube runs the four experiment
# intentions instead.
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


def read_statements(items: Sequence[str], cube: str) -> List[str]:
    """The statements a command runs.

    An item that names an existing file yields the file's statements (same
    format as ``repro lint``: ``;``- or ``with``-separated, ``#``/``--``
    comments ignored); any other item is statement text.  With no items,
    the bundled workload of ``cube``.
    """
    from .analysis import extract_statements

    if not items:
        if cube == "ssb":
            return [statement_text(name) for name in INTENTIONS]
        return list(SALES_CACHE_WORKLOAD)
    statements: List[str] = []
    for item in items:
        if os.path.exists(item):
            with open(item) as handle:
                statements.extend(extract_statements(handle.read()))
        else:
            statements.append(item)
    return statements


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


def run(args) -> int:
    """Bare ``python -m repro.cli``: one statement, or a REPL without one."""
    session = build_session(args.cube, args.rows, parallelism=args.parallelism,
                            memory_budget=args.memory_bytes)
    if args.statement.strip():
        return run_statement(session, args.statement, args.plan,
                             args.explain, args.limit)
    return repl(session, args.plan, args.explain, args.limit)


def render_cache_stats(stats) -> str:
    """The ``repro cache`` stats table (also the REPL's ``cache`` command)."""
    lines = ["result cache:"]
    for key in ("hits", "misses", "derivations", "evictions",
                "invalidations", "stores", "entries", "cached_cells",
                "cached_bytes", "cell_budget"):
        lines.append(f"  {key:<15}{stats[key]:>14,}")
    lines.append(f"  {'enabled':<15}{'yes' if stats['enabled'] else 'no':>14}")
    return "\n".join(lines)


def cache(args) -> int:
    """``repro cache``: run the bundled workload repeatedly, show stats.

    The first pass executes cold and populates the cache; later passes
    are served from it.  The printed per-pass times and the hit/derive
    counters make the reuse visible; see ``docs/performance.md``.
    """
    statements = read_statements((), args.cube)
    session = build_session(args.cube, args.rows, parallelism=args.parallelism)
    for number in range(1, max(args.passes, 1) + 1):
        start = time.perf_counter()
        for text in statements:
            session.assess(text, plan=args.plan)
        elapsed = time.perf_counter() - start
        label = "cold" if number == 1 else "warm"
        print(f"pass {number} ({label}): {len(statements)} statements "
              f"in {1000 * elapsed:.1f} ms")
    print()
    print(render_cache_stats(session.cache_stats()))
    return 0


def batch(args) -> int:
    """``repro batch``: run a statement workload as one batch.

    The statements are checked with the batch diagnostics (ASSESS3xx) and
    executed through :meth:`AssessSession.execute_many`.  Prints
    per-statement timings and the sharing report; ``--compare``
    additionally runs the statements one by one on a fresh session and
    verifies bit-identical results.
    """
    from .analysis import batch_diagnostics
    from .batch import results_identical

    statements = read_statements(args.paths, args.cube)
    for diagnostic in batch_diagnostics(statements).sorted():
        print(diagnostic.render())
    if not statements:
        return 0

    session = build_session(args.cube, args.rows, parallelism=args.parallelism)
    start = time.perf_counter()
    executed = session.execute_many(statements, plan=args.plan)
    batch_elapsed = time.perf_counter() - start
    for number, (result, seconds) in enumerate(
        zip(executed.results, executed.seconds), start=1
    ):
        print(f"statement {number:>2}: {len(result):>6} cells, "
              f"plan {result.plan_name:<4} {1000 * seconds:>8.1f} ms")
    print()
    print(executed.report.render())
    print(f"batch wall time     {1000 * batch_elapsed:.1f} ms")
    if not args.compare:
        return 0

    session = build_session(args.cube, args.rows, parallelism=args.parallelism)
    start = time.perf_counter()
    sequential = [session.assess(text, plan=args.plan) for text in statements]
    sequential_elapsed = time.perf_counter() - start
    identical = all(
        results_identical(ours, theirs)
        for ours, theirs in zip(executed.results, sequential)
    )
    print(f"sequential          {1000 * sequential_elapsed:.1f} ms "
          f"({sequential_elapsed / max(batch_elapsed, 1e-9):.2f}x the batch)")
    print(f"bit-identical       {'yes' if identical else 'NO'}")
    return 0 if identical else 1


def trace(args) -> int:
    """``repro trace``: EXPLAIN ANALYZE for statements or batches.

    Executes the statements with the tracer installed and prints the plan
    tree annotated with actual rows, per-operator timings, cost-model
    estimates, and cache/fusion provenance (see ``docs/observability.md``).
    Several statements execute as one shared batch, so the annotations
    show CSE and fused-scan reuse.  ``--json`` writes the full
    machine-readable trace document (schema version 1); ``--format=chrome``
    emits Chrome ``trace_event`` JSON for ``chrome://tracing`` / Perfetto
    instead of the tree.
    """
    import json

    from .obs.analyze import trace_diagnostics

    statements = read_statements(args.statements, args.cube)
    session = build_session(args.cube, args.rows, parallelism=args.parallelism)
    bag = trace_diagnostics(session, statements)
    for diagnostic in bag.sorted():
        print(diagnostic.render(), file=sys.stderr)
    if bag.has_errors:
        return 1

    report = session.explain_analyze(statements, plan=args.plan)
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


def cube(args) -> int:
    """``repro cube``: save/load SSB column stores and query them.

    ``--save PATH`` generates the SSB catalog (with the bundled BUDGET
    cube, so the store answers all four experiment intentions), compresses
    it into the v2 column-store format with zone maps, and writes it to
    PATH; ``--scale SF`` builds it out of core instead.  ``--load PATH``
    memory-maps a saved store back and runs the given statements (default:
    the four intentions) against it, printing the zone-pruning counters
    afterwards.  See ``docs/performance.md``.
    """
    from .engine.persist import save_catalog

    if args.save and args.scale is not None:
        from .datagen.ssb import build_ssb_store

        rows = int(round(args.scale * 6_000_000))
        start = time.perf_counter()
        build_ssb_store(
            args.save, rows, seed=args.seed, zone_rows=args.zone_rows,
            partition_rows=args.partition_rows,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
        built = time.perf_counter() - start
        print(f"built SF{args.scale:g} store ({rows:,} fact rows, "
              f"clustered by lo_datekey) at {args.save} in {built:.1f}s")
        if not args.statements:
            return 0
        # Query the store we just wrote, out of core — not the generator's
        # in-RAM tables (they never existed as a whole).
        engine = demo_engine("ssb", store=args.save)
    elif args.save:
        start = time.perf_counter()
        engine = demo_engine("ssb", args.rows, seed=args.seed)
        generated = time.perf_counter() - start
        fact = engine.cube("SSB").star.fact_table
        cluster = {fact: args.cluster_by} if args.cluster_by else None
        start = time.perf_counter()
        save_catalog(engine.catalog, args.save, format=args.format_,
                     zone_rows=args.zone_rows, cluster=cluster)
        saved = time.perf_counter() - start
        print(f"generated {len(engine.catalog.table(fact)):,} fact rows in "
              f"{generated:.2f}s, saved to {args.save} in {saved:.2f}s"
              + (f" (clustered by {args.cluster_by})" if args.cluster_by
                 else ""))
        if not args.statements:
            return 0
    else:
        engine = demo_engine("ssb", store=args.load, mmap=not args.no_mmap)
        mode = "materialised" if args.no_mmap else "memory-mapped"
        print(f"loaded {args.load} ({mode}); "
              f"cubes: {', '.join(engine.cube_names())}")

    session = AssessSession(engine, parallelism=args.parallelism,
                            memory_budget=args.memory_bytes)
    status = 0
    for text in read_statements(args.statements, "ssb"):
        status = max(
            status, run_statement(session, text, args.plan, False, args.limit)
        )
    counters = engine.metrics.snapshot()["counters"]
    for prefix, title in (("engine.storage.", "zone pruning"),
                          ("engine.spill.", "spill tier")):
        found = {key: value for key, value in sorted(counters.items())
                 if key.startswith(prefix)}
        if found:
            print(f"-- {title}: " + ", ".join(
                f"{key.split('.')[-1]}={value:,}" for key, value in found.items()
            ))
    return status


def storage(args) -> int:
    """``repro storage``: describe a saved v2 column store.

    Reads only the manifest (no data file is opened) and prints, per
    column: the chosen encoding, logical dtype, plain vs stored bytes,
    the compression ratio, and the number of zone-map entries.
    """
    from .engine.persist import storage_report

    report = storage_report(args.path)
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


def history(args) -> int:
    """``repro history``: aggregate the query log, run the watchdog.

    Reads every record of a telemetry directory (written by sessions
    with ``telemetry=`` / ``REPRO_TELEMETRY_DIR``), folds them into
    per-fingerprint statistics with exact p50/p95/p99 latency, compares
    against the stored baseline, and prints the ASSESS41x advisories —
    slow-query regression, cache-miss storm, spill pressure,
    parallel-fallback storm.  ``--write-baseline`` records the current
    aggregates as the new reference; ``--prometheus`` re-exports the
    logged history in Prometheus text format.  Exit status is 0 unless
    ``--strict`` is given and advisories fired (CI-friendly either way).
    """
    import json

    from .obs.qlog import QueryLogError, iter_records
    from .obs.watchdog import (
        BASELINE_FILENAME,
        aggregate_history,
        load_baseline,
        watch,
        write_baseline,
    )
    from .settings import Settings

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
    aggregates = aggregate_history(records)
    baseline_path = args.baseline or os.path.join(directory, BASELINE_FILENAME)

    if args.write_baseline:
        document = write_baseline(aggregates, baseline_path)
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
    advisories = watch(aggregates, baseline, slow_factor=args.slow_factor,
                       min_runs=args.min_runs)
    if args.json:
        print(json.dumps({
            "directory": str(directory),
            "records": len(records),
            "baseline": baseline_path if baseline is not None else None,
            "fingerprints": {
                fingerprint: stats.to_json()
                for fingerprint, stats in sorted(aggregates.items())
            },
            "advisories": [
                {"code": advisory.code,
                 "fingerprint": advisory.fingerprint,
                 "message": advisory.message}
                for advisory in advisories
            ],
        }, indent=2))
    else:
        print(render_history(aggregates, records, baseline is not None))
        for advisory in advisories:
            print(advisory.render())
        if not advisories:
            print("watchdog: no advisories"
                  + ("" if baseline is not None
                     else " (no baseline yet — run --write-baseline)"))
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


def lint(args) -> int:
    """``repro lint``: statically analyze statement files.

    Exits 1 when any error-severity diagnostic is found; warnings alone
    exit 0.  All diagnostics of every statement are printed in one run.
    """
    from .analysis import AnalysisContext, lint_paths, lint_statements, render_report

    if args.cube == "none":
        context = AnalysisContext(schemas=None)
    else:
        names = ("sales", "ssb") if args.cube == "all" else (args.cube,)
        context = AnalysisContext.for_engines(
            [demo_engine(name, args.rows) for name in names],
            strict=not args.permissive,
        )

    if args.workload:
        return _lint_workloads(args, context)

    report = lint_paths(args.paths, context)
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

    reports = [
        analyze_workload(path.read_text(), context=context, origin=str(path))
        for path in files
    ]
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


def serve(args) -> int:
    """``repro serve``: the multi-tenant HTTP server, imported only when
    this command runs so the others do not load ``http.server``."""
    from .server.app import serve

    return serve(args)


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------
Option = Callable[[argparse.ArgumentParser], object]


def option(*names: str, **settings) -> Option:
    """One ``add_argument`` call, made when a command's parser is built."""
    return lambda parser: parser.add_argument(*names, **settings)


def one_of(*options: Option) -> Option:
    """Options of which exactly one must be given."""
    def add(parser):
        group = parser.add_mutually_exclusive_group(required=True)
        for add_option in options:
            add_option(group)
    return add


# The option groups every command that takes the option shares; each
# command passes its own default and choices.
PLANS = ("NP", "JOP", "POP", "best", "auto")


def cube_option(default: str, choices: Tuple[str, ...] = ("sales", "ssb"),
                help: str = "demo cube to run against") -> Option:
    return option("--cube", choices=choices, default=default,
                  help=f"{help} (default: {default})")


def rows_option(default: Optional[int] = None) -> Option:
    sizes = ", ".join(f"{rows:,} for {name}"
                      for name, (rows, _) in DEMO_DEFAULTS.items())
    return option("--rows", type=int, default=default,
                  help=f"fact rows to generate (default: {default or sizes})")


def plan_option(choices: Tuple[str, ...] = PLANS) -> Option:
    return option("--plan", default="best", choices=choices,
                  help="execution plan (default: best; auto uses the "
                  "batch-aware cost model)")


PARALLELISM = option(
    "--parallelism", type=int, default=None, metavar="N",
    help="worker threads for morsel-driven scans (results are "
    "bit-identical either way).  Default: serial, or "
    "REPRO_PARALLELISM when no engine setting is given "
    "(docs/performance.md, Configuration)",
)
MEMORY = option(
    "--memory-bytes", type=int, default=None,
    help="memory budget for aggregation state (bytes); scans whose "
    "grouping state would exceed it run through the spill-to-disk tier "
    "(results are bit-identical).  Default: unbounded, or "
    "REPRO_MEMORY_BYTES when no engine setting is given "
    "(docs/performance.md, Configuration)",
)


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    description: str
    options: Tuple[Option, ...]


RUN = Command(run, "Run assess statements against a bundled demo cube.", (
    option("statement", nargs="?", default="",
           help="an assess statement (omit for a REPL)"),
    cube_option("sales"), rows_option(), plan_option(PLANS[:4]),
    option("--explain", action="store_true",
           help="print the plan tree and pushed SQL"),
    option("--limit", type=int, default=20,
           help="max result rows to print (default: 20)"),
    PARALLELISM, MEMORY,
))

COMMANDS = {
    "lint": Command(lint, (
        "Statically analyze assess statements in files (.assess/.txt "
        "statement files, .py sources) or the bundled experiment workload."
    ), (
        option("paths", nargs="*", help="files or directories to lint "
               "(default: the bundled experiment statements)"),
        cube_option("all", ("sales", "ssb", "all", "none"),
                    "demo cubes to resolve statements against ('none' skips "
                    "schema checks, for sources that register their own "
                    "cubes)"),
        rows_option(2000),
        option("--permissive", action="store_true",
               help="report unknown cubes as notes, not errors (for sources "
               "that register their own cubes)"),
        option("--bundled", action="store_true",
               help="also lint the bundled experiment statements"),
        option("--verbose", action="store_true",
               help="list clean statements too"),
        option("--workload", action="store_true",
               help="whole-script workload analysis: interpret each file as "
               "one session (directives, cache derivability, fused-scan "
               "sharing, exactness and cardinality verdicts — ASSESS5xx)"),
        option("--format", choices=("text", "json"), default="text",
               help="output format (default: text; json emits the stable "
               "machine-readable schema)"),
    )),
    "cache": Command(cache, (
        "Demonstrate the semantic result cache: run a bundled workload "
        "repeatedly and print per-pass times plus cache statistics."
    ), (
        cube_option("ssb"), rows_option(), plan_option(),
        option("--passes", type=int, default=2,
               help="workload repetitions (default: 2)"),
        PARALLELISM,
    )),
    "batch": Command(batch, (
        "Execute a multi-statement workload as one batch with plan merging "
        "and fused shared scans (see docs/performance.md)."
    ), (
        option("paths", nargs="*", help="statement files or statement texts "
               "(default: the bundled workload of --cube)"),
        cube_option("ssb"), rows_option(), plan_option(),
        option("--compare", action="store_true",
               help="also run sequentially on a fresh session and verify "
               "bit-identical results"),
        PARALLELISM,
    )),
    "trace": Command(trace, (
        "Execute assess statements with tracing enabled and print the plan "
        "annotated with actual rows, timings, and estimated-vs-actual cost "
        "(EXPLAIN ANALYZE)."
    ), (
        option("statements", nargs="*", help="statement texts or statement "
               "files (default: the bundled workload of --cube)"),
        cube_option("ssb"), rows_option(), plan_option(),
        option("--format", choices=("tree", "chrome"), default="tree",
               dest="format_", help="stdout format: annotated tree "
               "(default) or Chrome trace_event JSON"),
        option("--json", metavar="PATH", default=None,
               help="also write the trace document (schema v1, estimates + "
               "actuals + span tree) to PATH ('-' for stdout)"),
        PARALLELISM,
    )),
    "cube": Command(cube, (
        "Save the SSB demo catalog as a compressed column store, or load one "
        "and run assess statements against it out-of-core (memory-mapped, "
        "with zone-map pruning)."
    ), (
        option("statements", nargs="*", help="statement texts or statement "
               "files to run after --save/--load (default with --load: the "
               "four bundled experiment intentions)"),
        rows_option(),
        option("--scale", type=float, default=None, metavar="SF",
               help="SSB scale factor for --save (fact rows = SF x "
               "6,000,000; e.g. 1, 10, 100).  Builds the store out of core, "
               "partition by partition, so SF100 never materialises the "
               "fact in RAM; overrides --rows"),
        option("--partition-rows", type=int, default=None,
               help="fact rows per store partition for --scale (default: "
               "8388608; rounded to a multiple of --zone-rows)"),
        MEMORY,
        option("--seed", type=int, default=7,
               help="generator seed (default: 7)"),
        one_of(
            option("--save", metavar="PATH", default=None,
                   help="write the generated catalog to PATH"),
            option("--load", metavar="PATH", default=None,
                   help="load a saved catalog from PATH instead of "
                   "generating one"),
        ),
        option("--format", choices=("auto", "v1", "v2"), default="auto",
               dest="format_", help="store format for --save (default: auto "
               "— v2 column store unless PATH ends in .npz)"),
        option("--cluster-by", metavar="COLUMN", default=None,
               help="sort the fact table by this column at save time so zone "
               "maps turn selective predicates into skipped morsels (e.g. "
               "lo_datekey)"),
        option("--zone-rows", type=int, default=DEFAULT_ZONE_ROWS,
               help="rows per zone map entry (default: the morsel size, "
               f"{DEFAULT_ZONE_ROWS})"),
        option("--no-mmap", action="store_true",
               help="materialise arrays in RAM on --load instead of "
               "memory-mapping them"),
        plan_option(),
        option("--limit", type=int, default=5,
               help="max result rows to print per statement (default: 5)"),
        PARALLELISM,
    )),
    "storage": Command(storage, (
        "Report per-column encodings, compression ratios, and zone-map "
        "coverage of a saved catalog column store."
    ), (
        option("path", help="a catalog directory written by 'repro cube "
               "--save' or save_catalog()"),
    )),
    "history": Command(history, (
        "Aggregate the persistent query log per statement fingerprint, "
        "compare against the stored baseline, and emit ASSESS41x regression "
        "advisories (see docs/observability.md)."
    ), (
        option("directory", nargs="?", default=None,
               help="telemetry directory (default: the REPRO_TELEMETRY_DIR "
               "environment variable)"),
        option("--baseline", metavar="PATH", default=None,
               help="baseline file (default: <directory>/baseline.json)"),
        option("--write-baseline", action="store_true",
               help="store the current aggregates as the new baseline "
               "instead of comparing"),
        option("--slow-factor", type=float, default=DEFAULT_SLOW_FACTOR,
               help="p95 regression threshold vs baseline (default: "
               f"{DEFAULT_SLOW_FACTOR})"),
        option("--min-runs", type=int, default=DEFAULT_MIN_RUNS,
               help="minimum runs before a rule may fire (default: "
               f"{DEFAULT_MIN_RUNS})"),
        option("--json", action="store_true",
               help="emit the aggregates and advisories as JSON"),
        option("--prometheus", action="store_true",
               help="emit the logged history in Prometheus text exposition "
               "format instead of the table"),
        option("--strict", action="store_true",
               help="exit 1 when any advisory fires"),
    )),
    "serve": Command(serve, (
        "Serve assess statements to concurrent tenants over HTTP/JSON with "
        "admission control (see docs/server.md)."
    ), (
        option("--config", metavar="PATH", default=None,
               help="server config file (JSON; TOML on py3.11+); overrides "
               "the quick flags below"),
        option("--host", default=None,
               help="bind address (default: 127.0.0.1)"),
        option("--port", type=int, default=None,
               help="bind port (default: 8787; 0 = ephemeral)"),
        option("--tenants", default="default",
               help="comma-separated tenant ids for the quick config "
               "(default: one tenant named 'default')"),
        cube_option("ssb", help="demo cube every quick tenant serves"),
        rows_option(),
        option("--store", metavar="PATH", default=None,
               help="serve a saved column store instead of a generated demo "
               "cube"),
        option("--pool-size", type=int, default=2,
               help="sessions per tenant (default: 2)"),
        option("--max-queue", type=int, default=None,
               help="queued requests per tenant before 429 (default: 8)"),
        option("--deadline", type=float, default=None, metavar="S",
               help="default per-request deadline in seconds (default: 30)"),
        option("--telemetry-dir", metavar="DIR", default=None,
               help="per-tenant query logs under DIR/<tenant>"),
        PARALLELISM, MEMORY,
        option("--check", action="store_true",
               help="build the tenants, print the endpoint map, and exit "
               "without serving"),
    )),
}


def parse(argv: Sequence[str]) -> Tuple[Command, argparse.Namespace]:
    """The command ``argv`` names (bare mode when it names none) and its
    parsed arguments; nothing runs."""
    name = argv[0] if argv and argv[0] in COMMANDS else None
    command = COMMANDS[name] if name else RUN
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli" + (f" {name}" if name else ""),
        description=command.description,
    )
    for add_option in command.options:
        add_option(parser)
    return command, parser.parse_args(argv[1:] if name else argv)


def main(argv=None) -> int:
    command, args = parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return command.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def cache_main(argv=None) -> int:
    """``main`` for the ``cache`` subcommand alone."""
    return main(["cache", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())

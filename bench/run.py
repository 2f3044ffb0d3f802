#!/usr/bin/env python3
"""The one assess benchmark: ``python3 bench/run.py --workload NAME ...``.

Prints every metric of ``BENCHMARK.json`` by name and unit, verifies
every output against an NP reference, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the vocabulary (workloads, metrics, layers).

Process layout — nothing measured shares an interpreter with anything
else:

* this process only orchestrates: it starts one fresh *worker* per
  set-up sample and times ``spawn -> READY`` (interpreter start,
  imports, data, engine, session or server, warm-up pass);
* the last worker goes on to run the timed phase and reports;
* served workloads' workers start ``python -m repro serve`` as their
  own subprocess, so client and server never share a GIL.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402 - needs the path set up above

SETUP_SAMPLES = 3
WORKER_LIMIT_S = 170.0
"""A worker still running after this long is killed and the run fails."""
SMOKE_SECONDS = 0.2
SMOKE_MIN_OPS = 20

END_TO_END = {
    # name: (unit, better, bound)
    "p50_ms": ("ms", "lower", 0.20),
    "p95_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("op/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}


# ----------------------------------------------------------------------
# Worker: one set-up, then (unless --setup-only) one timed phase
# ----------------------------------------------------------------------
def _set_up(args, workload):
    """Everything ``setup_s`` covers; returns (session, server, breakdown)."""
    import harness

    started = harness.clock()
    if workload.served:
        server = harness.Server(args.rows, args.seed)
        try:
            server.wait_healthy()
            ready = harness.clock()
            harness.warm_up_served(server, workload)
        except BaseException:
            server.stop()
            raise
        return None, server, {
            "setup.server_ready_s": ready - started,
            "setup.warmup_s": harness.clock() - ready,
        }
    session, breakdown = harness.setup_session(args.rows, args.seed)
    warm = harness.clock()
    harness.warm_up_inprocess(session, workload)
    breakdown["setup.warmup_s"] = harness.clock() - warm
    return session, None, breakdown


def _measure_served(args, workload, server, session, seconds, min_ops):
    """The served timed phase, judged against the direct ``session``."""
    import harness
    import verify

    trees = verify.reference_trees(session, workload.statements())
    before = harness.served_counters(server.stats())
    served = harness.run_served(server, workload, trees, seconds, min_ops)
    harness.counter_delta(
        before, harness.served_counters(server.stats()), served.counters
    )
    server.stop()
    workloads.check_zero_scans(workload, served.counters.get("engine.scans", 0))
    if args.rows == workloads.ROWS:  # the bands are stated for the full cube
        workloads.check_cell_band(workload, served.cells)
    logged = served.counters.get("obs.qlog_records", 0)
    if logged != served.attempted:
        raise workloads.WorkloadError(
            f"{workload.name}: the query log holds {logged} records for "
            f"{served.attempted} served requests"
        )
    return served


def _measure(args, workload, session, server, setup) -> Dict[str, object]:
    """The timed phase (and, with --trace 1, the replays); the RESULT document."""
    import harness
    import stepwise
    import verify

    share = 0.5 if args.trace else 1.0
    seconds, min_ops = args.seconds * share, int(args.min_ops * share)
    served = None
    phases = []  # in-process (samples, observed) pairs, settled at the end
    if workload.served:
        session, _ = harness.setup_session(args.rows, args.seed)
        workloads.check_lint(session, workload)
        measured = served = _measure_served(
            args, workload, server, session, seconds, min_ops
        )
        peak_rss_mb = server.peak_rss_mb
    else:
        from repro.obs.rss import peak_rss_bytes

        workloads.check_lint(session, workload)
        measured, observed = harness.run_inprocess(session, workload, seconds, min_ops)
        peak_rss_mb = peak_rss_bytes() / 1e6
        phases.append((measured, observed))

    if args.trace:
        untraced = measured
        if workload.served:
            # Replay the same statements in-process, warm: once the way
            # the server runs them, once step by step.
            harness.warm_up_inprocess(session, workload)
            seconds, min_ops = seconds / 2, min_ops // 2
            untraced, observed = harness.run_inprocess(
                session, workload, seconds, min_ops, stepwise.plain_served_op
            )
            phases.append((untraced, observed))
        recorder = stepwise.Recorder()
        stepper = stepwise.Stepper(recorder, served=workload.served)
        traced, observed = harness.run_inprocess(
            session, workload, seconds, min_ops, stepper
        )
        phases.append((traced, observed))
    if phases:
        # NP references only now: computing them earlier would count
        # toward the measured process's peak RSS and clear its cache.
        expected = verify.reference_digests(session, workload.statements())
        for samples, observed in phases:
            harness.settle_inprocess(samples, observed, expected)
            workloads.check_zero_scans(
                workload, samples.counters.get("engine.scans", 0)
            )

    everything = ([served] if served else []) + [samples for samples, _ in phases]
    result: Dict[str, object] = {
        "attempted": sum(s.attempted for s in everything),
        "failed": sum(s.failed for s in everything),
        "samples": len(measured.latencies),
        "errors": [message for s in everything for message in s.errors],
        "cells_min": min(measured.cells.values(), default=0),
        "cells_max": max(measured.cells.values(), default=0),
    }
    if args.trace:
        result["metrics"] = stepwise.ledger(
            workload, setup, untraced, traced, recorder, stepper, served
        )
        recorder.write(harness.OUT_DIR / f"trace-{workload.name}.json")
    else:
        result["metrics"] = {
            "p50_ms": measured.p50_ms(),
            "p95_ms": measured.p95_ms(),
            "ops_per_s": measured.ops_per_s(),
            "peak_rss_mb": peak_rss_mb,
        }
    return result


def worker(args) -> int:
    workload = workloads.build(args.workload, args.seed)
    session, server, setup = _set_up(args, workload)
    try:
        print("READY", flush=True)
        if not args.setup_only:
            result = _measure(args, workload, session, server, setup)
            print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        if server is not None:
            server.stop()


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def provenance(args, names: List[str]) -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        ram_mb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    except (ValueError, OSError):
        ram_mb = 0
    return {
        "commit": commit,
        "cpus": os.cpu_count(),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rows": args.rows,
        "seed": args.seed,
        "seconds": args.seconds,
        "min_timed_ops": args.min_ops,
        "clients": {name: workloads.build(name, args.seed).clients for name in names},
        "loop": "closed",
        "keep_alive": True,
        "setup_samples": 1 if (args.smoke or args.trace) else SETUP_SAMPLES,
        "traced": bool(args.trace),
    }


def _run_worker(args, name: str, setup_only: bool):
    """One worker, start to end: (seconds from spawn to READY, RESULT or None)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--rows", str(args.rows), "--min-ops", str(args.min_ops),
    ]
    if setup_only:
        command.append("--setup-only")
    setup_s = result = None
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(WORKER_LIMIT_S, process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            if line.startswith("READY"):
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        process.stdout.close()
        process.wait()
        watchdog.cancel()
    if process.returncode != 0 or setup_s is None or (result is None) != setup_only:
        raise RuntimeError(f"{name}: worker exited with code {process.returncode}")
    return setup_s, result


def run_workload(args, name: str) -> Dict[str, object]:
    """All set-up samples and the timed phase of one workload."""
    samples = 1 if (args.smoke or args.trace) else SETUP_SAMPLES
    setups: List[float] = []
    result = None
    for index in range(samples):
        setup_s, result = _run_worker(args, name, setup_only=index < samples - 1)
        setups.append(setup_s)
    assert result is not None
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["correct"] = result["failed"] == 0
    result["failed_share"] = result["failed"] / max(result["attempted"], 1)
    return result


def contract_line(args, result: Dict[str, object]) -> Dict[str, object]:
    import stepwise

    units = (
        {name: spec[0] for name, spec in stepwise.LEDGER.items()}
        if args.trace else {name: spec[0] for name, spec in END_TO_END.items()}
    )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def check_schema(line: Dict[str, object], traced: bool) -> None:
    """The output names and units are exactly those BENCHMARK.json lists."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if traced else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    got = {name: entry["unit"] for name, entry in line["metrics"].items()}
    if got != expected:
        raise SystemExit(
            f"output does not match BENCHMARK.json: "
            f"{sorted(set(got) ^ set(expected)) or 'units differ'}"
        )
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"unexpected keys in the result line: {sorted(line)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds of the timed phase "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{workloads.SMOKE_ROWS} rows, ~{SMOKE_MIN_OPS} ops, "
                        "both the timed and the traced run, output schema checked")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result document (with provenance)")
    parser.add_argument("--rows", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)

    if args.seconds is None:
        args.seconds = (
            SMOKE_SECONDS if args.smoke
            else float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
        )
    if args.rows is None:
        args.rows = workloads.SMOKE_ROWS if args.smoke else workloads.ROWS
    if args.min_ops is None:
        args.min_ops = SMOKE_MIN_OPS if args.smoke else workloads.MIN_TIMED_OPS
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]
    document = {"provenance": provenance(args, names), "workloads": {}}
    info = document["provenance"]
    for name, clients in info["clients"].items():
        if clients > info["cpus"]:
            print(f"error: {name} needs {clients} client threads but the host "
                  f"has {info['cpus']} cpus", file=sys.stderr)
            return 2
    print("# " + json.dumps(info))

    status = 0
    for name in names:
        for traced in ((0, 1) if args.smoke else (args.trace,)):
            args.trace = traced
            try:
                result = run_workload(args, name)
            except RuntimeError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            line = contract_line(args, result)
            if args.smoke:
                check_schema(line, bool(traced))
            key = name + (".traced" if traced and args.smoke else "")
            document["workloads"][key] = result
            print(f"## {name}{' (traced)' if traced else ''}: "
                  f"{result['attempted']} ops attempted, {result['failed']} failed "
                  f"(failed_share {result['failed_share']:.4f}), "
                  f"{result['samples']} latency samples")
            for message in result["errors"]:
                print("!! " + message.replace("\n", " | "))
            for metric, entry in line["metrics"].items():
                print(f"{metric:32s} {entry['value']:14.4f} {entry['unit']}")
            print(json.dumps(line))
            if not result["correct"]:
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())

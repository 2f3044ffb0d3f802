"""The traced run: the benchmark's own spans and the per-layer ledger.

Tracing here is done from outside the program.  Instead of calling
``session.assess()``, the traced replay walks the same public steps one
by one — parse, (lint), plan, execute, (serialize, dumps) — and records
a span ``{name, start, end, parent, op_id}`` around each call, plus
counter deltas at the operation boundary.  ``AssessResult.timings`` (the
paper's Figure 4 buckets) become child spans of ``execute``; they carry
durations only, so their start/end are laid end to end and marked
``"source": "timings"``.  A layer's self time is its span minus its
children.  Spans stay in memory and are written once, at the end.

End-to-end metrics never come from here: the stepwise walk and the
program's own ``repro.obs`` tracer (used to split ``engine.get_ms``
into scan / semi-join / group-by self times) both cost time, which is
reported as ``trace_overhead_share``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

import harness
from harness import clock
from workloads import Op, Workload

MAX_SPANS_WRITTEN = 60_000
"""Spans beyond this many are still aggregated, just not written out."""

# Figure 4 buckets -> ledger metric.  Buckets not listed (join, pivot,
# predict, project, ...) are the in-memory algebra: ``algebra.mem_ms``.
_FUNCTION_BUCKETS = {
    "compare": "functions.compare_ms",
    "transform": "functions.transform_ms",
    "label": "functions.label_ms",
}
# The program's own tracer spans whose self time splits the get buckets.
_PROGRAM_SPANS = {
    "engine.scan": "engine.scan_self_ms",
    "engine.semijoin": "engine.semijoin_self_ms",
    "engine.groupby": "engine.groupby_self_ms",
    "cache.lookup": "cache.lookup_self_ms",
}

LEDGER: Dict[str, Tuple[str, str]] = {
    # name: (unit, better)
    "setup.import_s": ("s", "lower"),
    "setup.datagen_s": ("s", "lower"),
    "setup.session_s": ("s", "lower"),
    "setup.server_ready_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "op.traced_ms": ("ms", "lower"),
    "op.unattributed_ms": ("ms", "lower"),
    "parser.parse_ms": ("ms", "lower"),
    "parser.statements": ("count/op", "lower"),
    "analysis.lint_ms": ("ms", "lower"),
    "analysis.diagnostics": ("count/op", "lower"),
    "algebra.plan_ms": ("ms", "lower"),
    "algebra.mem_ms": ("ms", "lower"),
    "functions.compare_ms": ("ms", "lower"),
    "functions.transform_ms": ("ms", "lower"),
    "functions.label_ms": ("ms", "lower"),
    "functions.cells_labelled": ("count/op", "lower"),
    "engine.get_ms": ("ms", "lower"),
    "engine.get_share": ("ratio", "lower"),
    "engine.scan_self_ms": ("ms", "lower"),
    "engine.semijoin_self_ms": ("ms", "lower"),
    "engine.groupby_self_ms": ("ms", "lower"),
    "engine.scans": ("count/op", "lower"),
    "engine.rows_scanned": ("count/op", "lower"),
    "engine.rows_per_cell": ("rows/cell", "lower"),
    "engine.parallel.fallbacks": ("count/op", "lower"),
    "engine.spill.spills": ("count/op", "lower"),
    "engine.storage.zones_pruned": ("count/op", "higher"),
    "engine.fused_fallbacks": ("count/op", "lower"),
    "cache.get_ms": ("ms", "lower"),
    "cache.lookup_self_ms": ("ms", "lower"),
    "cache.hits": ("count/op", "higher"),
    "cache.misses": ("count/op", "lower"),
    "cache.derivations": ("count/op", "higher"),
    "cache.evictions": ("count/op", "lower"),
    "cache.useful_share": ("ratio", "higher"),
    "batch.execute_many_ms": ("ms", "lower"),
    "batch.cse_hits": ("count/op", "higher"),
    "batch.fused_groups": ("count/op", "higher"),
    "batch.scans_per_stmt": ("ratio", "lower"),
    "wire.serialize_ms": ("ms", "lower"),
    "wire.json_ms": ("ms", "lower"),
    "wire.share_of_p50": ("ratio", "lower"),
    "wire.cells": ("count/op", "lower"),
    "wire.bytes_per_cell": ("B/cell", "lower"),
    "server.served_p50_ms": ("ms", "lower"),
    "server.transport_ms": ("ms", "lower"),
    "server.admitted": ("count/op", "higher"),
    "server.rejected_429": ("count/op", "lower"),
    "server.timeouts_504": ("count/op", "lower"),
    "obs.qlog_records": ("count/op", "higher"),
    "client.decode_ms": ("ms", "lower"),
    "trace_overhead_share": ("ratio", "lower"),
}


class Recorder:
    """Spans in memory: ``(name, start, end, parent, op_id, source)``."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, int, str]] = []
        self._stack: List[int] = []
        self.op_id = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, clock(), 0.0, parent, self.op_id, "bench"))
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        name, start, _, parent, op_id, source = self.spans[index]
        finish = clock()
        self.spans[index] = (name, start, finish, parent, op_id, source)
        self._stack.pop()
        return finish - start

    def abort(self) -> None:
        """Close every open span (an operation raised part-way)."""
        while self._stack:
            self.end(self._stack[-1])

    def children_from_timings(self, parent: int, timings: Dict[str, float]) -> None:
        """Lay duration-only buckets end to end under ``parent``."""
        cursor = self.spans[parent][1]
        for step, seconds in timings.items():
            self.spans.append(
                (step, cursor, cursor + seconds, parent, self.op_id, "timings")
            )
            cursor += seconds

    def per_name(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Seconds per span name: (self time, children subtracted; total)."""
        child_total = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        self_s: Dict[str, float] = {}
        total_s: Dict[str, float] = {}
        for (name, start, end, _, _, _), children in zip(self.spans, child_total):
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children
        return self_s, total_s

    def write(self, path) -> None:
        document = {
            "schema": ["name", "start", "end", "parent", "op_id", "source"],
            "spans_total": len(self.spans),
            "spans": self.spans[:MAX_SPANS_WRITTEN],
        }
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(document))


class Stepper:
    """``run_op`` for :func:`harness.run_inprocess`, one public call at a time."""

    def __init__(self, recorder: Recorder, served: bool):
        self.recorder = recorder
        self.served = served
        self.statements = 0
        self.diagnostics = 0
        self.cells = 0
        self.body_bytes = 0
        self.wire_s: List[float] = []
        """Per op: seconds in serialize_result + json.dumps."""
        self.program_self_ms: Dict[str, float] = {}

    def __call__(self, session, workload: Workload, op: Op) -> list:
        self.recorder.op_id += 1
        if not op.timed:
            return harness.execute(session, workload, op)
        try:
            return self._step(session, workload, op)
        except BaseException:
            self.recorder.abort()
            raise

    def _step(self, session, workload: Workload, op: Op) -> list:
        from repro.obs import summarize_spans, tracing

        recorder = self.recorder
        root = recorder.begin("op")
        span = recorder.begin("parser.parse")
        parsed = [session.parse(text) for text in op.statements]
        recorder.end(span)
        self.statements += len(parsed)
        if self.served:  # the server lints every request before planning
            span = recorder.begin("analysis.lint")
            for text in op.statements:
                self.diagnostics += len(session.analyze(text).sorted())
            recorder.end(span)
        with tracing() as tracer:
            if workload.kind == "batch":
                span = recorder.begin("batch.execute_many")
                results = list(session.execute_many(parsed).results)
                recorder.end(span)
                timings: Dict[str, float] = {}
                for result in results:
                    for step, seconds in result.timings.items():
                        timings[step] = timings.get(step, 0.0) + seconds
                recorder.children_from_timings(span, timings)
            else:
                span = recorder.begin("algebra.plan")
                plan = session.plan(parsed[0], "best")
                recorder.end(span)
                span = recorder.begin("execute")
                results = [session.execute_plan(plan, parsed[0])]
                recorder.end(span)
                recorder.children_from_timings(span, results[0].timings)
        for name, bucket in summarize_spans(tracer).items():
            if name in _PROGRAM_SPANS:
                self.program_self_ms[name] = (
                    self.program_self_ms.get(name, 0.0) + bucket["self_ms"]
                )
        self.cells += sum(len(result) for result in results)
        if self.served:
            from repro.server.wire import serialize_result

            span = recorder.begin("wire.serialize")
            document = serialize_result(results[0])
            wire_s = recorder.end(span)
            span = recorder.begin("wire.json")
            body = json.dumps(
                document, sort_keys=True, separators=(",", ":"), allow_nan=False
            ).encode("utf-8")
            self.wire_s.append(wire_s + recorder.end(span))
            self.body_bytes += len(body)
        recorder.end(root)
        return results


def plain_served_op(session, workload: Workload, op: Op) -> list:
    """What the server does per request, in-process, without spans."""
    from repro.server.wire import serialize_result

    text = op.statements[0]
    session.analyze(text)
    result = session.assess(text)
    json.dumps(
        serialize_result(result), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")
    return [result]


_BENCH_SPANS = ("op", "execute", "batch.execute_many", "parser.parse",
                "analysis.lint", "algebra.plan", "wire.serialize", "wire.json")
_OP_COUNTERS = (
    "engine.scans", "engine.rows_scanned", "engine.parallel.fallbacks",
    "engine.spill.spills", "engine.storage.zones_pruned",
    "engine.fused_fallbacks", "cache.hits", "cache.misses",
    "cache.derivations", "cache.evictions", "batch.cse_hits",
    "batch.fused_groups",
)
_SERVED_COUNTERS = (
    "engine.scans", "engine.rows_scanned", "cache.hits", "cache.misses",
    "cache.derivations", "cache.evictions", "server.admitted",
    "server.rejected_429", "server.timeouts_504", "obs.qlog_records",
)


def ledger(
    workload: Workload,
    setup: Dict[str, float],
    untraced: harness.Samples,
    traced: harness.Samples,
    recorder: Recorder,
    stepper: Stepper,
    served: Optional[harness.Samples] = None,
) -> Dict[str, float]:
    """Every LEDGER metric for one workload (0 where a layer did no work).

    ``*_ms`` values are means per traced operation, so the layers of one
    workload add up to ``op.traced_ms``; counts are per operation too —
    over whole rounds they repeat exactly from run to run.
    """
    ops = max(len(traced.latencies), 1)
    self_s, total_s = recorder.per_name()

    def self_ms(name: str) -> float:
        return 1000.0 * self_s.get(name, 0.0) / ops

    values = dict.fromkeys(LEDGER, 0.0)
    for name in values:
        if name.startswith("setup."):
            values[name] = setup.get(name, 0.0)
    values["trace.ops"] = float(len(traced.latencies))
    values["op.traced_ms"] = 1000.0 * statistics.mean(traced.latencies)
    values["op.unattributed_ms"] = (
        self_ms("op") + self_ms("execute") + self_ms("batch.execute_many")
    )
    for name in ("parser.parse", "analysis.lint", "algebra.plan",
                 "wire.serialize", "wire.json"):
        values[name + "_ms"] = self_ms(name)
    values["batch.execute_many_ms"] = (
        1000.0 * total_s.get("batch.execute_many", 0.0) / ops
    )
    get_ms = sum(self_ms(name) for name in self_s if name.startswith("get_"))
    values["engine.get_ms" if workload.clear == "op" else "cache.get_ms"] = get_ms
    values["engine.get_share"] = values["engine.get_ms"] / values["op.traced_ms"]
    for bucket, metric in _FUNCTION_BUCKETS.items():
        values[metric] = self_ms(bucket)
    values["algebra.mem_ms"] = sum(
        self_ms(name) for name in self_s
        if name not in _BENCH_SPANS and name not in _FUNCTION_BUCKETS
        and not name.startswith("get_")
    )
    for name, metric in _PROGRAM_SPANS.items():
        values[metric] = stepper.program_self_ms.get(name, 0.0) / ops
    values["parser.statements"] = stepper.statements / ops
    values["analysis.diagnostics"] = stepper.diagnostics / ops
    values["functions.cells_labelled"] = stepper.cells / ops

    counters = traced.counters
    for name in _OP_COUNTERS:
        values[name] = counters.get(name, 0) / ops
    if workload.kind == "batch":
        values["batch.scans_per_stmt"] = (
            counters.get("engine.scans", 0) / max(stepper.statements, 1)
        )
    values["client.decode_ms"] = 1000.0 * traced.decode_s / ops
    values["trace_overhead_share"] = traced.p50_ms() / untraced.p50_ms() - 1.0

    if served is not None:
        requests = max(served.attempted, 1)
        counters = served.counters
        values["wire.cells"] = stepper.cells / ops
        values["wire.bytes_per_cell"] = stepper.body_bytes / max(stepper.cells, 1)
        values["server.served_p50_ms"] = served.p50_ms()
        values["server.transport_ms"] = served.p50_ms() - untraced.p50_ms()
        values["wire.share_of_p50"] = (
            1000.0 * statistics.median(stepper.wire_s) / served.p50_ms()
        )
        values["client.decode_ms"] = 1000.0 * served.decode_s / requests
        # What the server's own engine and cache did replaces what the
        # in-process replay's did.
        for name in _SERVED_COUNTERS:
            values[name] = counters.get(name, 0) / requests
    values["engine.rows_per_cell"] = values["engine.rows_scanned"] / max(
        values["functions.cells_labelled"], 1.0
    )
    lookups = sum(
        counters.get(f"cache.{kind}", 0)
        for kind in ("hits", "misses", "derivations")
    )
    if lookups:
        values["cache.useful_share"] = (
            counters.get("cache.hits", 0) + counters.get("cache.derivations", 0)
        ) / lookups
    return {name: float(value) for name, value in values.items()}

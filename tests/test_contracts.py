"""Rejection table for every JSON contract the system emits.

Each contract has one valid document, and each case below is a copy of
it that breaks exactly one rule of that contract: a wrong type (a bool
is never a number), a missing or unknown key, an out-of-range value, an
enum miss, a wrong schema version, or one of the rules that relate two
fields.  Every valid document must pass and every mutant must be
rejected with at least one violation naming where it went wrong.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.flow.report import WORKLOAD_DOCUMENT
from repro.contract import violations
from repro.core.diagnostics import Severity
from repro.obs.export import TRACE, TraceFormatError, validate_trace
from repro.obs.qlog import QLOG_RECORD, QueryLogError, validate_record
from repro.server.wire import RESPONSES

SPECS = {"trace": TRACE, "qlog": QLOG_RECORD, "workload": WORKLOAD_DOCUMENT,
         **RESPONSES}


def check(contract, document):
    """The violations of ``document`` against the named contract."""
    return violations(document, SPECS[contract])


DELETE = object()
"""Edit value: remove the key instead of setting it."""

SPAN_ATTRS = {"rows": 4, "plan": "NP", "cached": False, "note": None,
              "ratio": 0.5}
TRACE_DOC = {
    "version": 1,
    "spans": [{
        "name": "statement", "start_us": 0.0, "duration_us": 12.5,
        "attrs": SPAN_ATTRS,
        "children": [{"name": "get", "start_us": 1, "duration_us": 3.0,
                      "attrs": {}, "children": []}],
    }],
}

QLOG_FIELDS = (
    "v", "ts", "session", "seq", "fingerprint", "cube", "measure",
    "group_by", "benchmark", "plan", "status", "phases", "total_s",
    "rows_in", "rows_out", "cells_out", "counters", "peak_rss_kb",
)
QLOG_DOC = {
    "v": 1, "ts": 1000.0, "session": "s1", "seq": 1,
    "fingerprint": "f" * 16, "cube": "SALES", "measure": "quantity",
    "group_by": ["product", "country"], "benchmark": "", "plan": "POP",
    "status": "ok", "phases": {"get": 0.008, "label": 0},
    "total_s": 0.01, "rows_in": 100, "rows_out": 4, "cells_out": 8,
    "counters": {"engine.scans": 1}, "peak_rss_kb": 1024, "parallelism": 1,
}

DIAGNOSTIC = {
    "code": "ASSESS130", "severity": "warning", "message": "half-open",
    "span": {"start": 0, "end": 4, "line": 1, "column": 1},
    "hint": None, "source": "statement",
}
WORKLOAD = {
    "workload_schema_version": 1,
    "origin": "examples/x.assess",
    "statements": [{
        "index": 0, "kind": "statement", "statement": "with SALES ...",
        "cube": "SALES", "group_by": ["month"], "measures": ["quantity"],
        "plan": "best", "composite": False, "parallel_safe": None,
        "diagnostics": [DIAGNOSTIC],
    }],
    "derivations": [{"target": 1, "source": 0, "kind": "derive",
                     "reason": "rolls up"}],
    "fusions": [{"statements": [0, 1], "scan_predicates": [],
                 "key_space": 12, "verdict": "fusable-exact",
                 "member_safety": [True, True]}],
    "exactness": [{"cube": "SALES", "measure": "quantity", "op": "sum",
                   "verdict": "exact", "detail": "integral"}],
    "bounds": [{"index": 0, "cells": {"lo": 0.0, "hi": 12.0},
                "cost": {"lo": 0.0, "hi": float("inf")},
                "admission_warning": False}],
    "summary": "1 items checked",
}
WORKLOAD_DOC = {"schema_version": 1, "mode": "workload",
                "workloads": [WORKLOAD]}
STATEMENT_DOC = {"schema_version": 1, "mode": "statement",
                 "results": [{"origin": "x.assess", "statement": "with ...",
                              "diagnostics": [DIAGNOSTIC]}]}

RESULT_KEYS = ("plan", "levels", "measure", "rows", "offset", "returned",
               "coordinates", "value", "benchmark", "comparison", "label",
               "label_counts", "timings")
RESULT = {
    "plan": "NP", "levels": ["month"], "measure": "quantity",
    "rows": 3, "offset": 1, "returned": 2,
    "coordinates": {"month": ["2019-02", "2019-03"]},
    "value": [1.0, 2], "benchmark": [None, 1.5], "comparison": [0.5, None],
    "label": ["low", None], "label_counts": {"low": 2, "null": 1},
    "timings": {"get": 0.01, "label": 0},
}
QUERY_DOC = {"schema_version": 2, "tenant": "acme", "elapsed_s": 0.02,
             **RESULT}
BATCH_DOC = {
    "schema_version": 2, "tenant": "acme", "elapsed_s": 0.3,
    "results": [RESULT, RESULT], "seconds": [0.1, 0.2],
    "sharing": {"statements": 2, "engine_scans": 1, "cache_hits": 1,
                "cache_derivations": 0},
}
EXPLAIN_DOC = {"schema_version": 2, "tenant": "acme", "plan": "NP",
               "plans": ["NP", "JOP"], "explain": "Plan NP\n  get"}
HEALTH_DOC = {"schema_version": 2, "status": "ok", "tenants": ["acme"],
              "uptime_s": 1.5, "in_flight": 0, "requests_total": 3}
ADMISSION_KEYS = ("admitted", "completed", "errors", "rejected_queue_full",
                  "rejected_deadline", "max_queue", "waiting")
TELEMETRY_KEYS = ("directory", "records", "fingerprints", "sessions",
                  "advisories")
STATS_DOC = {
    "schema_version": 2, "tenant": "acme", "cube": "sales",
    "pool": {"size": 2, "available": 1, "in_use": 1},
    "admission": dict.fromkeys(ADMISSION_KEYS, 0),
    "cache": {"hits": 0}, "counters": {"engine.scans": 1},
    "parallelism": 1, "memory_budget": None,
    "telemetry": {"directory": "telemetry", "records": 3, "fingerprints": 1,
                  "sessions": ["s1"], "advisories": []},
}
ERROR_DOC = {
    "schema_version": 2,
    "error": {
        "status": 422, "code": "lint_failed", "message": "rejected",
        "diagnostics": [{
            "code": "ASSESS101", "severity": "error",
            "message": "unknown cube",
            "span": {"start": 5, "end": 9, "line": 1, "column": 6},
            "hint": None, "source": "statement",
        }],
    },
}

VALID = {
    "trace": [TRACE_DOC, {"version": 1, "spans": []}],
    "qlog": [QLOG_DOC, {**QLOG_DOC, "status": "error", "error": "boom"}],
    "workload": [WORKLOAD_DOC, STATEMENT_DOC],
    "query": [QUERY_DOC,
              {**QUERY_DOC, "rows": 0, "offset": 5, "returned": 0,
               "coordinates": {"month": []}, "value": [], "benchmark": [],
               "comparison": [], "label": [], "label_counts": {}}],
    "batch": [BATCH_DOC],
    "explain": [EXPLAIN_DOC],
    "health": [HEALTH_DOC, {**HEALTH_DOC, "status": "draining"}],
    "stats": [STATS_DOC,
              {k: v for k, v in STATS_DOC.items() if k != "telemetry"}],
    "error": [ERROR_DOC,
              {"schema_version": 2,
               "error": {"status": 404, "code": "not_found",
                         "message": "no route"}}],
}
BASE = {"trace": TRACE_DOC, "qlog": QLOG_DOC, "workload": WORKLOAD_DOC,
        "query": QUERY_DOC, "batch": BATCH_DOC, "explain": EXPLAIN_DOC,
        "health": HEALTH_DOC, "stats": STATS_DOC, "error": ERROR_DOC}

SPAN = ("spans", 0)
WL = ("workloads", 0)
DIAG = WL + ("statements", 0, "diagnostics", 0)
EDIAG = ("error", "diagnostics", 0)

# (case id, contract, {path: new value or DELETE}); the empty path
# replaces the whole document.
MUTANTS = [
    ("not an object", "trace", {(): []}),
    ("version 2", "trace", {("version",): 2}),
    ("missing spans", "trace", {("spans",): DELETE}),
    ("spans not an array", "trace", {("spans",): {}}),
    ("span not an object", "trace", {SPAN: "statement"}),
    ("unknown span key", "trace", {SPAN + ("colour",): "red"}),
    ("empty name", "trace", {SPAN + ("name",): ""}),
    ("name not a string", "trace", {SPAN + ("name",): 7}),
    ("missing name", "trace", {SPAN + ("name",): DELETE}),
    ("bool start_us", "trace", {SPAN + ("start_us",): True}),
    ("string start_us", "trace", {SPAN + ("start_us",): "0"}),
    ("negative duration_us", "trace", {SPAN + ("duration_us",): -1.0}),
    ("missing duration_us", "trace", {SPAN + ("duration_us",): DELETE}),
    ("missing attrs", "trace", {SPAN + ("attrs",): DELETE}),
    ("attrs not an object", "trace", {SPAN + ("attrs",): []}),
    ("non-scalar attr", "trace", {SPAN + ("attrs", "rows"): [1]}),
    ("non-string attr key", "trace", {SPAN + ("attrs", 3): "x"}),
    ("missing children", "trace", {SPAN + ("children",): DELETE}),
    ("children not an array", "trace", {SPAN + ("children",): None}),
    ("bad nested span", "trace",
     {SPAN + ("children", 0, "duration_us"): -5}),

    ("not an object", "qlog", {(): []}),
    ("v 2", "qlog", {("v",): 2}),
    *[(f"missing {field}", "qlog", {(field,): DELETE})
      for field in QLOG_FIELDS],
    ("string ts", "qlog", {("ts",): "now"}),
    ("int session", "qlog", {("session",): 1}),
    ("bool seq", "qlog", {("seq",): True}),
    ("float seq", "qlog", {("seq",): 1.0}),
    ("null fingerprint", "qlog", {("fingerprint",): None}),
    ("int cube", "qlog", {("cube",): 1}),
    ("int measure", "qlog", {("measure",): 1}),
    ("null benchmark", "qlog", {("benchmark",): None}),
    ("int plan", "qlog", {("plan",): 1}),
    ("string total_s", "qlog", {("total_s",): "0.01"}),
    ("negative total_s", "qlog", {("total_s",): -0.1}),
    ("float rows_in", "qlog", {("rows_in",): 1.5}),
    ("string rows_out", "qlog", {("rows_out",): "4"}),
    ("bool cells_out", "qlog", {("cells_out",): True}),
    ("float peak_rss_kb", "qlog", {("peak_rss_kb",): 1.0}),
    ("unknown status", "qlog", {("status",): "maybe"}),
    ("error without message", "qlog", {("status",): "error"}),
    ("error message not a string", "qlog",
     {("status",): "error", ("error",): 5}),
    ("group_by not an array", "qlog", {("group_by",): "product"}),
    ("int group_by level", "qlog", {("group_by",): ["product", 1]}),
    ("phases not an object", "qlog", {("phases",): []}),
    ("negative phase", "qlog", {("phases", "get"): -1.0}),
    ("string phase", "qlog", {("phases", "get"): "1"}),
    ("counters not an object", "qlog", {("counters",): []}),
    ("float counter", "qlog", {("counters", "x"): 1.5}),

    ("missing schema_version", "workload", {("schema_version",): DELETE}),
    ("schema_version 2", "workload", {("schema_version",): 2}),
    ("missing mode", "workload", {("mode",): DELETE}),
    ("unknown mode", "workload", {("mode",): "bogus"}),
    ("workload mode without workloads", "workload",
     {("workloads",): DELETE}),
    ("empty workloads", "workload", {("workloads",): []}),
    ("statement mode without results", "workload", {("mode",): "statement"}),
    *[(f"workload missing {key}", "workload", {WL + (key,): DELETE})
      for key in WORKLOAD],
    ("workload_schema_version 2", "workload",
     {WL + ("workload_schema_version",): 2}),
    *[(f"statement missing {key}", "workload",
       {WL + ("statements", 0, key): DELETE})
      for key in WORKLOAD["statements"][0]],
    *[(f"diagnostic missing {key}", "workload", {DIAG + (key,): DELETE})
      for key in DIAGNOSTIC],
    ("bad severity", "workload", {DIAG + ("severity",): "fatal"}),
    ("code without ASSESS", "workload", {DIAG + ("code",): "E101"}),
    ("code without digits", "workload", {DIAG + ("code",): "ASSESS"}),
    ("code with a letter", "workload", {DIAG + ("code",): "ASSESS1x"}),
    *[(f"{section} missing {key}", "workload",
       {WL + (section, 0, key): DELETE})
      for section in ("derivations", "fusions", "exactness", "bounds")
      for key in WORKLOAD[section][0]],

    ("v1 cells key", "query", {("cells",): []}),
    *[(f"missing {key}", "query", {(key,): DELETE}) for key in RESULT_KEYS],
    ("unknown plan", "query", {("plan",): "XP"}),
    ("levels not an array", "query", {("levels",): "month"}),
    ("int level", "query", {("levels",): [1]}),
    ("negative rows", "query", {("rows",): -1}),
    ("bool offset", "query", {("offset",): True}),
    ("string returned", "query", {("returned",): "2"}),
    ("returned > rows - offset", "query", {("offset",): 2}),
    ("coordinates keys != levels", "query",
     {("coordinates", "year"): ["2019", "2019"]}),
    ("coordinates not an object", "query", {("coordinates",): []}),
    ("value not an array", "query", {("value",): 1.0}),
    ("short label column", "query", {("label",): ["low"]}),
    ("short coordinate column", "query",
     {("coordinates", "month"): ["2019-02"]}),
    ("string value", "query", {("value",): ["1", 2]}),
    ("bool benchmark", "query", {("benchmark",): [True, None]}),
    ("int label", "query", {("label",): [1, None]}),
    ("label_counts not an object", "query", {("label_counts",): []}),
    ("negative label count", "query",
     {("label_counts",): {"low": -1, "null": 4}}),
    ("label_counts sum != rows", "query", {("label_counts", "null"): 2}),
    ("timings not an object", "query", {("timings",): []}),
    ("negative timing", "query", {("timings", "get"): -0.1}),
    ("schema_version 1", "query", {("schema_version",): 1}),
    ("missing schema_version", "query", {("schema_version",): DELETE}),
    ("int tenant", "query", {("tenant",): 5}),
    ("negative elapsed_s", "query", {("elapsed_s",): -1}),
    ("missing elapsed_s", "query", {("elapsed_s",): DELETE}),

    ("schema_version 3", "batch", {("schema_version",): 3}),
    ("null tenant", "batch", {("tenant",): None}),
    ("empty results", "batch", {("results",): [], ("seconds",): []}),
    ("results not an array", "batch", {("results",): "x"}),
    ("bad result plan", "batch", {("results", 0, "plan"): "XP"}),
    ("result with cells", "batch", {("results", 1, "cells"): []}),
    ("result sum != rows", "batch",
     {("results", 0, "label_counts", "low"): 1}),
    ("seconds shorter than results", "batch", {("seconds",): [0.1]}),
    ("negative seconds", "batch", {("seconds",): [0.1, -0.2]}),
    ("missing seconds", "batch", {("seconds",): DELETE}),
    ("sharing missing engine_scans", "batch",
     {("sharing", "engine_scans"): DELETE}),
    ("sharing missing cache_hits", "batch",
     {("sharing", "cache_hits"): DELETE}),
    ("sharing missing cache_derivations", "batch",
     {("sharing", "cache_derivations"): DELETE}),
    ("sharing not an object", "batch", {("sharing",): []}),

    ("schema_version 1", "explain", {("schema_version",): 1}),
    ("missing tenant", "explain", {("tenant",): DELETE}),
    ("empty plans", "explain", {("plans",): []}),
    ("unknown plan", "explain", {("plans",): ["NP", "XP"]}),
    ("plans not an array", "explain", {("plans",): "NP"}),
    ("empty explain", "explain", {("explain",): ""}),
    ("blank explain", "explain", {("explain",): " \n "}),
    ("missing explain", "explain", {("explain",): DELETE}),

    ("schema_version 1", "health", {("schema_version",): 1}),
    ("unknown status", "health", {("status",): "sleeping"}),
    ("tenants not an array", "health", {("tenants",): "acme"}),
    ("int tenant", "health", {("tenants",): [1]}),
    ("negative uptime_s", "health", {("uptime_s",): -1}),
    ("missing in_flight", "health", {("in_flight",): DELETE}),
    ("bool in_flight", "health", {("in_flight",): True}),
    ("string requests_total", "health", {("requests_total",): "3"}),

    ("schema_version 1", "stats", {("schema_version",): 1}),
    *[(f"missing {key}", "stats", {(key,): DELETE})
      for key in ("tenant", "cube", "pool", "admission", "cache",
                  "counters")],
    ("pool not an object", "stats", {("pool",): []}),
    ("string pool size", "stats", {("pool", "size"): "2"}),
    ("missing pool available", "stats", {("pool", "available"): DELETE}),
    ("available + in_use != size", "stats", {("pool", "available"): 0}),
    ("admission not an object", "stats", {("admission",): []}),
    *[(f"negative admission {key}", "stats", {("admission", key): -1})
      for key in ADMISSION_KEYS],
    ("missing admission waiting", "stats",
     {("admission", "waiting"): DELETE}),
    ("telemetry not an object", "stats", {("telemetry",): []}),
    *[(f"telemetry missing {key}", "stats", {("telemetry", key): DELETE})
      for key in TELEMETRY_KEYS],

    ("schema_version 1", "error", {("schema_version",): 1}),
    ("error not an object", "error", {("error",): "boom"}),
    ("missing status", "error", {("error", "status"): DELETE}),
    ("status 200", "error", {("error", "status"): 200}),
    ("status 600", "error", {("error", "status"): 600}),
    ("string status", "error", {("error", "status"): "422"}),
    ("bool status", "error", {("error", "status"): True}),
    ("unknown error code", "error", {("error", "code"): "teapot"}),
    ("empty message", "error", {("error", "message"): ""}),
    ("missing message", "error", {("error", "message"): DELETE}),
    ("empty diagnostics", "error", {("error", "diagnostics"): []}),
    ("diagnostics not an array", "error", {("error", "diagnostics"): {}}),
    ("diagnostic not an object", "error", {EDIAG: "ASSESS101"}),
    ("diagnostic code without ASSESS", "error",
     {EDIAG + ("code",): "E101"}),
    ("null diagnostic code", "error", {EDIAG + ("code",): None}),
    ("bad diagnostic severity", "error",
     {EDIAG + ("severity",): "fatal"}),
    ("int diagnostic message", "error", {EDIAG + ("message",): 5}),
    ("span missing line", "error", {EDIAG + ("span", "line"): DELETE}),
    ("string span start", "error", {EDIAG + ("span", "start"): "5"}),
    ("missing diagnostic source", "error", {EDIAG + ("source",): DELETE}),
    ("null diagnostic source", "error", {EDIAG + ("source",): None}),
]


def mutate(document, edits):
    mutant = copy.deepcopy(document)
    for path, value in edits.items():
        if not path:
            mutant = value
            continue
        *parents, last = path
        target = mutant
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return mutant


@pytest.mark.parametrize(
    "contract, document",
    [(contract, document)
     for contract, documents in VALID.items() for document in documents],
)
def test_valid_documents_pass(contract, document):
    assert check(contract, copy.deepcopy(document)) == []


@pytest.mark.parametrize(
    "contract, edits",
    [pytest.param(contract, edits, id=f"{contract}: {name}")
     for name, contract, edits in MUTANTS],
)
def test_mutant_is_rejected(contract, edits):
    mutant = mutate(BASE[contract], edits)
    assert repr(mutant) != repr(BASE[contract])
    found = check(contract, mutant)
    assert found, f"{contract} mutant accepted: {edits}"
    assert all(isinstance(message, str) and message for message in found)


def test_case_ids_are_unique():
    ids = [f"{contract}: {name}" for name, contract, _ in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("severity", [str(severity) for severity in Severity])
def test_every_analyzer_severity_meets_both_diagnostic_contracts(severity):
    # The lint JSON and the server's lint_failed envelope carry the same
    # diagnostics, so both contracts take every severity the analyzer has.
    assert check("error", mutate(ERROR_DOC, {EDIAG + ("severity",): severity})) == []
    assert check("workload", mutate(WORKLOAD_DOC, {DIAG + ("severity",): severity})) == []


def test_wrappers_raise_their_errors_with_the_first_violation():
    validate_trace(copy.deepcopy(TRACE_DOC))
    validate_record(copy.deepcopy(QLOG_DOC))
    bad_trace = mutate(TRACE_DOC, {SPAN + ("duration_us",): -1.0})
    with pytest.raises(TraceFormatError) as error:
        validate_trace(bad_trace)
    assert str(error.value) == check("trace", bad_trace)[0]
    assert "spans[0].duration_us" in str(error.value)
    bad_record = mutate(QLOG_DOC, {("seq",): True})
    with pytest.raises(QueryLogError) as error:
        validate_record(bad_record, "queries-00000001.jsonl:3")
    assert str(error.value).startswith("queries-00000001.jsonl:3.seq:")

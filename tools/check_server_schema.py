#!/usr/bin/env python
"""Validate server response documents against the schema-v2 contract.

Two modes:

* **Document mode** (default): read one JSON response document from
  stdin (or a file argument) and validate it against the endpoint named
  by ``--endpoint`` — ``query``, ``batch``, ``explain``, ``health``,
  ``stats``, or ``error``.
* **Live mode** (``--live``): stand up an in-process
  :class:`repro.server.ReproServer` over a small demo tenant, hit every
  endpoint — success (a paged query and one whose comparison is ``inf``
  included) *and* error paths (bad JSON, bad page, unknown tenant, lint
  failure, wrong method) — and validate each response body.  The CI
  server-smoke job runs this; exit 1 on the first violation so schema
  drift can't land silently.

The validators are plain functions (``validate_query_document`` etc.)
returning a list of violation strings, so the contract suite in
``tests/test_server.py`` imports and reuses them.

Usage::

    curl -s localhost:8787/v1/health | python tools/check_server_schema.py --endpoint health
    python tools/check_server_schema.py --live
"""

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.server.wire import SCHEMA_VERSION  # noqa: E402

ERROR_CODES = {
    "bad_json", "bad_request", "unknown_tenant", "lint_failed",
    "overloaded", "deadline_exceeded", "shutting_down",
    "method_not_allowed", "not_found", "payload_too_large", "internal",
    # the stdlib's protocol errors, sent through the same envelope
    "request_uri_too_long", "request_header_fields_too_large",
    "not_implemented", "http_version_not_supported",
}
SEVERITIES = {"error", "warning", "hint"}
PLAN_NAMES = {"NP", "JOP", "POP"}
INF_STATEMENT = (
    "with SALES by year assess storeSales against 0 "
    "using ratio(storeSales, benchmark.constant) "
    "labels {[0, 1): low, [1, inf]: high}"
)
"""``ratio`` against a zero benchmark: every comparison is ``inf``."""


def _type_name(value):
    return type(value).__name__


def _check(violations, condition, message):
    if not condition:
        violations.append(message)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_version(violations, document, where):
    _check(
        violations,
        document.get("schema_version") == SCHEMA_VERSION,
        f"{where}: schema_version must be {SCHEMA_VERSION}, "
        f"got {document.get('schema_version')!r}",
    )


RESULT_KEYS = ("plan", "levels", "measure", "rows", "offset", "returned",
               "coordinates", "value", "benchmark", "comparison", "label",
               "label_counts", "timings")


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_result_body(document, where="result"):
    """The serialized assess result shared by query and batch items."""
    violations = []
    if not isinstance(document, dict):
        return [f"{where}: must be an object, got {_type_name(document)}"]
    _check(violations, "cells" not in document,
           f"{where}: carries the v1 row shape ('cells'); v2 is columnar")
    for key in RESULT_KEYS:
        _check(violations, key in document, f"{where}: missing key {key!r}")
    if violations:
        return violations
    _check(violations, document["plan"] in PLAN_NAMES,
           f"{where}: plan must be one of {sorted(PLAN_NAMES)}, "
           f"got {document['plan']!r}")
    levels = document["levels"]
    _check(violations,
           isinstance(levels, list)
           and all(isinstance(level, str) for level in levels),
           f"{where}: levels must be an array of strings")
    rows, offset, returned = (
        document[key] for key in ("rows", "offset", "returned")
    )
    if all(map(_is_count, (rows, offset, returned))):
        _check(violations, returned <= max(rows - offset, 0),
               f"{where}: returned ({returned}) exceeds rows - offset "
               f"({rows} - {offset})")
    else:
        violations.append(
            f"{where}: rows, offset and returned must be non-negative ints"
        )
    coordinates = document["coordinates"]
    if isinstance(coordinates, dict) and isinstance(levels, list):
        _check(violations, sorted(coordinates) == sorted(levels),
               f"{where}: coordinates keys {sorted(coordinates)} != "
               f"levels {sorted(levels)}")
        columns = {f"coordinates.{level}": column
                   for level, column in coordinates.items()}
    else:
        violations.append(f"{where}: coordinates must be an object")
        columns = {}
    number_columns = ("value", "benchmark", "comparison")
    columns.update(
        {key: document[key] for key in number_columns + ("label",)}
    )
    for key, column in columns.items():
        if not isinstance(column, list):
            violations.append(f"{where}: {key} must be an array")
        elif len(column) != returned:
            violations.append(
                f"{where}: len({key}) ({len(column)}) != returned ({returned!r})"
            )
        elif key in number_columns:
            _check(violations,
                   all(item is None or _is_number(item) for item in column),
                   f"{where}: {key} must hold numbers or nulls")
        elif key == "label":
            _check(violations,
                   all(item is None or isinstance(item, str) for item in column),
                   f"{where}: label must hold strings or nulls")
    counts = document["label_counts"]
    if isinstance(counts, dict):
        _check(violations, all(_is_count(count) for count in counts.values()),
               f"{where}: label_counts values must be non-negative ints")
        if not violations:
            _check(violations, sum(counts.values()) == rows,
                   f"{where}: label_counts sum ({sum(counts.values())}) != "
                   f"rows ({rows})")
    else:
        violations.append(f"{where}: label_counts must be an object")
    timings = document["timings"]
    if isinstance(timings, dict):
        _check(violations,
               all(_is_number(seconds) and seconds >= 0
                   for seconds in timings.values()),
               f"{where}: timings values must be non-negative numbers")
    else:
        violations.append(f"{where}: timings must be an object")
    return violations


def validate_query_document(document):
    """The ``POST /v1/query`` 200 body."""
    violations = []
    if not isinstance(document, dict):
        return [f"query: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "query")
    _check(violations, isinstance(document.get("tenant"), str),
           "query: tenant must be a string")
    elapsed = document.get("elapsed_s")
    _check(violations, _is_number(elapsed) and elapsed >= 0,
           "query: elapsed_s must be a non-negative number")
    body = {k: v for k, v in document.items()
            if k not in ("schema_version", "tenant", "elapsed_s")}
    violations.extend(validate_result_body(body, where="query"))
    return violations


def validate_batch_document(document):
    """The ``POST /v1/batch`` 200 body."""
    violations = []
    if not isinstance(document, dict):
        return [f"batch: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "batch")
    _check(violations, isinstance(document.get("tenant"), str),
           "batch: tenant must be a string")
    results = document.get("results")
    if not isinstance(results, list) or not results:
        violations.append("batch: results must be a non-empty array")
        results = []
    for index, result in enumerate(results):
        violations.extend(
            validate_result_body(result, where=f"batch.results[{index}]")
        )
    seconds = document.get("seconds")
    _check(violations,
           isinstance(seconds, list) and len(seconds) == len(results)
           and all(_is_number(s) and s >= 0 for s in seconds),
           "batch: seconds must be a non-negative number per result")
    sharing = document.get("sharing")
    if isinstance(sharing, dict):
        for key in ("engine_scans", "cache_hits", "cache_derivations"):
            _check(violations, key in sharing,
                   f"batch: sharing missing key {key!r}")
    else:
        violations.append("batch: sharing must be an object")
    return violations


def validate_explain_document(document):
    """The ``POST /v1/explain`` 200 body."""
    violations = []
    if not isinstance(document, dict):
        return [f"explain: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "explain")
    _check(violations, isinstance(document.get("tenant"), str),
           "explain: tenant must be a string")
    plans = document.get("plans")
    _check(violations,
           isinstance(plans, list) and plans
           and all(plan in PLAN_NAMES for plan in plans),
           f"explain: plans must be a non-empty subset of {sorted(PLAN_NAMES)}")
    explain = document.get("explain")
    _check(violations, isinstance(explain, str) and explain.strip(),
           "explain: explain must be a non-empty string")
    return violations


def validate_health_document(document):
    """The ``GET /v1/health`` body."""
    violations = []
    if not isinstance(document, dict):
        return [f"health: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "health")
    _check(violations, document.get("status") in ("ok", "draining"),
           f"health: status must be ok|draining, got {document.get('status')!r}")
    tenants = document.get("tenants")
    _check(violations,
           isinstance(tenants, list)
           and all(isinstance(tenant, str) for tenant in tenants),
           "health: tenants must be an array of strings")
    for key in ("uptime_s", "in_flight", "requests_total"):
        value = document.get(key)
        _check(violations, _is_number(value) and value >= 0,
               f"health: {key} must be a non-negative number")
    return violations


def validate_stats_document(document):
    """The ``GET /v1/tenants/<id>/stats`` body."""
    violations = []
    if not isinstance(document, dict):
        return [f"stats: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "stats")
    for key in ("tenant", "cube", "pool", "admission", "cache", "counters"):
        _check(violations, key in document, f"stats: missing key {key!r}")
    pool = document.get("pool")
    if isinstance(pool, dict):
        for key in ("size", "available", "in_use"):
            _check(violations, isinstance(pool.get(key), int),
                   f"stats: pool.{key} must be an int")
        if all(isinstance(pool.get(k), int)
               for k in ("size", "available", "in_use")):
            _check(violations,
                   pool["available"] + pool["in_use"] == pool["size"],
                   "stats: pool available + in_use != size")
    else:
        violations.append("stats: pool must be an object")
    admission = document.get("admission")
    if isinstance(admission, dict):
        for key in ("admitted", "completed", "errors",
                    "rejected_queue_full", "rejected_deadline",
                    "max_queue", "waiting"):
            _check(violations,
                   isinstance(admission.get(key), int)
                   and admission[key] >= 0,
                   f"stats: admission.{key} must be a non-negative int")
    else:
        violations.append("stats: admission must be an object")
    telemetry = document.get("telemetry")
    if telemetry is not None:
        if isinstance(telemetry, dict):
            for key in ("directory", "records", "fingerprints",
                        "sessions", "advisories"):
                _check(violations, key in telemetry,
                       f"stats: telemetry missing key {key!r}")
        else:
            violations.append("stats: telemetry must be an object")
    return violations


def validate_error_document(document, status=None):
    """Any non-200 envelope."""
    violations = []
    if not isinstance(document, dict):
        return [f"error: must be an object, got {_type_name(document)}"]
    _check_version(violations, document, "error")
    error = document.get("error")
    if not isinstance(error, dict):
        return violations + ["error: 'error' must be an object"]
    _check(violations,
           isinstance(error.get("status"), int)
           and 400 <= error["status"] <= 599,
           f"error: status must be a 4xx/5xx int, got {error.get('status')!r}")
    if status is not None:
        _check(violations, error.get("status") == status,
               f"error: body status {error.get('status')!r} != "
               f"HTTP status {status}")
    _check(violations, error.get("code") in ERROR_CODES,
           f"error: code {error.get('code')!r} not in the contract set")
    _check(violations,
           isinstance(error.get("message"), str) and error["message"],
           "error: message must be a non-empty string")
    diagnostics = error.get("diagnostics")
    if diagnostics is not None:
        if not isinstance(diagnostics, list) or not diagnostics:
            violations.append("error: diagnostics must be a non-empty array")
        else:
            for index, diagnostic in enumerate(diagnostics):
                dw = f"error.diagnostics[{index}]"
                if not isinstance(diagnostic, dict):
                    violations.append(f"{dw}: must be an object")
                    continue
                code = diagnostic.get("code")
                _check(violations,
                       isinstance(code, str) and code.startswith("ASSESS"),
                       f"{dw}: code must be an ASSESSxxx string, got {code!r}")
                _check(violations, diagnostic.get("severity") in SEVERITIES,
                       f"{dw}: severity must be one of {sorted(SEVERITIES)}")
                _check(violations, isinstance(diagnostic.get("message"), str),
                       f"{dw}: message must be a string")
                span = diagnostic.get("span")
                if span is not None:
                    _check(violations,
                           isinstance(span, dict) and
                           all(isinstance(span.get(k), int)
                               for k in ("start", "end", "line", "column")),
                           f"{dw}: span must carry int start/end/line/column")
    return violations


VALIDATORS = {
    "query": validate_query_document,
    "batch": validate_batch_document,
    "explain": validate_explain_document,
    "health": validate_health_document,
    "stats": validate_stats_document,
    "error": validate_error_document,
}


def validate_metrics_text(text):
    """The ``GET /v1/metrics`` Prometheus exposition (light checks)."""
    violations = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["metrics: exposition is empty"]
    for number, line in enumerate(lines, start=1):
        if line.startswith("#"):
            if not (line.startswith("# HELP ") or line.startswith("# TYPE ")):
                violations.append(
                    f"metrics line {number}: bad comment {line[:40]!r}"
                )
            continue
        body = line.rsplit(" ", 1)
        if len(body) != 2:
            violations.append(f"metrics line {number}: not 'name value'")
            continue
        try:
            float(body[1])
        except ValueError:
            violations.append(
                f"metrics line {number}: value {body[1]!r} is not a number"
            )
    return violations


# ----------------------------------------------------------------------
# Live mode
# ----------------------------------------------------------------------
def _http(url, method="GET", payload=None, raw=None, timeout=30):
    import urllib.error
    import urllib.request

    data = raw
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def run_live_checks(rows=2000):
    """Start an in-process server, hit every endpoint, validate bodies."""
    from repro.server import (
        AdmissionConfig,
        ReproServer,
        ServerConfig,
        TenantConfig,
    )

    statement = "with SALES by month assess storeSales labels quartiles"
    config = ServerConfig(
        host="127.0.0.1", port=0,
        admission=AdmissionConfig(max_queue=4, deadline_s=30.0),
        tenants=[TenantConfig("demo", cube="sales", rows=rows)],
    )
    server = ReproServer(config).start()
    failures = []

    def run_case(name, violations):
        for violation in violations:
            failures.append(f"{name}: {violation}")
        print(f"  {'FAIL' if violations else 'ok':4s}  {name}")

    try:
        base = server.url
        status, body, _ = _http(f"{base}/v1/health")
        run_case("health", ([] if status == 200 else [f"status {status}"])
                 + validate_health_document(json.loads(body)))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo", "statement": statement},
        )
        run_case("query", ([] if status == 200 else [f"status {status}"])
                 + validate_query_document(json.loads(body)))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo", "statement": statement,
                     "offset": 2, "limit": 3},
        )
        document = json.loads(body)
        run_case("query: paged",
                 ([] if status == 200 else [f"status {status}"])
                 + validate_query_document(document)
                 + ([] if (document.get("offset"), document.get("returned"))
                    == (2, 3) else ["offset/returned must echo the page"]))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo", "statement": INF_STATEMENT},
        )
        document = json.loads(body)
        run_case("query: inf comparison",
                 ([] if status == 200 else [f"status {status}"])
                 + validate_query_document(document)
                 + ([] if document.get("comparison")
                    and set(document["comparison"]) == {None}
                    else ["non-finite comparison values must be null"]))
        status, body, _ = _http(
            f"{base}/v1/batch", "POST",
            payload={"tenant": "demo", "statements": [statement, statement]},
        )
        run_case("batch", ([] if status == 200 else [f"status {status}"])
                 + validate_batch_document(json.loads(body)))
        status, body, _ = _http(
            f"{base}/v1/explain", "POST",
            payload={"tenant": "demo", "statement": statement, "plan": "NP"},
        )
        run_case("explain", ([] if status == 200 else [f"status {status}"])
                 + validate_explain_document(json.loads(body)))
        status, body, _ = _http(f"{base}/v1/tenants/demo/stats")
        run_case("stats", ([] if status == 200 else [f"status {status}"])
                 + validate_stats_document(json.loads(body)))
        status, body, _ = _http(f"{base}/v1/metrics")
        run_case("metrics", ([] if status == 200 else [f"status {status}"])
                 + validate_metrics_text(body.decode("utf-8")))
        # Error paths — each must come back as a valid envelope.
        status, body, _ = _http(f"{base}/v1/query", "POST", raw=b"{nope")
        run_case("error: bad json",
                 ([] if status == 400 else [f"status {status}"])
                 + validate_error_document(json.loads(body), status=status))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo", "statement": statement, "limit": -1},
        )
        run_case("error: bad page",
                 ([] if status == 400 else [f"status {status}"])
                 + validate_error_document(json.loads(body), status=status))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "ghost", "statement": statement},
        )
        run_case("error: unknown tenant",
                 ([] if status == 404 else [f"status {status}"])
                 + validate_error_document(json.loads(body), status=status))
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo",
                     "statement": statement.replace("SALES", "NOPE")},
        )
        document = json.loads(body)
        run_case("error: lint failure",
                 ([] if status == 422 else [f"status {status}"])
                 + validate_error_document(document, status=status)
                 + ([] if document.get("error", {}).get("diagnostics")
                    else ["lint envelope must carry diagnostics"]))
        # '²'.isdigit() but float('²') raises: a syntax error, not a 500.
        status, body, _ = _http(
            f"{base}/v1/query", "POST",
            payload={"tenant": "demo",
                     "statement": statement.replace("labels", "against 10² labels")},
        )
        document = json.loads(body)
        codes = [d.get("code") for d in document.get("error", {}).get("diagnostics", [])]
        run_case("error: non-decimal digit",
                 ([] if status == 422 else [f"status {status}"])
                 + validate_error_document(document, status=status)
                 + ([] if "ASSESS001" in codes
                    else [f"expected an ASSESS001 diagnostic, got {codes}"]))
        status, body, _ = _http(f"{base}/v1/query", "GET")
        run_case("error: wrong method",
                 ([] if status == 405 else [f"status {status}"])
                 + validate_error_document(json.loads(body), status=status))
        status, body, _ = _http(f"{base}/v1/nope", "GET")
        run_case("error: unknown path",
                 ([] if status == 404 else [f"status {status}"])
                 + validate_error_document(json.loads(body), status=status))
    finally:
        server.shutdown(grace_s=5.0)
    return failures


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate server responses against the schema-v2 contract."
    )
    parser.add_argument("path", nargs="?", default=None,
                        help="response document to validate (default: stdin)")
    parser.add_argument("--endpoint", choices=sorted(VALIDATORS),
                        default=None, help="which endpoint the document is from")
    parser.add_argument("--live", action="store_true",
                        help="start an in-process server and validate every "
                        "endpoint, error paths included")
    parser.add_argument("--rows", type=int, default=2000,
                        help="demo cube rows for --live (default: 2000)")
    args = parser.parse_args(argv)

    if args.live:
        failures = run_live_checks(rows=args.rows)
        if failures:
            print(f"FAIL: {len(failures)} violation(s)")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("ok: every endpoint matches the schema-v2 contract")
        return 0

    if args.endpoint is None:
        parser.error("--endpoint is required without --live")
    if args.path is not None:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = json.load(sys.stdin)
    violations = VALIDATORS[args.endpoint](document)
    if violations:
        print(f"FAIL: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"ok: valid {args.endpoint} document")
    return 0


if __name__ == "__main__":
    sys.exit(main())

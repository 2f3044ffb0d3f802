#!/usr/bin/env python
"""Check JSON documents against the system's declared contracts.

Every contract is a spec next to the code that produces it, checked by
:func:`repro.contract.violations`.  One subcommand per document kind:

* ``qlog [DIR ...]`` — every record of every ``queries-*.jsonl`` segment
  of a telemetry directory (default: ``REPRO_TELEMETRY_DIR``) against
  ``obs.qlog.QLOG_RECORD``.  A line that is not JSON is a violation
  too, although readers skip torn records.
* ``workload [FILE]`` — the ``repro lint --format=json`` document (with
  or without ``--workload``) against ``WORKLOAD_DOCUMENT``.
* ``server --endpoint NAME [FILE]`` — one response body against
  ``server.wire.RESPONSES[NAME]``.
* ``server --live`` — starts an in-process server over a small demo
  tenant, hits every endpoint (a paged query and one whose comparison
  is ``inf`` included) and every error path (bad JSON, bad page,
  unknown tenant, lint failure, wrong method, unknown path), and checks
  each body; ``/v1/metrics`` is checked as Prometheus text.
* ``trace [FILE]`` — the ``repro trace --json`` document against
  ``obs.analyze.TRACE_REPORT``.

FILE defaults to stdin.  Exit 0 when everything matches, 1 on any
violation, 2 on a usage error.

Usage::

    python tools/check_schema.py qlog /tmp/telemetry
    python -m repro.cli lint --workload --format=json examples/ \\
        | python tools/check_schema.py workload
    curl -s localhost:8787/v1/health \\
        | python tools/check_schema.py server --endpoint health
    python tools/check_schema.py server --live
    python -m repro.cli trace --json trace.json ...
    python tools/check_schema.py trace trace.json
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.flow.report import WORKLOAD_DOCUMENT  # noqa: E402
from repro.contract import violations  # noqa: E402
from repro.obs.analyze import TRACE_REPORT  # noqa: E402
from repro.obs.qlog import (  # noqa: E402
    QLOG_RECORD,
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
)
from repro.server.wire import RESPONSES  # noqa: E402
from repro.settings import Settings  # noqa: E402

INF_STATEMENT = (
    "with SALES by year assess storeSales against 0 "
    "using ratio(storeSales, benchmark.constant) "
    "labels {[0, 1): low, [1, inf]: high}"
)
"""``ratio`` against a zero benchmark: every comparison is ``inf``."""


def check_directory(directory):
    """Every violation in a telemetry directory, and the record count."""
    problems = []
    segments = sorted(
        name for name in os.listdir(directory)
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    )
    if not segments:
        problems.append(f"{directory}: no query-log segments")
    records = 0
    for segment in segments:
        path = os.path.join(directory, segment)
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                where = f"{segment}:{number}"
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    problems.append(f"{where}: not JSON ({exc})")
                    continue
                problems += violations(record, QLOG_RECORD, where)
                records += 1
    if segments and not records:
        problems.append(f"{directory}: segments exist but hold no records")
    return problems, records


def validate_metrics_text(text):
    """The ``GET /v1/metrics`` Prometheus exposition (light checks)."""
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["metrics: exposition is empty"]
    for number, line in enumerate(lines, start=1):
        if line.startswith("#"):
            if not (line.startswith("# HELP ") or line.startswith("# TYPE ")):
                problems.append(
                    f"metrics line {number}: bad comment {line[:40]!r}"
                )
            continue
        body = line.rsplit(" ", 1)
        if len(body) != 2:
            problems.append(f"metrics line {number}: not 'name value'")
            continue
        try:
            float(body[1])
        except ValueError:
            problems.append(
                f"metrics line {number}: value {body[1]!r} is not a number"
            )
    return problems


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


def _response(endpoint, status, expected, body):
    """A response's violations: HTTP status, body contract, and for an
    error envelope the body status echoing the HTTP one."""
    problems = [] if status == expected else [f"status {status}"]
    document = json.loads(body)
    problems += violations(document, RESPONSES[endpoint])
    if endpoint == "error" and not problems \
            and document["error"]["status"] != status:
        problems.append(f"body status {document['error']['status']} != "
                        f"HTTP status {status}")
    return problems, document


def run_live_checks(rows=2000):
    """Start an in-process server, hit every endpoint, check the bodies."""
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

    def run_case(name, problems):
        for problem in problems:
            failures.append(f"{name}: {problem}")
        print(f"  {'FAIL' if problems else 'ok':4s}  {name}")

    def post(path, payload=None, raw=None):
        return _http(f"{server.url}{path}", "POST", payload=payload, raw=raw)

    def query(**fields):
        return post("/v1/query", {"tenant": "demo", **fields})

    try:
        base = server.url
        status, body, _ = _http(f"{base}/v1/health")
        run_case("health", _response("health", status, 200, body)[0])
        status, body, _ = query(statement=statement)
        run_case("query", _response("query", status, 200, body)[0])
        status, body, _ = query(statement=statement, offset=2, limit=3)
        problems, document = _response("query", status, 200, body)
        run_case("query: paged",
                 problems
                 + ([] if (document.get("offset"), document.get("returned"))
                    == (2, 3) else ["offset/returned must echo the page"]))
        status, body, _ = query(statement=INF_STATEMENT)
        problems, document = _response("query", status, 200, body)
        run_case("query: inf comparison",
                 problems
                 + ([] if document.get("comparison")
                    and set(document["comparison"]) == {None}
                    else ["non-finite comparison values must be null"]))
        status, body, _ = post(
            "/v1/batch",
            {"tenant": "demo", "statements": [statement, statement]},
        )
        run_case("batch", _response("batch", status, 200, body)[0])
        status, body, _ = post(
            "/v1/explain",
            {"tenant": "demo", "statement": statement, "plan": "NP"},
        )
        run_case("explain", _response("explain", status, 200, body)[0])
        status, body, _ = _http(f"{base}/v1/tenants/demo/stats")
        run_case("stats", _response("stats", status, 200, body)[0])
        status, body, _ = _http(f"{base}/v1/metrics")
        run_case("metrics", ([] if status == 200 else [f"status {status}"])
                 + validate_metrics_text(body.decode("utf-8")))
        # Error paths — each must come back as a valid envelope.
        status, body, _ = post("/v1/query", raw=b"{nope")
        run_case("error: bad json", _response("error", status, 400, body)[0])
        status, body, _ = query(statement=statement, limit=-1)
        run_case("error: bad page", _response("error", status, 400, body)[0])
        status, body, _ = post(
            "/v1/query", {"tenant": "ghost", "statement": statement}
        )
        run_case("error: unknown tenant",
                 _response("error", status, 404, body)[0])
        status, body, _ = query(statement=statement.replace("SALES", "NOPE"))
        problems, document = _response("error", status, 422, body)
        run_case("error: lint failure",
                 problems
                 + ([] if document.get("error", {}).get("diagnostics")
                    else ["lint envelope must carry diagnostics"]))
        # '²'.isdigit() but float('²') raises: a syntax error, not a 500.
        status, body, _ = query(
            statement=statement.replace("labels", "against 10² labels")
        )
        problems, document = _response("error", status, 422, body)
        codes = [d.get("code") for d in
                 document.get("error", {}).get("diagnostics", [])]
        run_case("error: non-decimal digit",
                 problems
                 + ([] if "ASSESS001" in codes
                    else [f"expected an ASSESS001 diagnostic, got {codes}"]))
        status, body, _ = _http(f"{base}/v1/query", "GET")
        run_case("error: wrong method",
                 _response("error", status, 405, body)[0])
        status, body, _ = _http(f"{base}/v1/nope", "GET")
        run_case("error: unknown path",
                 _response("error", status, 404, body)[0])
    finally:
        server.shutdown(grace_s=5.0)
    return failures


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _read_json(path):
    if path is None:
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _report(kind, problems, detail=""):
    for problem in problems:
        print(problem)
    print(f"check-schema {kind}: {'FAIL' if problems else 'OK'} "
          f"({detail}{len(problems)} violation(s))", file=sys.stderr)
    return 1 if problems else 0


def check_qlog(args):
    directories = args.directories or [Settings.from_env().telemetry_dir]
    if not directories[0]:
        print("check-schema qlog: no directory given and "
              "REPRO_TELEMETRY_DIR is unset", file=sys.stderr)
        return 2
    failed = False
    for directory in directories:
        if not os.path.isdir(directory):
            print(f"{directory}: not a directory", file=sys.stderr)
            return 2
        problems, records = check_directory(directory)
        failed |= bool(_report("qlog", problems,
                               f"{directory}: {records} record(s), "))
    return 1 if failed else 0


def check_document(spec):
    def run(args):
        try:
            document = _read_json(args.path)
        except ValueError as exc:
            return _report(args.command, [f"not JSON: {exc}"])
        return _report(args.command, violations(document, spec))
    return run


def check_server(args):
    if args.live:
        return _report("server --live", run_live_checks(rows=args.rows))
    return check_document(RESPONSES[args.endpoint])(args)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    qlog = commands.add_parser("qlog", help="query-log directories")
    qlog.add_argument("directories", nargs="*", metavar="DIR")
    qlog.set_defaults(run=check_qlog)
    for name, spec, what in (
        ("workload", WORKLOAD_DOCUMENT, "repro lint --format=json"),
        ("trace", TRACE_REPORT, "repro trace --json"),
    ):
        command = commands.add_parser(name, help=f"a {what} document")
        command.add_argument("path", nargs="?", metavar="FILE")
        command.set_defaults(run=check_document(spec))
    server = commands.add_parser("server", help="server response bodies")
    server.add_argument("path", nargs="?", metavar="FILE")
    server.add_argument("--endpoint", choices=sorted(RESPONSES),
                        help="which endpoint the document is from")
    server.add_argument("--live", action="store_true",
                        help="start an in-process server and check every "
                        "endpoint, error paths included")
    server.add_argument("--rows", type=int, default=2000,
                        help="demo cube rows for --live (default: 2000)")
    server.set_defaults(run=check_server)
    args = parser.parse_args(argv)
    if args.command == "server" and not (args.live or args.endpoint):
        server.error("--endpoint is required without --live")
    return args


def main(argv=None):
    args = parse(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Validate a persistent query-log directory against the record schema.

Walks every ``queries-*.jsonl`` segment of a telemetry directory (the
one sessions write when ``REPRO_TELEMETRY_DIR`` is set) and checks each
record against the schema-v1 contract in :mod:`repro.obs.qlog`: version
marker, required fields, field types, non-negative phase timings,
integer counters, and the ok/error status invariants.  Any line that is
not valid JSON is itself a violation here — the CI job must fail on a
torn or truncated record even though readers skip them by default.

Exit 1 on the first directory with violations, so the CI
telemetry-smoke job fails when the record schema drifts silently.

Usage::

    REPRO_TELEMETRY_DIR=/tmp/telemetry python -m repro.cli ...
    python tools/check_qlog_schema.py /tmp/telemetry
"""

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.qlog import (  # noqa: E402
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    QueryLogError,
    validate_record,
)
from repro.settings import Settings  # noqa: E402


def check_directory(directory):
    """Every schema violation in a telemetry directory, as strings."""
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
                try:
                    validate_record(record, where)
                except QueryLogError as exc:
                    problems.append(str(exc))
                records += 1
    if segments and not records:
        problems.append(f"{directory}: segments exist but hold no records")
    return problems, records


def main(argv):
    if not argv:
        argv = [Settings.from_env().telemetry_dir]
    if not argv[0]:
        print("usage: check_qlog_schema.py TELEMETRY_DIR", file=sys.stderr)
        return 2
    failed = False
    for directory in argv:
        if not os.path.isdir(directory):
            print(f"{directory}: not a directory", file=sys.stderr)
            return 2
        problems, records = check_directory(directory)
        for problem in problems:
            print(problem)
        status = "FAIL" if problems else "OK"
        print(
            f"check-qlog-schema: {status} ({directory}: {records} record(s), "
            f"{len(problems)} violation(s))",
            file=sys.stderr,
        )
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

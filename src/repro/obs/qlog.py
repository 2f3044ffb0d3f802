"""The persistent query log: one JSONL record per executed statement.

The in-process tracer and metrics registry (PR 4) vanish on exit; the
query log is the durable tier.  When a session is created with
``telemetry=`` (or ``REPRO_TELEMETRY_DIR`` is set), every executed
statement appends one JSON record — canonical statement fingerprint,
plan provenance, per-phase timings, engine/cache/batch/parallel/spill
counter deltas, rows in/out, peak RSS — to an append-only segment file
in the telemetry directory.  ``repro history`` and the regression
watchdog (:mod:`repro.obs.watchdog`) aggregate those records across
runs, which is what turns one process's counters into a workload
history.

Durability and concurrency model:

* records are written with a **single** ``os.write`` on an
  ``O_APPEND`` descriptor, so concurrent sessions — including separate
  processes — appending to the same log never produce torn records
  (POSIX appends of one ``write`` call are atomic with respect to each
  other);
* the log **rotates by segment**: writes go to the highest-numbered
  ``queries-NNNNNNNN.jsonl`` file and a new segment is started (with
  ``O_CREAT | O_EXCL``, so two writers cannot both create it) once the
  current one exceeds ``max_bytes``; old segments beyond ``keep`` are
  pruned;
* readers (:func:`iter_records`) scan the segments oldest-first and,
  by default, skip unparseable lines rather than failing — a crashed
  writer must not take the history down with it.

The record schema is versioned (``"v": 1``) and declared as
:data:`QLOG_RECORD`, which ``tools/check_schema.py qlog`` checks; see
``docs/observability.md`` for the field-by-field description.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..contract import NON_NEGATIVE, NUMBER, require

QLOG_SCHEMA_VERSION = 1
"""Bump when a record field changes meaning; the validator pins it."""

SEGMENT_PREFIX = "queries-"
SEGMENT_SUFFIX = ".jsonl"

DEFAULT_MAX_BYTES = 16 * 1024 * 1024
DEFAULT_KEEP = 8

QLOG_RECORD = {
    "required": {
        "v": {QLOG_SCHEMA_VERSION},
        "ts": NUMBER,
        "session": str,
        "seq": int,
        "fingerprint": str,
        "cube": str,
        "measure": str,
        "group_by": [str],
        "benchmark": str,
        "plan": str,
        "status": {"ok", "error"},
        "phases": {"values": NON_NEGATIVE},
        "total_s": NON_NEGATIVE,
        "rows_in": int,
        "rows_out": int,
        "cells_out": int,
        "counters": {"values": int},
        "peak_rss_kb": int,
    },
    "check": lambda record: (
        [] if record["status"] == "ok" or isinstance(record.get("error"), str)
        else ["an error record needs an 'error' string"]
    ),
}
"""The contract of one record; other keys (``error``, ``batch``, ...) may
appear."""


def statement_fingerprint(statement) -> str:
    """The canonical fingerprint of an assess statement.

    Built from the statement's *semantic* content — cube, sorted
    group-by levels, measure, normalised predicates, benchmark, using
    expression, labeling — so the same intention spelled with
    reordered predicates or group-by levels aggregates under one key in
    the history, exactly like the pushed-query fingerprints of
    :mod:`repro.cache.fingerprint` do for the result cache.
    """
    from ..cache.fingerprint import normalize_predicate

    parts = (
        "v1",
        statement.source,
        "|".join(sorted(statement.group_by.levels)),
        statement.measure,
        repr(tuple(sorted(
            (predicate.level, normalize_predicate(predicate))
            for predicate in statement.predicates
        ))),
        statement.benchmark.render(),
        statement.using.render(),
        statement.labels.render(),
        "star" if statement.star else "",
    )
    digest = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


class QueryLogError(ValueError):
    """A malformed query-log record or directory."""


class QueryLog:
    """An append-only, size-rotated JSONL log of executed statements.

    One instance per session (several instances may share a directory;
    appends stay atomic).  All methods are thread-safe.
    """

    def __init__(
        self,
        directory,
        max_bytes: int = DEFAULT_MAX_BYTES,
        keep: int = DEFAULT_KEEP,
    ):
        if max_bytes <= 0:
            raise QueryLogError("max_bytes must be positive")
        if keep < 1:
            raise QueryLogError("keep must be at least 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.keep = keep
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._segment: Optional[Path] = None

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, object]) -> None:
        """Serialize and append one record (a single atomic write)."""
        line = json.dumps(
            record, separators=(",", ":"), sort_keys=True, default=_jsonable
        ).encode("utf-8") + b"\n"
        with self._lock:
            fd = self._ensure_segment(len(line))
            os.write(fd, line)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
                self._segment = None

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _ensure_segment(self, incoming: int) -> int:
        """The fd to append to, rotating first if the segment is full.

        Called under the lock.  Sizes are checked with ``fstat`` on the
        open descriptor, so concurrent writers sharing a segment all
        observe its true size and rotate at (about) the same boundary —
        ``O_CREAT | O_EXCL`` ensures only one of them creates the next
        segment; the others simply open it.
        """
        if self._fd is None:
            self._open_segment(self._latest_segment())
        assert self._fd is not None and self._segment is not None
        if os.fstat(self._fd).st_size + incoming > self.max_bytes:
            next_index = _segment_index(self._segment) + 1
            os.close(self._fd)
            self._fd = None
            self._open_segment(self._segment_path(next_index), create=True)
            self._prune()
        return self._fd

    def _open_segment(self, path: Path, create: bool = False) -> None:
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        if create:
            try:
                self._fd = os.open(path, flags | os.O_EXCL, 0o644)
            except FileExistsError:
                # Another writer rotated first; append to their segment.
                self._fd = os.open(path, flags, 0o644)
        else:
            self._fd = os.open(path, flags, 0o644)
        self._segment = path

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"

    def _latest_segment(self) -> Path:
        existing = _segments(self.directory)
        if existing:
            return existing[-1]
        return self._segment_path(1)

    def _prune(self) -> None:
        segments = _segments(self.directory)
        for stale in segments[: max(len(segments) - self.keep, 0)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing writers
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryLog({str(self.directory)!r})"


def _jsonable(value):
    """JSON fallback: numpy scalars and Paths appear in counter dicts."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def _segments(directory: Path) -> List[Path]:
    return sorted(
        child for child in directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
        if child.is_file()
    )


def _segment_index(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return 1


def iter_records(
    directory, strict: bool = False
) -> Iterator[Dict[str, object]]:
    """Yield every record in a telemetry directory, oldest first.

    ``strict=True`` raises :class:`QueryLogError` on an unparseable
    line; the default skips it (a record torn by a crashed writer must
    not poison the whole history).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise QueryLogError(f"not a telemetry directory: {directory}")
    for segment in _segments(directory):
        with open(segment, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    if strict:
                        raise QueryLogError(
                            f"{segment.name}:{number}: unparseable record"
                        )
                    continue
                if isinstance(record, dict):
                    yield record
                elif strict:
                    raise QueryLogError(
                        f"{segment.name}:{number}: record is not an object"
                    )


def validate_record(record: object, where: str = "record") -> None:
    """Raise :class:`QueryLogError` unless ``record`` meets :data:`QLOG_RECORD`."""
    require(record, QLOG_RECORD, QueryLogError, where)


def counters_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Non-zero counter increments between two registry snapshots."""
    delta: Dict[str, int] = {}
    for name, value in after.items():
        change = value - before.get(name, 0)
        if change:
            delta[name] = change
    return delta


def build_record(
    statement,
    *,
    session_id: str,
    seq: int,
    plan_name: str,
    status: str,
    total_s: float,
    phases: Optional[Dict[str, float]] = None,
    rows_out: int = 0,
    cells_out: int = 0,
    counters: Optional[Dict[str, int]] = None,
    error: Optional[str] = None,
    batch: Optional[str] = None,
    parallelism: int = 1,
    memory_budget: Optional[int] = None,
    profiled: bool = False,
    ts: Optional[float] = None,
) -> Dict[str, object]:
    """Assemble one schema-v1 record for an executed statement."""
    from .rss import peak_rss_kb

    counters = dict(counters or {})
    record: Dict[str, object] = {
        "v": QLOG_SCHEMA_VERSION,
        "ts": time.time() if ts is None else ts,
        "session": session_id,
        "seq": seq,
        "fingerprint": statement_fingerprint(statement),
        "cube": statement.source,
        "measure": statement.measure,
        "group_by": list(statement.group_by.levels),
        "benchmark": statement.benchmark.render(),
        "plan": plan_name,
        "status": status,
        "phases": {
            step: round(seconds, 9)
            for step, seconds in (phases or {}).items()
        },
        "total_s": round(total_s, 9),
        "rows_in": int(counters.get("engine.rows_scanned", 0)),
        "rows_out": int(rows_out),
        "cells_out": int(cells_out),
        "counters": counters,
        "peak_rss_kb": peak_rss_kb(),
        "parallelism": int(parallelism),
    }
    if memory_budget is not None:
        record["memory_budget"] = int(memory_budget)
    if error is not None:
        record["error"] = error
    if batch is not None:
        record["batch"] = batch
    if profiled:
        record["profiled"] = True
    return record

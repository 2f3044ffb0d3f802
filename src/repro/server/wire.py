"""Wire format: assess results and diagnostics as JSON documents.

One serializer, used by both the HTTP handlers and the test battery —
``tests/test_server_concurrency.py`` proves served responses are
bit-identical to direct :class:`~repro.api.AssessSession` execution by
serializing the direct result through these same functions and
comparing parsed JSON trees.

A result travels as the relation it is (Section 4.1: schema
``(H, ⟨m, m_B, m_Δ, m_λ⟩)``): one list per level under ``coordinates``
and one each for ``value``, ``benchmark``, ``comparison`` and ``label``,
all of equal length and in the canonical cell order of
:meth:`AssessResult.order`.  The lists are gathered from the result
cube's arrays (``ndarray[rows].tolist()``), so no Python object is made
per cell.  Floats round-trip exactly through ``json`` (``repr``
encoding); every non-finite value — ``NaN`` *and* ``±inf``, which
``ratio()`` against a zero benchmark produces — is mapped to ``null`` so
the documents stay strict JSON.

The response schema is versioned (:data:`SCHEMA_VERSION`) and declared
per endpoint in :data:`RESPONSES`, which ``tools/check_schema.py server``
checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..contract import COUNT, NON_NEGATIVE, NULL, NUMBER
from ..core.diagnostics import DIAGNOSTIC_JSON

SCHEMA_VERSION = 2
"""Bump when a response field changes meaning; the validator pins it."""

PLAN_NAMES = frozenset({"NP", "JOP", "POP"})
ERROR_CODES = frozenset({
    "bad_json", "bad_request", "unknown_tenant", "lint_failed",
    "overloaded", "deadline_exceeded", "shutting_down",
    "method_not_allowed", "not_found", "payload_too_large", "internal",
    # the stdlib's protocol errors, sent through the same envelope
    "request_uri_too_long", "request_header_fields_too_large",
    "not_implemented", "http_version_not_supported",
})


def _result_rules(body: Dict[str, object]) -> List[str]:
    """The rules of a result body that relate two of its fields."""
    rows, offset, returned = body["rows"], body["offset"], body["returned"]
    columns = {f"coordinates.{level}": column
               for level, column in body["coordinates"].items()}
    columns.update((key, body[key])
                   for key in ("value", "benchmark", "comparison", "label"))
    problems = [f"len({key}) ({len(column)}) != returned ({returned})"
                for key, column in columns.items() if len(column) != returned]
    if returned > max(rows - offset, 0):
        problems.append(f"returned ({returned}) exceeds rows - offset "
                        f"({rows} - {offset})")
    if sorted(body["coordinates"]) != sorted(body["levels"]):
        problems.append(f"coordinates keys {sorted(body['coordinates'])} "
                        f"!= levels {sorted(body['levels'])}")
    if sum(body["label_counts"].values()) != rows:
        problems.append(f"label_counts sum ({sum(body['label_counts'].values())}) "
                        f"!= rows ({rows})")
    return problems


RESULT = {
    "closed": True,
    "required": {
        "plan": PLAN_NAMES,
        "levels": [str],
        "measure": str,
        "rows": COUNT,
        "offset": COUNT,
        "returned": COUNT,
        "coordinates": {"values": [(str, int, float, bool, NULL)]},
        "value": [(*NUMBER, NULL)],
        "benchmark": [(*NUMBER, NULL)],
        "comparison": [(*NUMBER, NULL)],
        "label": [(str, NULL)],
        "label_counts": {"values": COUNT},
        "timings": {"values": NON_NEGATIVE},
    },
    "check": _result_rules,
}
"""One :func:`serialize_result` body (a query response or a batch item)."""

_ENVELOPE = {"schema_version": {SCHEMA_VERSION}, "tenant": str}
RESPONSES = {
    "query": {**RESULT, "required": {
        **RESULT["required"], **_ENVELOPE, "elapsed_s": NON_NEGATIVE,
    }},
    "batch": {
        "required": {
            **_ENVELOPE,
            "results": {"type": list, "items": RESULT, "min_len": 1},
            "seconds": [NON_NEGATIVE],
            "sharing": {"required": dict.fromkeys(
                ("engine_scans", "cache_hits", "cache_derivations"), COUNT
            )},
        },
        "check": lambda document: (
            [] if len(document["seconds"]) == len(document["results"])
            else ["seconds must hold one number per result"]
        ),
    },
    "explain": {"required": {
        **_ENVELOPE,
        "plan": str,
        "plans": {"type": list, "items": PLAN_NAMES, "min_len": 1},
        "explain": {"type": str, "pattern": r"\S"},
    }},
    "health": {"required": {
        "schema_version": {SCHEMA_VERSION},
        "status": {"ok", "draining"},
        "tenants": [str],
        **dict.fromkeys(("uptime_s", "in_flight", "requests_total"),
                        NON_NEGATIVE),
    }},
    "stats": {
        "required": {
            **_ENVELOPE,
            "cube": str,
            "pool": {
                "required": dict.fromkeys(("size", "available", "in_use"), COUNT),
                "check": lambda pool: (
                    [] if pool["available"] + pool["in_use"] == pool["size"]
                    else ["available + in_use != size"]
                ),
            },
            "admission": {"required": dict.fromkeys(
                ("admitted", "completed", "errors", "rejected_queue_full",
                 "rejected_deadline", "max_queue", "waiting"), COUNT,
            )},
            "cache": dict,
            "counters": dict,
        },
        "optional": {"telemetry": {"required": {
            "directory": str, "records": COUNT, "fingerprints": COUNT,
            "sessions": [str], "advisories": list,
        }}},
    },
    "error": {"required": {
        "schema_version": {SCHEMA_VERSION},
        "error": {
            "required": {
                "status": {"type": int, "min": 400, "max": 599},
                "code": ERROR_CODES,
                "message": {"type": str, "min_len": 1},
            },
            "optional": {
                "diagnostics": {
                    "type": list,
                    "min_len": 1,
                    "items": {"required": {
                        key: spec
                        for key, spec in DIAGNOSTIC_JSON["required"].items()
                        if key != "source"
                    }},
                },
                "retry_after_s": NON_NEGATIVE,
            },
        },
    }},
}
"""Each endpoint's response document (every non-200 is ``error``)."""

_JSON_SCALARS = {str, int, bool, type(None)}


def _numbers(column: np.ndarray, rows: np.ndarray) -> List[Optional[float]]:
    """A contract column at ``rows`` as JSON numbers (non-finite → null)."""
    picked = np.asarray(column[rows], dtype=np.float64)
    numbers: List[Optional[float]] = picked.tolist()
    for position in np.flatnonzero(~np.isfinite(picked)).tolist():
        numbers[position] = None
    return numbers


def _member(value) -> object:
    """A coordinate member as a JSON scalar (numpy scalars unwrapped)."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    return str(value)


def _members(column: np.ndarray) -> List[object]:
    """A coordinate column as JSON scalars.

    Columns of plain ``str``/``int`` members — every level of the
    bundled cubes — pass through untouched; anything else (dates, numpy
    scalars boxed in an object array, floats) is converted per member.
    """
    members = column.tolist()
    if not set(map(type, members)) <= _JSON_SCALARS:
        members = [_member(member) for member in members]
    return members


def _label_key(label) -> str:
    return "null" if label is None else str(label)


def serialize_result(
    result, offset: int = 0, limit: Optional[int] = None
) -> Dict[str, object]:
    """One :class:`~repro.core.result.AssessResult` as a JSON document.

    Columns come out in the canonical order of ``result.order()``, so
    two executions of the same statement — served or direct, serial or
    parallel — serialize identically.  ``offset``/``limit`` slice that
    order before any list is built; ``rows`` and ``label_counts`` always
    describe the whole result, ``returned`` the slice.
    """
    cube = result.cube
    levels = list(cube.group_by.levels)
    rows = result.order()[offset: None if limit is None else offset + limit]
    return {
        "plan": result.plan_name,
        "levels": levels,
        "measure": result.measure,
        "rows": len(result),
        "offset": offset,
        "returned": len(rows),
        "coordinates": {
            level: _members(cube.coords[level][rows]) for level in levels
        },
        "value": _numbers(cube.measure(result.measure), rows),
        "benchmark": _numbers(cube.measure(result.benchmark_measure), rows),
        "comparison": _numbers(cube.measure(result.comparison_measure), rows),
        "label": cube.measure(result.label_measure)[rows].tolist(),
        "label_counts": {
            _label_key(label): count
            for label, count in sorted(
                result.label_counts().items(), key=lambda item: _label_key(item[0])
            )
        },
        "timings": {
            step: round(float(seconds), 9)
            for step, seconds in result.timings.items()
        },
    }


def serialize_batch(batch) -> Dict[str, object]:
    """A :class:`~repro.batch.BatchResult` (results + sharing report)."""
    return {
        "results": [serialize_result(result) for result in batch.results],
        "seconds": [round(float(seconds), 9) for seconds in batch.seconds],
        "sharing": {
            key: value for key, value in batch.report.to_dict().items()
        },
    }


def serialize_diagnostics(bag) -> List[Dict[str, object]]:
    """A diagnostic bag in the lint JSON layout (ASSESSxxx codes first-class)."""
    documents: List[Dict[str, object]] = []
    for diagnostic in bag.sorted():
        span = diagnostic.span
        documents.append({
            "code": diagnostic.code,
            "severity": str(diagnostic.severity),
            "message": diagnostic.message,
            "span": None if span is None else {
                "start": span.start,
                "end": span.end,
                "line": span.line,
                "column": span.column,
            },
            "hint": diagnostic.hint,
        })
    return documents

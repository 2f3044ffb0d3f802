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

The response schema is versioned (:data:`SCHEMA_VERSION`) and
structurally validated by ``tools/check_server_schema.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

SCHEMA_VERSION = 2
"""Bump when a response field changes meaning; the validator pins it."""

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

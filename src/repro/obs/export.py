"""Trace export: the span-tree JSON schema and Chrome ``trace_event``.

The JSON document (``trace_to_json``) is the stable interchange format
of ``repro trace --json`` and the one CI validates:

.. code-block:: text

    {
      "version": 1,
      "spans": [            # top-level spans, one per statement/batch
        {
          "name": str,
          "start_us": number,      # relative to the first span's start
          "duration_us": number,
          "attrs": {str: scalar},  # row counts, outcomes, node ids, ...
          "children": [<span>, ...]
        },
        ...
      ]
    }

:data:`TRACE` declares that contract for :func:`repro.contract.violations`;
:func:`validate_trace` raises :class:`TraceFormatError` with the first
violation, path included.

``trace_to_chrome`` flattens the same tree into the Chrome / Perfetto
``trace_event`` array format (``chrome://tracing``, https://ui.perfetto.dev):
one complete ``"ph": "X"`` event per span, nesting reconstructed from
timestamps on a single thread track.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..contract import NON_NEGATIVE, require
from .tracer import Span, Tracer

_SCALARS = (str, int, float, bool, type(None))

TRACE_SPAN = {
    "closed": True,
    "required": {
        "name": {"type": str, "min_len": 1},
        "start_us": NON_NEGATIVE,
        "duration_us": NON_NEGATIVE,
        "attrs": {"values": _SCALARS},
    },
}
TRACE_SPAN["required"]["children"] = [TRACE_SPAN]
TRACE = {"required": {"version": {1}, "spans": [TRACE_SPAN]}}
"""The ``trace_to_json`` document: a version and a tree of spans."""


class TraceFormatError(ValueError):
    """A trace document violates the span-tree schema."""


def _first_start(roots: Sequence[Span]) -> float:
    return min((span.start for span in roots), default=0.0)


def span_to_dict(span: Span, epoch: float) -> Dict[str, object]:
    """One span (and its subtree) as a JSON-ready dict."""
    return {
        "name": span.name,
        "start_us": round((span.start - epoch) * 1e6, 3),
        "duration_us": round(span.duration * 1e6, 3),
        "attrs": {
            key: (value if isinstance(value, _SCALARS) else repr(value))
            for key, value in span.attrs.items()
        },
        "children": [span_to_dict(child, epoch) for child in span.children],
    }


def trace_to_json(tracer: Tracer) -> Dict[str, object]:
    """The whole trace as the versioned JSON document."""
    epoch = _first_start(tracer.roots)
    return {
        "version": 1,
        "spans": [span_to_dict(span, epoch) for span in tracer.roots],
    }


def trace_to_chrome(tracer: Tracer) -> List[Dict[str, object]]:
    """The trace as a Chrome ``trace_event`` array (complete events)."""
    epoch = _first_start(tracer.roots)
    events: List[Dict[str, object]] = []

    def emit(span: Span) -> None:
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - epoch) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {
                key: (value if isinstance(value, _SCALARS) else repr(value))
                for key, value in span.attrs.items()
            },
        })
        for child in span.children:
            emit(child)

    for root in tracer.roots:
        emit(root)
    return events


def validate_trace(document: object) -> None:
    """Raise :class:`TraceFormatError` unless ``document`` meets :data:`TRACE`."""
    require(document, TRACE, TraceFormatError)


def render_span_tree(tracer: Tracer, min_us: float = 0.0) -> str:
    """Human-readable indented rendering of the trace (the CLI default)."""
    lines: List[str] = []

    def render(span: Span, indent: int) -> None:
        attrs = ", ".join(
            f"{key}={value}" for key, value in span.attrs.items()
            if key != "node_id"
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{'  ' * indent}{span.name:<18} {1000 * span.duration:8.3f} ms"
            f"{suffix}"
        )
        for child in span.children:
            render(child, indent + 1)

    for root in tracer.roots:
        render(root, 0)
    return "\n".join(lines)


def summarize_spans(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Aggregate the trace by span name: call count and total/self ms.

    Self time excludes child spans, so the per-name self totals add up
    to (at most) the traced wall clock — the view ``harness.py --trace``
    prints after each experiment.
    """
    summary: Dict[str, Dict[str, float]] = {}

    def visit(span: Span) -> None:
        bucket = summary.setdefault(
            span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        bucket["count"] += 1
        bucket["total_ms"] += 1000 * span.duration
        bucket["self_ms"] += 1000 * span.self_time
        for child in span.children:
            visit(child)

    for root in tracer.roots:
        visit(root)
    return summary


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
def _prom_name(name: str, namespace: str = "repro") -> str:
    """A metric name sanitized to Prometheus's [a-zA-Z0-9_:] alphabet."""
    import re

    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return f"{namespace}_{cleaned}"


def _prom_value(value: float) -> str:
    import math

    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


def to_prometheus(metrics=None, hub=None, namespace: str = "repro") -> str:
    """The metrics registry (+ optional telemetry hub) as Prometheus text.

    * every **counter** exports as ``<ns>_<name>_total`` (dots become
      underscores: ``engine.scans`` → ``repro_engine_scans_total``);
    * every registry **running-stat histogram** (the tracer-fed
      ``<span>.seconds`` entries) exports its count/sum/min/max as
      gauges;
    * every hub **log-bucketed latency histogram** exports as a real
      Prometheus histogram (cumulative ``le`` buckets + ``_count`` +
      ``_sum``) plus convenience p50/p95/p99 gauges.

    With no arguments it exports the process-wide :data:`METRICS`
    roll-up — the "scrape the process" default.
    """
    from .metrics import METRICS

    registry = METRICS if metrics is None else metrics
    lines: List[str] = []
    snapshot = registry.snapshot()

    for name in sorted(snapshot["counters"]):
        family = _prom_name(name, namespace) + "_total"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {snapshot['counters'][name]}")

    for name in sorted(snapshot["histograms"]):
        bucket = snapshot["histograms"][name]
        family = _prom_name(name, namespace)
        lines.append(f"# TYPE {family}_count gauge")
        lines.append(f"{family}_count {int(bucket.get('count', 0))}")
        lines.append(f"# TYPE {family}_sum gauge")
        lines.append(f"{family}_sum {_prom_value(bucket.get('total', 0.0))}")
        for stat in ("min", "max"):
            value = bucket.get(stat)
            if value is not None and abs(value) != float("inf"):
                lines.append(f"# TYPE {family}_{stat} gauge")
                lines.append(f"{family}_{stat} {_prom_value(value)}")

    if hub is not None:
        lines.extend(_hub_to_prometheus(hub, namespace))
    return "\n".join(lines) + ("\n" if lines else "")


def _hub_to_prometheus(hub, namespace: str) -> List[str]:
    lines: List[str] = []
    snapshot = hub.snapshot()
    for name in sorted(snapshot["histograms"]):
        histogram = hub.histogram(name)
        if histogram is None:  # pragma: no cover - racing reset
            continue
        family = _prom_name(name, namespace)
        lines.append(f"# TYPE {family} histogram")
        for upper, cumulative in histogram.cumulative_buckets():
            lines.append(
                f'{family}_bucket{{le="{_prom_value(upper)}"}} {cumulative}'
            )
        lines.append(f"{family}_count {histogram.count}")
        lines.append(f"{family}_sum {_prom_value(histogram.total)}")
        summary = snapshot["histograms"][name]
        for quantile in ("p50", "p95", "p99"):
            lines.append(f"# TYPE {family}_{quantile} gauge")
            lines.append(f"{family}_{quantile} {_prom_value(summary[quantile])}")
    for name in sorted(snapshot["series"]):
        if name in snapshot["histograms"]:
            continue  # latency series already exported as a histogram
        family = _prom_name(name, namespace)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_prom_value(snapshot['series'][name]['last'])}")
    return lines


def render_span_summary(summary: Dict[str, Dict[str, float]]) -> str:
    """The span summary as an aligned table, busiest (self time) first."""
    lines = [f"{'span':<22} {'count':>7} {'total ms':>12} {'self ms':>12}"]
    for name, bucket in sorted(
        summary.items(), key=lambda item: -item[1]["self_ms"]
    ):
        lines.append(
            f"{name:<22} {bucket['count']:>7,} {bucket['total_ms']:>12.1f} "
            f"{bucket['self_ms']:>12.1f}"
        )
    return "\n".join(lines)

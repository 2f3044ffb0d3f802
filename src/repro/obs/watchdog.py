"""The regression watchdog: workload history aggregation + advisories.

Reads the persistent query log (:mod:`repro.obs.qlog`), folds it into
per-fingerprint statistics (run counts, exact p50/p95/p99 latency,
cache/spill/parallel behaviour), compares against a stored baseline,
and emits runtime ``ASSESS41x`` advisories:

* ``ASSESS410`` — a query's p95 latency regressed past
  ``slow_factor``× its baseline (the "someone made it slow" alarm);
* ``ASSESS411`` — cache-miss storm: a query that used to be served
  from the semantic cache now mostly misses (invalidation churn or an
  evicted working set);
* ``ASSESS412`` — spill pressure: most runs of a query go through the
  bounded-memory spill tier (the budget is undersized for the
  workload);
* ``ASSESS413`` — parallel-fallback storm: the float-exactness gate
  keeps declining the parallel merge, so a configured parallelism is
  not actually being used.

The percentiles here are *exact* (numpy over the recorded latencies),
unlike the bounded-error log-bucketed estimates the live
:class:`~repro.obs.timeseries.TelemetryHub` serves — history files are
small enough to afford exactness, and the acceptance tests pin the
values against numpy directly.

``repro history`` is the CLI face of this module; the advisory catalog
lives in ``docs/observability.md`` and the codes in
``docs/language.md``.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional

from .qlog import iter_records

BASELINE_VERSION = 1
BASELINE_FILENAME = "baseline.json"

DEFAULT_SLOW_FACTOR = 3.0
DEFAULT_MIN_RUNS = 2
STORM_FRACTION = 0.5  # "most runs" threshold for 412/413
CACHE_DROP = 0.5      # 411: hit rate fell below half the baseline rate


class Advisory(NamedTuple):
    """One watchdog finding, mirroring a static diagnostic's shape."""

    code: str
    fingerprint: str
    message: str

    def render(self) -> str:
        from ..analysis.codes import ALL_CODES

        severity = ALL_CODES[self.code].severity
        return f"{severity}: {self.code} [{self.fingerprint}] {self.message}"


class FingerprintStats:
    """Aggregated history of one statement fingerprint."""

    __slots__ = (
        "fingerprint", "cube", "measure", "group_by", "benchmark", "plans",
        "runs", "errors", "latencies", "rows_in", "rows_out", "cells_out",
        "cache_hits", "cache_misses", "cache_derivations", "engine_scans",
        "spill_runs", "spills", "parallel_runs", "fallback_runs",
        "fallbacks", "first_ts", "last_ts", "phase_totals", "keep_latencies",
    )

    def __init__(self, fingerprint: str, keep_latencies: bool = True):
        self.fingerprint = fingerprint
        self.keep_latencies = keep_latencies
        self.cube = ""
        self.measure = ""
        self.group_by: List[str] = []
        self.benchmark = ""
        self.plans: Dict[str, int] = {}
        self.runs = 0
        self.errors = 0
        self.latencies: List[float] = []
        self.rows_in = 0
        self.rows_out = 0
        self.cells_out = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_derivations = 0
        self.engine_scans = 0
        self.spill_runs = 0
        self.spills = 0
        self.parallel_runs = 0
        self.fallback_runs = 0
        self.fallbacks = 0
        self.first_ts = math.inf
        self.last_ts = 0.0
        self.phase_totals: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def add(self, record: Dict[str, object]) -> None:
        self.cube = str(record.get("cube", self.cube))
        self.measure = str(record.get("measure", self.measure))
        group_by = record.get("group_by")
        if isinstance(group_by, list):
            self.group_by = [str(level) for level in group_by]
        self.benchmark = str(record.get("benchmark", self.benchmark))
        plan = str(record.get("plan", ""))
        self.plans[plan] = self.plans.get(plan, 0) + 1
        self.runs += 1
        ts = float(record.get("ts", 0.0))
        self.first_ts = min(self.first_ts, ts)
        self.last_ts = max(self.last_ts, ts)
        if record.get("status") == "error":
            self.errors += 1
            return  # failed runs carry no meaningful timings
        if self.keep_latencies:
            self.latencies.append(float(record.get("total_s", 0.0)))
        self.rows_in += int(record.get("rows_in", 0))
        self.rows_out += int(record.get("rows_out", 0))
        self.cells_out += int(record.get("cells_out", 0))
        phases = record.get("phases")
        if isinstance(phases, dict):
            for step, seconds in phases.items():
                self.phase_totals[step] = (
                    self.phase_totals.get(step, 0.0) + float(seconds)
                )
        counters = record.get("counters")
        counters = counters if isinstance(counters, dict) else {}
        self.cache_hits += int(counters.get("cache.hits", 0))
        self.cache_misses += int(counters.get("cache.misses", 0))
        self.cache_derivations += int(counters.get("cache.derivations", 0))
        self.engine_scans += int(counters.get("engine.scans", 0))
        if int(counters.get("engine.spill.spills", 0)) > 0:
            self.spill_runs += 1
        self.spills += int(counters.get("engine.spill.spills", 0))
        if int(record.get("parallelism", 1)) > 1:
            self.parallel_runs += 1
            if int(counters.get("engine.parallel.fallbacks", 0)) > 0:
                self.fallback_runs += 1
        self.fallbacks += int(counters.get("engine.parallel.fallbacks", 0))

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Exact latency percentile (numpy 'linear' interpolation)."""
        if not self.latencies:
            return 0.0
        import numpy as np

        return float(np.percentile(np.asarray(self.latencies), q))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def cache_hit_rate(self) -> float:
        """Served-without-a-scan rate: (hits + derivations) / lookups."""
        lookups = self.cache_hits + self.cache_derivations + self.cache_misses
        if not lookups:
            return 0.0
        return (self.cache_hits + self.cache_derivations) / lookups

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_derivations + self.cache_misses

    def to_json(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "cube": self.cube,
            "measure": self.measure,
            "group_by": self.group_by,
            "benchmark": self.benchmark,
            "plans": dict(self.plans),
            "runs": self.runs,
            "errors": self.errors,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "cells_out": self.cells_out,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_lookups": self.cache_lookups,
            "engine_scans": self.engine_scans,
            "spill_runs": self.spill_runs,
            "spills": self.spills,
            "parallel_runs": self.parallel_runs,
            "fallback_runs": self.fallback_runs,
            "phase_totals_s": {
                step: round(seconds, 9)
                for step, seconds in sorted(self.phase_totals.items())
            },
        }


def aggregate_history(
    records: Iterable[Dict[str, object]],
    keep_latencies: bool = True,
) -> Dict[str, FingerprintStats]:
    """Fold query-log records into per-fingerprint statistics.

    ``keep_latencies=False`` keeps no per-run latency list (percentiles
    read 0 and ``ASSESS410`` cannot fire), so folding a stream of
    records holds memory in the fingerprints, not the records.
    """
    stats: Dict[str, FingerprintStats] = {}
    for record in records:
        fingerprint = str(record.get("fingerprint", ""))
        if not fingerprint:
            continue
        bucket = stats.get(fingerprint)
        if bucket is None:
            bucket = stats[fingerprint] = FingerprintStats(
                fingerprint, keep_latencies
            )
        bucket.add(record)
    return stats


def load_history(directory) -> Dict[str, FingerprintStats]:
    """Aggregate every record of a telemetry directory."""
    return aggregate_history(iter_records(directory))


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def write_baseline(
    history: Dict[str, FingerprintStats], path
) -> Dict[str, object]:
    """Persist per-fingerprint reference numbers for later comparison."""
    document = {
        "version": BASELINE_VERSION,
        "written_ts": time.time(),
        "fingerprints": {
            fingerprint: {
                "p50_s": stats.p50,
                "p95_s": stats.p95,
                "runs": stats.runs,
                "cube": stats.cube,
                "measure": stats.measure,
                "cache_hit_rate": stats.cache_hit_rate,
                "cache_lookups": stats.cache_lookups,
            }
            for fingerprint, stats in history.items()
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def load_baseline(path) -> Optional[Dict[str, Dict[str, float]]]:
    """The baseline's fingerprint map, or None when absent/unreadable."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        document = json.loads(path.read_text())
    except ValueError:
        return None
    if (
        not isinstance(document, dict)
        or document.get("version") != BASELINE_VERSION
    ):
        return None
    fingerprints = document.get("fingerprints")
    return fingerprints if isinstance(fingerprints, dict) else None


# ----------------------------------------------------------------------
# Advisories
# ----------------------------------------------------------------------
def watch(
    history: Dict[str, FingerprintStats],
    baseline: Optional[Dict[str, Dict[str, float]]] = None,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    min_runs: int = DEFAULT_MIN_RUNS,
) -> List[Advisory]:
    """Run every watchdog rule over the aggregated history."""
    advisories: List[Advisory] = []
    for fingerprint in sorted(history):
        stats = history[fingerprint]
        reference = (baseline or {}).get(fingerprint)
        advisories.extend(
            _watch_one(stats, reference, slow_factor, min_runs)
        )
    return advisories


def _watch_one(
    stats: FingerprintStats,
    reference: Optional[Dict[str, float]],
    slow_factor: float,
    min_runs: int,
) -> List[Advisory]:
    found: List[Advisory] = []
    label = f"{stats.cube}.{stats.measure} by {', '.join(stats.group_by)}"
    if reference and len(stats.latencies) >= min_runs:
        base_p95 = float(reference.get("p95_s", 0.0))
        if base_p95 > 0 and stats.p95 > slow_factor * base_p95:
            found.append(Advisory(
                "ASSESS410", stats.fingerprint,
                f"{label}: p95 {1000 * stats.p95:.1f} ms is "
                f"{stats.p95 / base_p95:.1f}x the baseline "
                f"{1000 * base_p95:.1f} ms "
                f"(threshold {slow_factor:g}x)",
            ))
        base_rate = float(reference.get("cache_hit_rate", 0.0))
        base_lookups = int(reference.get("cache_lookups", 0))
        if (
            base_rate >= 0.5
            and base_lookups >= min_runs
            and stats.cache_lookups >= min_runs
            and stats.cache_hit_rate < CACHE_DROP * base_rate
        ):
            found.append(Advisory(
                "ASSESS411", stats.fingerprint,
                f"{label}: cache hit rate fell to "
                f"{100 * stats.cache_hit_rate:.0f}% from a baseline of "
                f"{100 * base_rate:.0f}% (miss storm — check "
                f"invalidation churn and the cell budget)",
            ))
    if (
        stats.runs >= min_runs
        and stats.spill_runs / max(stats.runs, 1) >= STORM_FRACTION
    ):
        found.append(Advisory(
            "ASSESS412", stats.fingerprint,
            f"{label}: {stats.spill_runs}/{stats.runs} runs spilled "
            f"({stats.spills} partition flushes) — the memory budget is "
            f"undersized for this query's grouping state",
        ))
    if (
        stats.parallel_runs >= min_runs
        and stats.fallback_runs / max(stats.parallel_runs, 1)
        >= STORM_FRACTION
    ):
        found.append(Advisory(
            "ASSESS413", stats.fingerprint,
            f"{label}: {stats.fallback_runs}/{stats.parallel_runs} "
            f"parallel runs fell back to serial (float-exactness gate) — "
            f"configured parallelism is not being used",
        ))
    return found

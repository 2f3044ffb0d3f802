"""The catalog of stable diagnostic codes.

Every finding of the static analyzer carries one of these codes.  Codes are
grouped by the layer that produces them:

* ``ASSESS0xx`` — syntax errors surfaced as diagnostics;
* ``ASSESS1xx`` — statement passes (semantic checks on the raw AST);
* ``ASSESS2xx`` — plan passes (structural checks on logical plan trees);
* ``ASSESS3xx`` — batch passes (checks over a statement *list*, run by
  ``repro batch`` and :func:`repro.analysis.lint.batch_diagnostics`);
* ``ASSESS4xx`` — observability passes (pre-flight checks of ``repro
  trace`` and :meth:`AssessSession.explain_analyze`); the ``ASSESS41x``
  subrange is the *runtime* telemetry watchdog (``repro history``,
  :mod:`repro.obs.watchdog`), emitted over the persistent query log
  rather than over source text;
* ``ASSESS5xx`` — workload passes (whole-script abstract interpretation
  by :mod:`repro.analysis.flow`, run by ``repro lint --workload`` and
  :meth:`AssessSession.analyze_workload`).

The catalog is the single source of truth: the docs section in
``docs/language.md`` and the tests assert against it, so adding a code here
without documenting it (or vice versa) fails the suite.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from ..core.diagnostics import Severity


class CodeInfo(NamedTuple):
    code: str
    severity: Severity
    title: str


def _info(code: str, severity: Severity, title: str) -> CodeInfo:
    return CodeInfo(code, severity, title)


ALL_CODES: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        # -- parse (0xx) -----------------------------------------------------
        _info("ASSESS001", Severity.ERROR, "statement text does not parse"),
        # -- statement passes (1xx) -----------------------------------------
        _info("ASSESS101", Severity.ERROR, "unknown cube in the with clause"),
        _info("ASSESS102", Severity.ERROR, "unknown level in the by clause"),
        _info("ASSESS103", Severity.ERROR,
              "by clause picks two levels of the same hierarchy"),
        _info("ASSESS104", Severity.ERROR, "unknown measure in the assess clause"),
        _info("ASSESS105", Severity.ERROR, "for predicate on an unknown level"),
        _info("ASSESS106", Severity.WARNING, "duplicate for predicate"),
        _info("ASSESS107", Severity.ERROR,
              "contradictory for predicates (no member satisfies both)"),
        _info("ASSESS110", Severity.ERROR, "external benchmark cube is unknown"),
        _info("ASSESS111", Severity.ERROR,
              "external benchmark cube is not joinable (missing group-by level)"),
        _info("ASSESS112", Severity.ERROR,
              "external benchmark measure is not in the external cube"),
        _info("ASSESS113", Severity.ERROR, "invalid sibling benchmark"),
        _info("ASSESS114", Severity.ERROR, "invalid past benchmark"),
        _info("ASSESS115", Severity.ERROR, "invalid ancestor benchmark"),
        _info("ASSESS120", Severity.ERROR, "unknown function in the using clause"),
        _info("ASSESS121", Severity.ERROR, "wrong number of function arguments"),
        _info("ASSESS122", Severity.ERROR, "division by a constant zero"),
        _info("ASSESS123", Severity.ERROR,
              "benchmark.* reference the benchmark does not provide"),
        _info("ASSESS124", Severity.ERROR,
              "reference is neither a measure nor a bound level property"),
        _info("ASSESS125", Severity.WARNING,
              "benchmark declared but never referenced in the using clause"),
        _info("ASSESS126", Severity.ERROR,
              "unknown qualifier in a measure reference"),
        _info("ASSESS130", Severity.WARNING,
              "label ranges leave gaps (uncovered values get the null label)"),
        _info("ASSESS131", Severity.ERROR, "label ranges overlap"),
        _info("ASSESS132", Severity.ERROR, "invalid label range"),
        _info("ASSESS133", Severity.WARNING,
              "labeling function is not registered"),
        _info("ASSESS134", Severity.ERROR,
              "named function is not a labeling function"),
        # -- plan passes (2xx) ----------------------------------------------
        _info("ASSESS201", Severity.ERROR,
              "plan does not end with the Using -> Label tail"),
        _info("ASSESS202", Severity.ERROR,
              "plan node consumes a column its subtree does not produce"),
        _info("ASSESS203", Severity.ERROR,
              "join partiality inconsistent with the statement group-by set"),
        _info("ASSESS204", Severity.ERROR,
              "plan node charged to an unknown or wrong cost-step bucket"),
        _info("ASSESS205", Severity.ERROR,
              "pushed operator over non-get children"),
        _info("ASSESS206", Severity.ERROR,
              "pivot members inconsistent with the combined get predicate"),
        _info("ASSESS207", Severity.ERROR,
              "plan is not feasible for the statement's benchmark type"),
        # -- batch passes (3xx) ----------------------------------------------
        _info("ASSESS301", Severity.WARNING, "batch contains no statements"),
        _info("ASSESS302", Severity.WARNING, "duplicate statement in batch"),
        # -- observability passes (4xx) ---------------------------------------
        _info("ASSESS401", Severity.ERROR,
              "tracing requested on an unregistered cube"),
        # -- telemetry watchdog advisories (41x) ------------------------------
        _info("ASSESS410", Severity.WARNING,
              "query latency regressed against the stored baseline"),
        _info("ASSESS411", Severity.WARNING,
              "cache-miss storm (hit rate collapsed against the baseline)"),
        _info("ASSESS412", Severity.WARNING,
              "spill pressure (most runs use the bounded-memory spill tier)"),
        _info("ASSESS413", Severity.WARNING,
              "parallel-fallback storm (exactness gate declines the "
              "parallel merge)"),
        # -- workload passes (5xx) --------------------------------------------
        _info("ASSESS500", Severity.ERROR, "malformed workload directive"),
        _info("ASSESS501", Severity.WARNING,
              "workload definition is never used (dead definition)"),
        _info("ASSESS502", Severity.WARNING,
              "workload definition shadows an unused earlier definition"),
        _info("ASSESS503", Severity.INFO,
              "statement repeats an earlier statement of the workload"),
        _info("ASSESS504", Severity.INFO,
              "statement is answerable from an earlier statement's cached result"),
        _info("ASSESS505", Severity.INFO,
              "statements share one fused fact scan"),
        _info("ASSESS506", Severity.WARNING,
              "measure fails the static float-exactness gate "
              "(parallel/fused paths fall back to serial)"),
        _info("ASSESS507", Severity.WARNING,
              "statement's result-cell upper bound exceeds the admission "
              "threshold"),
        _info("ASSESS508", Severity.INFO,
              "statement runs in the bounded-memory spill tier "
              "(partitioned external aggregation, bit-identical)"),
    )
}

STATEMENT_CODES = tuple(c for c in ALL_CODES if c.startswith("ASSESS1"))
PLAN_CODES = tuple(c for c in ALL_CODES if c.startswith("ASSESS2"))
BATCH_CODES = tuple(c for c in ALL_CODES if c.startswith("ASSESS3"))
TRACE_CODES = tuple(c for c in ALL_CODES if c.startswith("ASSESS4"))
WORKLOAD_CODES = tuple(c for c in ALL_CODES if c.startswith("ASSESS5"))


def severity_of(code: str) -> Severity:
    """The default severity of a code (KeyError for unknown codes)."""
    return ALL_CODES[code].severity

"""Pass-based static analysis of assess statements and logical plans.

The analyzer turns the first-failure validation of the parser/planner into
structured, multi-error reporting: every finding is a
:class:`~repro.core.diagnostics.Diagnostic` with a stable ``ASSESSxxx``
code, a severity, a source span and a message (see :mod:`.codes` for the
catalog, and the "Diagnostics" section of ``docs/language.md`` for prose).

Entry points
------------

* :func:`analyze_text` — parse, check and bind one statement text (the
  one path from text to a statement: ``parse_statement`` raises its first
  error);
* :func:`verify_plan` — run the plan passes over a built
  :class:`~repro.algebra.plan.Plan` (what ``build_plan(validate=True)``
  calls);
* :mod:`.lint` — file-level linting behind ``python -m repro.cli lint``.
"""

from .codes import (
    ALL_CODES,
    BATCH_CODES,
    PLAN_CODES,
    STATEMENT_CODES,
    WORKLOAD_CODES,
    severity_of,
)
from .context import AnalysisContext
from .flow import (
    WORKLOAD_SCHEMA_VERSION,
    WorkloadReport,
    analyze_workload,
    report_results_json,
    scan_workload,
)
from .lint import (
    LintReport,
    LintResult,
    batch_diagnostics,
    extract_statements,
    lint_path,
    lint_paths,
    lint_statements,
    lint_text,
    render_report,
    statements_from_python,
)
from .plan_passes import verify_plan
from .statement_passes import analyze_text

__all__ = [
    "ALL_CODES",
    "AnalysisContext",
    "BATCH_CODES",
    "LintReport",
    "LintResult",
    "PLAN_CODES",
    "STATEMENT_CODES",
    "WORKLOAD_CODES",
    "WORKLOAD_SCHEMA_VERSION",
    "WorkloadReport",
    "analyze_text",
    "analyze_workload",
    "batch_diagnostics",
    "extract_statements",
    "lint_path",
    "lint_paths",
    "lint_statements",
    "lint_text",
    "render_report",
    "report_results_json",
    "scan_workload",
    "severity_of",
    "statements_from_python",
    "verify_plan",
]

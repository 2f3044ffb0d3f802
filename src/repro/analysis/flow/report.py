"""The :class:`WorkloadReport`: verdicts of one whole-workload analysis.

The report is the analyzer's structured output — the sharing plan
(fusion groups), the derivation edges, the exactness verdicts, and the
cardinality/cost bounds — next to the per-item diagnostic bags the lint
surface renders.  It has a stable machine-readable form
(:meth:`WorkloadReport.to_json`, ``workload_schema_version = 1``,
declared as :data:`WORKLOAD_DOCUMENT`) that the CI workload-analysis
job checks, and a human rendering
(:meth:`WorkloadReport.render`) the CLI prints under
``repro lint --workload``.

Soundness contract (tested by ``tests/test_workload_soundness.py``):

* a :class:`DerivationEdge` claims the target get never scans the fact
  table when the workload executes in order on a fresh session;
* a :class:`FusionPrediction` with ``exact=True`` claims the fused pass
  serves every member bit-identically with zero runtime fallbacks;
* an :class:`ExactnessEntry` with verdict ``exact`` claims the runtime
  ``Table.sums_exactly`` gate passes (so parallel/fused/derived paths
  never fall back on that measure's account).

Everything the analyzer cannot *prove* is reported as ``unknown`` —
unknown is always safe, a wrong "safe" never is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...contract import COUNT, NULL, NUMBER
from ...core.diagnostics import DIAGNOSTIC_JSON, Diagnostic, DiagnosticBag
from .domains import Exactness, Interval

WORKLOAD_SCHEMA_VERSION = 1
"""Version of the ``to_json`` document layout."""

_INTERVAL = {"required": {"lo": NUMBER, "hi": NUMBER}}
WORKLOAD = {
    "required": {
        "workload_schema_version": {WORKLOAD_SCHEMA_VERSION},
        "origin": str,
        "statements": [{"required": {
            "index": COUNT, "kind": str, "statement": str, "cube": str,
            "group_by": [str], "measures": [str], "plan": str,
            "composite": bool, "parallel_safe": (bool, NULL),
            "diagnostics": [DIAGNOSTIC_JSON],
        }}],
        "derivations": [{"required": {
            "source": COUNT, "target": COUNT, "kind": str, "reason": str,
        }}],
        "fusions": [{"required": {
            "statements": [COUNT], "scan_predicates": [str],
            "key_space": (int, NULL), "verdict": str, "member_safety": [bool],
        }}],
        "exactness": [{"required": dict.fromkeys(
            ("cube", "measure", "op", "verdict", "detail"), str
        )}],
        "bounds": [{"required": {
            "index": COUNT, "cells": _INTERVAL, "cost": _INTERVAL,
            "admission_warning": bool,
        }}],
        "summary": str,
    },
}
"""One :meth:`WorkloadReport.to_json` document."""

WORKLOAD_DOCUMENT = {
    "required": {
        "schema_version": {WORKLOAD_SCHEMA_VERSION},
        "mode": {"workload", "statement"},
    },
    "optional": {
        "workloads": {"type": list, "items": WORKLOAD, "min_len": 1},
        "results": [{"required": {
            "origin": str, "statement": str, "diagnostics": [DIAGNOSTIC_JSON],
        }}],
    },
    "check": lambda document: [
        f"mode {document['mode']!r} needs {key!r}"
        for mode, key in (("workload", "workloads"), ("statement", "results"))
        if document["mode"] == mode and key not in document
    ],
}
"""The ``repro lint --format=json`` document, with or without
``--workload``."""


class StatementInfo:
    """One workload item's analysis outcome (statement or directive)."""

    __slots__ = ("index", "kind", "text", "bag", "source", "group_by",
                 "measures", "plan_name", "composite", "parallel_safe")

    def __init__(
        self,
        index: int,
        kind: str,
        text: str,
        bag: DiagnosticBag,
        source: str = "",
        group_by: Tuple[str, ...] = (),
        measures: Tuple[str, ...] = (),
        plan_name: str = "",
        composite: bool = False,
        parallel_safe: Optional[bool] = None,
    ) -> None:
        self.index = index
        self.kind = kind
        self.text = text
        self.bag = bag
        self.source = source
        self.group_by = group_by
        self.measures = measures
        self.plan_name = plan_name
        # True when the plan pushes composite (join/pivot) operators.
        self.composite = composite
        # True iff every aggregate of the statement is proven to take the
        # parallel path without an exactness/key-space fallback; None
        # when the analyzer could not decide.
        self.parallel_safe = parallel_safe

    def head(self) -> str:
        lines = self.text.strip().splitlines()
        return lines[0] if lines else ""

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "statement": self.text,
            "cube": self.source,
            "group_by": list(self.group_by),
            "measures": list(self.measures),
            "plan": self.plan_name,
            "composite": self.composite,
            "parallel_safe": self.parallel_safe,
            "diagnostics": [d.to_json() for d in self.bag.sorted()],
        }


class DerivationEdge:
    """Statement *target* is served warm from statement *source*'s result.

    ``kind`` is ``"exact"`` (same pushed get — a CSE/cache hit) or
    ``"derive"`` (roll-up re-aggregation from the finer cached result).
    """

    __slots__ = ("target", "source", "kind", "reason")

    def __init__(self, target: int, source: int, kind: str, reason: str) -> None:
        self.target = target
        self.source = source
        self.kind = kind
        self.reason = reason

    def to_json(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "source": self.source,
            "kind": self.kind,
            "reason": self.reason,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DerivationEdge({self.source} -> {self.target}, {self.kind})"


class FusionPrediction:
    """One predicted fused group: statements sharing one fact pass."""

    __slots__ = ("statements", "scan_predicates", "key_space", "exact",
                 "member_safety")

    def __init__(
        self,
        statements: Tuple[int, ...],
        scan_predicates: Tuple[str, ...],
        key_space: Optional[int],
        exact: bool,
        member_safety: Tuple[bool, ...],
    ) -> None:
        self.statements = statements
        self.scan_predicates = scan_predicates
        self.key_space = key_space
        # True iff *every* member is statically proven to be served from
        # the shared pass with zero fallbacks.
        self.exact = exact
        self.member_safety = member_safety

    @property
    def verdict(self) -> str:
        return "fusable-exact" if self.exact else "fusable-unknown"

    def to_json(self) -> Dict[str, object]:
        return {
            "statements": list(self.statements),
            "scan_predicates": list(self.scan_predicates),
            "key_space": self.key_space,
            "verdict": self.verdict,
            "member_safety": list(self.member_safety),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FusionPrediction({list(self.statements)}, {self.verdict})"


class ExactnessEntry:
    """The static float-exactness verdict of one (cube, measure)."""

    __slots__ = ("source", "measure", "op", "verdict", "detail")

    def __init__(
        self, source: str, measure: str, op: str,
        verdict: Exactness, detail: str,
    ) -> None:
        self.source = source
        self.measure = measure
        self.op = op
        self.verdict = verdict
        self.detail = detail

    def to_json(self) -> Dict[str, object]:
        return {
            "cube": self.source,
            "measure": self.measure,
            "op": self.op,
            "verdict": str(self.verdict),
            "detail": self.detail,
        }


class CardinalityBound:
    """Sound result-cells and cost intervals of one statement."""

    __slots__ = ("index", "cells", "cost", "admission_warning")

    def __init__(
        self, index: int, cells: Interval, cost: Interval,
        admission_warning: bool,
    ) -> None:
        self.index = index
        self.cells = cells
        self.cost = cost
        self.admission_warning = admission_warning

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "cells": self.cells.to_json(),
            "cost": self.cost.to_json(),
            "admission_warning": self.admission_warning,
        }


class WorkloadReport:
    """Everything one workload analysis proved (or could not prove)."""

    def __init__(self, origin: str = "<workload>") -> None:
        self.origin = origin
        self.statements: List[StatementInfo] = []
        self.derivations: List[DerivationEdge] = []
        self.fusions: List[FusionPrediction] = []
        self.exactness: List[ExactnessEntry] = []
        self.bounds: List[CardinalityBound] = []
        # Canonical fingerprints predicted served without a fact scan
        # (exact or derive) — the advisor wiring consumes this.
        self.warm_fingerprints: Set[object] = set()
        # Scan keys (algebra.cost._scan_key) of predicted fused groups —
        # the batch planner wiring consumes this.
        self.fusable_scan_keys: Set[object] = set()

    # ------------------------------------------------------------------
    @property
    def has_errors(self) -> bool:
        return any(info.bag.has_errors for info in self.statements)

    def diagnostics(self) -> List[Tuple[StatementInfo, Diagnostic]]:
        pairs: List[Tuple[StatementInfo, Diagnostic]] = []
        for info in self.statements:
            for diagnostic in info.bag.sorted():
                pairs.append((info, diagnostic))
        return pairs

    def warm_statements(self) -> List[int]:
        """Indexes of statements predicted to run without any fact scan."""
        return sorted({edge.target for edge in self.derivations})

    def exactness_of(self, source: str, measure: str) -> Exactness:
        for entry in self.exactness:
            if entry.source == source and entry.measure == measure:
                return entry.verdict
        return Exactness.UNKNOWN

    # ------------------------------------------------------------------
    def summary(self) -> str:
        errors = sum(len(info.bag.errors()) for info in self.statements)
        warnings = sum(len(info.bag.warnings()) for info in self.statements)
        exact_groups = sum(1 for fusion in self.fusions if fusion.exact)
        return (
            f"{len(self.statements)} items checked: {errors} error"
            f"{'s' if errors != 1 else ''}, {warnings} warning"
            f"{'s' if warnings != 1 else ''}; "
            f"{len(self.derivations)} derivation edge"
            f"{'s' if len(self.derivations) != 1 else ''}, "
            f"{len(self.fusions)} fused group"
            f"{'s' if len(self.fusions) != 1 else ''} "
            f"({exact_groups} proven exact)"
        )

    def render(self, verbose: bool = False) -> str:
        lines: List[str] = [f"workload: {self.origin}"]
        for info in self.statements:
            if not info.bag and not verbose:
                continue
            lines.append(f"item {info.index + 1}: {info.head()}")
            for diagnostic in info.bag.sorted():
                lines.append("  " + diagnostic.render(info.text))
        if self.fusions:
            lines.append("sharing plan:")
            for fusion in self.fusions:
                members = ", ".join(
                    str(index + 1) for index in fusion.statements
                )
                scan = " and ".join(fusion.scan_predicates) or "full scan"
                lines.append(
                    f"  fuse statements {members} on [{scan}] "
                    f"({fusion.verdict})"
                )
        if self.derivations:
            lines.append("derivation edges:")
            for edge in self.derivations:
                lines.append(
                    f"  statement {edge.target + 1} <- statement "
                    f"{edge.source + 1} ({edge.kind}: {edge.reason})"
                )
        if self.exactness:
            lines.append("exactness verdicts:")
            for entry in self.exactness:
                lines.append(
                    f"  {entry.source}.{entry.measure} ({entry.op}): "
                    f"{entry.verdict} — {entry.detail}"
                )
        if self.bounds:
            lines.append("cardinality bounds:")
            for bound in self.bounds:
                flag = "  [admission warning]" if bound.admission_warning else ""
                lines.append(
                    f"  statement {bound.index + 1}: cells in "
                    f"[{bound.cells.lo:,.0f}, {bound.cells.hi:,.0f}], "
                    f"cost <= {bound.cost.hi:,.0f}{flag}"
                )
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """The stable machine-readable document (schema version 1)."""
        return {
            "workload_schema_version": WORKLOAD_SCHEMA_VERSION,
            "origin": self.origin,
            "statements": [info.to_json() for info in self.statements],
            "derivations": [edge.to_json() for edge in self.derivations],
            "fusions": [fusion.to_json() for fusion in self.fusions],
            "exactness": [entry.to_json() for entry in self.exactness],
            "bounds": [bound.to_json() for bound in self.bounds],
            "summary": self.summary(),
        }


def report_results_json(results: Sequence[object]) -> List[Dict[str, object]]:
    """Plain lint results (``LintResult``) in the same JSON layout."""
    documents: List[Dict[str, object]] = []
    for result in results:
        documents.append(
            {
                "origin": result.origin,  # type: ignore[attr-defined]
                "statement": result.statement,  # type: ignore[attr-defined]
                "diagnostics": [
                    d.to_json()
                    for d in result.bag.sorted()  # type: ignore[attr-defined]
                ],
            }
        )
    return documents

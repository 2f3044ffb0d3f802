"""Workload scanning: scripts as *sequences* of statements and directives.

A ``.assess`` script is more than a bag of independent statements: it is
executed top to bottom against one session, so earlier items create
bindings later items consume — a named labeling defined up front, a
materialized view later gets derive from, a cached result a later
statement derives from.  This module gives the flow analysis that
sequential view:

* :func:`scan_workload` segments script text into :class:`WorkloadItem`\\ s
  — ordinary assess statements plus two *workload directives* that have
  session-API counterparts but no statement-grammar form::

      define labeling <name> {<range>: <label>, ...}
      materialize <cube> by <level>, <level>, ...

  (``define labeling`` ⇔ :meth:`AssessSession.define_labeling`,
  ``materialize`` ⇔ :meth:`MultidimensionalEngine.materialize`);

* :class:`BindingEnv` tracks the definitions in scope while the analyzer
  interprets the items in order, recording def-use edges so dead
  definitions (never used, ``ASSESS501``) and shadowed definitions
  (redefined before any use, ``ASSESS502``) fall out at the end.

The plain statement linter stays oblivious to directives: scripts that
use them are analyzed with ``repro lint --workload``, which routes every
chunk through this scanner first.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ...cache.derive import QueryMeta, can_derive
from ...core.diagnostics import DiagnosticBag, Severity, Span
from ...core.errors import SchemaError
from ...core.groupby import GroupBySet
from ...core.query import CubeQuery
from ..codes import severity_of
from ..lint import extract_statements

_DIRECTIVE_START = re.compile(r"(?is)^\s*(define|materialize)\b")
_DEFINE_LABELING = re.compile(
    r"(?is)^\s*define\s+labeling\s+(?P<name>\w+)\s*(?P<body>\{.*\})\s*$"
)
_MATERIALIZE = re.compile(
    r"(?is)^\s*materialize\s+(?P<cube>\w+)\s+by\s+(?P<levels>[\w\s,]+?)\s*$"
)


class WorkloadItem:
    """One chunk of a workload script, in script order.

    ``kind`` is ``"statement"`` for assess statements, ``"labeling"`` or
    ``"view"`` for well-formed directives, and ``"invalid"`` for chunks
    that look like a directive but do not parse as one (``ASSESS500``).
    """

    __slots__ = ("kind", "text", "index", "name", "cube", "levels", "body")

    def __init__(
        self,
        kind: str,
        text: str,
        index: int,
        name: str = "",
        cube: str = "",
        levels: Tuple[str, ...] = (),
        body: str = "",
    ) -> None:
        self.kind = kind
        self.text = text
        self.index = index
        self.name = name
        self.cube = cube
        self.levels = levels
        self.body = body

    @property
    def is_statement(self) -> bool:
        return self.kind == "statement"

    @property
    def is_directive(self) -> bool:
        return self.kind in ("labeling", "view", "invalid")

    def head(self) -> str:
        lines = self.text.strip().splitlines()
        return lines[0] if lines else ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkloadItem({self.kind}, {self.head()!r})"


def classify_chunk(text: str, index: int) -> WorkloadItem:
    """Classify one extracted chunk as statement or directive."""
    if not _DIRECTIVE_START.match(text):
        return WorkloadItem("statement", text, index)
    match = _DEFINE_LABELING.match(text)
    if match is not None:
        return WorkloadItem(
            "labeling", text, index,
            name=match.group("name"), body=match.group("body"),
        )
    match = _MATERIALIZE.match(text)
    if match is not None:
        levels = tuple(
            level.strip()
            for level in match.group("levels").split(",")
            if level.strip()
        )
        if levels:
            return WorkloadItem(
                "view", text, index, cube=match.group("cube"), levels=levels
            )
    return WorkloadItem("invalid", text, index)


def scan_workload(text: str) -> List[WorkloadItem]:
    """Segment script text into classified workload items, script order."""
    return [
        classify_chunk(chunk, index)
        for index, chunk in enumerate(extract_statements(text))
    ]


def directive_diagnostics(item: WorkloadItem) -> DiagnosticBag:
    """The ``ASSESS500`` bag of one directive item (empty if well-formed)."""
    bag = DiagnosticBag()
    if item.kind == "invalid":
        bag.report(
            "ASSESS500", severity_of("ASSESS500"),
            f"malformed workload directive {item.head()!r}",
            span=Span.from_text(item.text, 0),
            hint="expected 'define labeling <name> {<ranges>}' or "
            "'materialize <cube> by <level>, ...'",
            source="workload",
        )
    return bag


class _Definition:
    """One live binding: where it was defined and whether it was used."""

    __slots__ = ("item", "used")

    def __init__(self, item: WorkloadItem) -> None:
        self.item = item
        self.used = False


class BindingEnv:
    """Definitions in scope during the in-order abstract interpretation.

    ``define_*`` records a binding (flagging shadowed, unused earlier
    ones), ``use_*`` marks the live binding used, and
    :meth:`dead_definitions` returns every binding that was never used —
    the def-use summary of the workload.
    """

    def __init__(self) -> None:
        self._labelings: Dict[str, _Definition] = {}
        self._views: Dict[Tuple[str, Tuple[str, ...]], _Definition] = {}
        self._shadowed: List[Tuple[WorkloadItem, WorkloadItem]] = []

    # -- labelings ------------------------------------------------------
    def define_labeling(self, item: WorkloadItem) -> None:
        name = item.name.lower()
        previous = self._labelings.get(name)
        if previous is not None and not previous.used:
            self._shadowed.append((item, previous.item))
        self._labelings[name] = _Definition(item)

    def use_labeling(self, name: str) -> bool:
        definition = self._labelings.get(name.lower())
        if definition is None:
            return False
        definition.used = True
        return True

    def labeling_names(self) -> Tuple[str, ...]:
        return tuple(self._labelings)

    # -- materialized views --------------------------------------------
    def define_view(self, item: WorkloadItem) -> None:
        key = (item.cube.upper(), tuple(sorted(item.levels)))
        previous = self._views.get(key)
        if previous is not None and not previous.used:
            self._shadowed.append((item, previous.item))
        self._views[key] = _Definition(item)

    def use_views(self, target: QueryMeta) -> None:
        """Mark every view the engine could answer this get from used.

        The engine's own relation decides: a view is the unpredicated
        get of the cube's distributive measures at its levels, and it
        answers ``target`` when :func:`can_derive` says so.
        """
        schema = target.query.schema
        measures = tuple(m.name for m in schema.measures if m.is_distributive)
        for (view_cube, view_levels), definition in self._views.items():
            if view_cube != target.source.upper():
                continue
            try:
                view = CubeQuery(
                    target.source, GroupBySet(schema, view_levels), (), measures
                )
            except SchemaError:
                continue
            if can_derive(target, QueryMeta(view, frozenset(), frozenset())):
                definition.used = True

    # -- summaries ------------------------------------------------------
    def dead_definitions(self) -> List[WorkloadItem]:
        dead = [
            d.item for d in self._labelings.values() if not d.used
        ] + [
            d.item for d in self._views.values() if not d.used
        ]
        dead.sort(key=lambda item: item.index)
        return dead

    def shadowed_definitions(self) -> List[Tuple[WorkloadItem, WorkloadItem]]:
        return list(self._shadowed)

    def report_into(
        self, bags: Dict[int, DiagnosticBag]
    ) -> None:
        """Emit ASSESS501/502 into the per-item diagnostic bags."""
        for item in self.dead_definitions():
            bag = bags.setdefault(item.index, DiagnosticBag())
            kind = "labeling" if item.kind == "labeling" else "view"
            label = item.name if item.kind == "labeling" else (
                f"{item.cube} by {', '.join(item.levels)}"
            )
            bag.report(
                "ASSESS501", severity_of("ASSESS501"),
                f"{kind} definition {label!r} is never used by a later "
                f"statement",
                span=Span.from_text(item.text, 0),
                hint="drop the definition, or move the statements that "
                "should use it after it",
                source="workload",
            )
        for later, earlier in self.shadowed_definitions():
            bag = bags.setdefault(later.index, DiagnosticBag())
            bag.report(
                "ASSESS502", severity_of("ASSESS502"),
                f"definition at item {later.index + 1} shadows the unused "
                f"definition at item {earlier.index + 1}",
                span=Span.from_text(later.text, 0),
                hint="the earlier definition can never take effect; "
                "remove one of the two",
                source="workload",
            )


# Severity re-exported for the analyzer's convenience (keeps its import
# list focused on flow modules).
SEVERITY = Severity

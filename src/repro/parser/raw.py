"""The unvalidated (raw) statement AST produced by the syntactic stage.

Parsing is split into stages so that the static analyzer
(:mod:`repro.analysis`) can check a statement and report every defect
before anything is built:

1. the **syntactic stage** (:class:`repro.parser.parser._Parser`) turns
   text into a :class:`RawStatement` — plain names, numbers and spans, with
   no schema resolution and no constraint checking;
2. the **statement passes** check every rule over the raw form;
3. the **binding stage** (:func:`repro.parser.parser.bind_statement`)
   only resolves names: it builds the
   :class:`~repro.core.statement.AssessStatement` of a statement the
   passes found free of errors.

Every raw node carries the :class:`~repro.core.diagnostics.Span` of its
source text, so each diagnostic — and the error ``parse_statement`` raises
from the first one — points at the offending clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.diagnostics import Span
from ..core.expression import Expression


@dataclass
class RawPredicate:
    """One ``for`` clause predicate, uninterpreted."""

    level: str
    op: str  # "=", "in" or "between"
    values: Tuple
    span: Span
    level_span: Span

    def member_set(self) -> Optional[frozenset]:
        """The enumerable member set, mirroring Predicate.member_set()."""
        if self.op in ("=", "in"):
            return frozenset(self.values)
        return None


@dataclass
class RawBenchmark:
    """The ``against`` clause, uninterpreted.

    ``kind`` is one of ``constant``, ``external``, ``sibling``, ``past``,
    ``ancestor``; only the fields of that kind are meaningful.
    """

    kind: str
    span: Span
    value: float = 0.0  # constant
    k: int = 0  # past
    cube: str = ""  # external
    measure: str = ""  # external
    level: str = ""  # sibling slice level
    member: object = None  # sibling member
    ancestor_level: str = ""  # ancestor


@dataclass
class RawLabelRule:
    """One ``range: label`` rule with unchecked bounds."""

    low: float
    high: float
    low_closed: bool
    high_closed: bool
    label: str
    span: Span


@dataclass
class RawLabels:
    """The ``labels`` clause: a function name or an inline range set."""

    kind: str  # "named" or "ranges"
    span: Span
    name: str = ""
    rules: List[RawLabelRule] = field(default_factory=list)


@dataclass
class RawStatement:
    """A syntactically well-formed statement, before semantic binding."""

    text: str
    source: str
    source_span: Span
    levels: List[Tuple[str, Span]]
    star: bool
    measure: str
    measure_span: Span
    predicates: List[RawPredicate] = field(default_factory=list)
    benchmark: Optional[RawBenchmark] = None
    using: Optional[Expression] = None
    using_span: Optional[Span] = None
    labels: Optional[RawLabels] = None
    # id(expression node) -> source span, for pinpointing using-clause
    # diagnostics; nodes are the exact objects in the ``using`` tree.
    expr_spans: Dict[int, Span] = field(default_factory=dict)

    def level_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.levels)

    def span_of_expr(self, node: Expression) -> Optional[Span]:
        return self.expr_spans.get(id(node))

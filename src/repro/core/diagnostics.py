"""Structured diagnostics for the static analyzer (`repro.analysis`).

A :class:`Diagnostic` is one finding about a statement or a plan: a stable
code (``ASSESS101``…), a severity, a human message, an optional source
:class:`Span`, and an optional fix hint.  Unlike the exception hierarchy in
:mod:`repro.core.errors` — which reports the *first* problem and aborts —
diagnostics accumulate, so a single analysis run can report every defect of
a statement at once (the contract of ``repro lint``).

The module is dependency-free on purpose: the parser, the analyzer, the
planner and the CLI all share these types without import cycles.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


def line_and_column(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset into ``text``."""
    if offset < 0:
        return (1, 1)
    offset = min(offset, len(text))
    prefix = text[:offset]
    line = prefix.count("\n") + 1
    column = offset - (prefix.rfind("\n") + 1) + 1
    return (line, column)


class Span:
    """A half-open source range ``[start, end)`` with 1-based line/column.

    ``line``/``column`` locate ``start``; they are computed from the text by
    :meth:`from_text` (the tokenizer stores them directly on tokens).  The
    arguments are ints (the parser builds a dozen spans per statement, so
    the constructor does not coerce them); ``end`` is clamped to ``start``.
    """

    __slots__ = ("start", "end", "line", "column")

    def __init__(self, start: int, end: int, line: int = 1, column: int = 1):
        self.start = start
        self.end = end if end > start else start
        self.line = line
        self.column = column

    @classmethod
    def from_text(cls, text: str, start: int, end: Optional[int] = None) -> "Span":
        """A span anchored in ``text``, clamped to its bounds.

        An unexpected-EOF error positions at ``len(text)``; without the
        clamp the default one-character width would point past the end
        of the source (a fuzzer-found defect — see
        ``tests/test_parser_fuzz.py``).
        """
        start = max(min(int(start), len(text)), 0)
        line, column = line_and_column(text, start)
        if end is None:
            end = start + 1
        return cls(start, min(max(int(end), start), len(text)), line, column)

    @classmethod
    def from_token(cls, token) -> "Span":
        """Span of a tokenizer token (duck-typed to avoid an import cycle)."""
        end = getattr(token, "end", -1)
        if end < 0:
            end = token.position + max(len(getattr(token, "value", "")), 1)
        return cls(token.position, end, getattr(token, "line", 1), getattr(token, "column", 1))

    def merge(self, other: "Span") -> "Span":
        """The smallest span covering both operands."""
        if other.start < self.start:
            first = other
        else:
            first = self
        return Span(
            min(self.start, other.start),
            max(self.end, other.end),
            first.line,
            first.column,
        )

    def label(self) -> str:
        """Render as ``line:column`` for message prefixes."""
        return f"{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Span) and (
            other.start, other.end, other.line, other.column
        ) == (self.start, self.end, self.line, self.column)

    def __hash__(self) -> int:
        return hash(("Span", self.start, self.end))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.start}..{self.end} @ {self.label()})"


DIAGNOSTIC_JSON = {
    "required": {
        "code": {"type": str, "pattern": r"^ASSESS[0-9]+$"},
        "severity": frozenset(str(severity) for severity in Severity),
        "message": str,
        "span": {
            "type": (dict, type(None)),
            "required": dict.fromkeys(("start", "end", "line", "column"), int),
        },
        "hint": (str, type(None)),
        "source": str,
    },
}
"""The JSON layout of one diagnostic (``repro lint --format=json``), as a
:mod:`repro.contract` spec."""


class Diagnostic:
    """One structured finding of the static analyzer."""

    __slots__ = ("code", "severity", "message", "span", "hint", "source")

    def __init__(
        self,
        code: str,
        severity: Severity,
        message: str,
        span: Optional[Span] = None,
        hint: str = "",
        source: str = "",
    ):
        self.code = code
        self.severity = Severity(severity)
        self.message = message
        self.span = span
        self.hint = hint
        # name of the pass (or subsystem) that produced the finding
        self.source = source

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self, text: str = "") -> str:
        """One- or three-line rendering, with a caret when text is known."""
        location = f"{self.span.label()}: " if self.span is not None else ""
        head = f"{location}{self.severity}[{self.code}]: {self.message}"
        lines = [head]
        if self.span is not None and text:
            source_lines = text.splitlines()
            if 0 < self.span.line <= len(source_lines):
                source_line = source_lines[self.span.line - 1]
                width = max(1, min(self.span.end - self.span.start, len(source_line)))
                lines.append(f"  {source_line}")
                lines.append("  " + " " * (self.span.column - 1) + "^" * width)
        if self.hint:
            lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagnostic) and (
            other.code, other.severity, other.message, other.span
        ) == (self.code, self.severity, self.message, self.span)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f" @ {self.span.label()}" if self.span else ""
        return f"Diagnostic({self.code}, {self.severity}{where}: {self.message!r})"


class DiagnosticBag:
    """An ordered collection of diagnostics with severity accounting."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self._diagnostics: List[Diagnostic] = list(diagnostics)

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        self._diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._diagnostics.extend(diagnostics)

    def report(
        self,
        code: str,
        severity: Severity,
        message: str,
        span: Optional[Span] = None,
        hint: str = "",
        source: str = "",
    ) -> Diagnostic:
        """Build and record a diagnostic in one call."""
        return self.add(Diagnostic(code, severity, message, span, hint, source))

    # ------------------------------------------------------------------
    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.is_error)

    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self._diagnostics if d.severity is Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self._diagnostics)

    def codes(self) -> Tuple[str, ...]:
        """The codes present, in report order (duplicates preserved)."""
        return tuple(d.code for d in self._diagnostics)

    def sorted(self) -> "DiagnosticBag":
        """A copy ordered by source position, then severity (errors first)."""
        def key(d: Diagnostic):
            start = d.span.start if d.span is not None else -1
            return (start, -int(d.severity))

        return DiagnosticBag(sorted(self._diagnostics, key=key))

    def render(self, text: str = "") -> str:
        return "\n".join(d.render(text) for d in self._diagnostics)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __bool__(self) -> bool:
        return bool(self._diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiagnosticBag({len(self._diagnostics)} diagnostics, "
            f"{len(self.errors())} errors)"
        )

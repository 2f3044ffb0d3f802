"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single base class.  The subclasses mirror the stages of an assess
statement's life cycle: schema definition, statement parsing, semantic
validation, planning, and execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library.

    A parse or validation error raised for statement text carries a source
    position — ``parse_statement`` raises the analyzer's first diagnostic
    at its span — and ``__str__`` then renders a ``line:column`` suffix and
    a caret line.
    """

    position: int = -1
    text: str = ""

    def __str__(self) -> str:
        base = super().__str__()
        if self.position >= 0 and self.text:
            from .diagnostics import line_and_column

            line, column = line_and_column(self.text, self.position)
            source_lines = self.text.splitlines() or [""]
            source_line = source_lines[min(line, len(source_lines)) - 1]
            pointer = " " * (column - 1) + "^"
            return f"{base} (at {line}:{column})\n  {source_line}\n  {pointer}"
        return base


class SchemaError(ReproError):
    """Raised for inconsistent multidimensional schema definitions.

    Examples: duplicate level names across hierarchies, a measure bound to
    an unknown aggregation operator, or a part-of mapping that violates the
    "exactly one parent" constraint of Definition 2.1.
    """


class MemberError(SchemaError):
    """Raised when a member does not belong to the domain of a level."""


class ParseError(ReproError):
    """Raised when an assess statement cannot be parsed.

    Carries the offending position so interactive front ends can point at
    the error.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        super().__init__(message)
        self.position = position
        self.text = text


class ValidationError(ReproError):
    """Raised when a parsed statement is semantically invalid.

    Examples: the ``by`` clause names an unknown level, the sibling member in
    ``against`` belongs to a level outside the group-by set, or a label range
    set is incomplete/overlapping.  Raised for statement text, it carries
    the offending clause's source position.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        super().__init__(message)
        self.position = position
        self.text = text


class JoinabilityError(ValidationError):
    """Raised when target cube and benchmark are not joinable (Def. 3.1)."""


class PlanError(ReproError):
    """Raised when a requested execution plan is not feasible.

    The feasibility matrix of Section 5.2 applies: JOP is not feasible for
    constant benchmarks; POP is only feasible for sibling and past ones.
    """


class ExecutionError(ReproError):
    """Raised when a logical plan fails while being interpreted."""


class FunctionError(ReproError):
    """Raised for problems in the function registry.

    Examples: looking up an unregistered function name, or applying a
    function with the wrong number of measure arguments.
    """


class EngineError(ReproError):
    """Raised by the relational engine substrate (bad column, bad query)."""

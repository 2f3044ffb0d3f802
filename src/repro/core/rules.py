"""The well-formedness rules of an assess statement (Sections 3.1, 4.1).

Each rule is written once, here, as a function over plain values — a
schema, the by-clause level names, the member set the ``for`` clause
admits per level, a benchmark's fields — that yields ``(code, message)``
findings.  Three kinds of caller apply the same functions:

* the statement passes of :mod:`repro.analysis`, which attach the
  clause's source span and report every finding;
* the constructors of :class:`~repro.core.statement.AssessStatement`,
  :class:`~repro.core.groupby.GroupBySet`,
  :class:`~repro.core.query.CubeQuery` and
  :class:`~repro.core.statement.PastBenchmark`, which raise the first
  finding (see :func:`raise_first`) — the guard for values built in code;
* the planner, for the two rules that need an engine: an external cube's
  schema and a level property's binding.

Invariants a value constructor guards on its own (an ``Interval``'s
bounds, ``CubeSchema.measure``) are not restated here: the passes report
what those constructors raise.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Type,
)

from .errors import ReproError, ValidationError

Finding = Tuple[str, str]
"""``(code, message)``: one broken rule, named by its ``ASSESSxxx`` code."""

Slices = Mapping[str, Optional[frozenset]]
"""Level → the member set the first ``for`` predicate on it admits
(``None`` for a range predicate)."""


def raise_first(
    findings: Iterable[Finding], error: Type[ReproError] = ValidationError
) -> None:
    """Raise the first finding's message as ``error``; return if none."""
    for _, message in findings:
        raise error(message)


def slices(predicates: Iterable) -> Dict[str, Optional[frozenset]]:
    """:data:`Slices` of a ``for`` clause (raw or bound predicates)."""
    members: Dict[str, Optional[frozenset]] = {}
    for predicate in predicates:
        members.setdefault(predicate.level, predicate.member_set())
    return members


def _single(members: Slices, level: str) -> Optional[frozenset]:
    """The member set slicing ``level`` when it holds exactly one member."""
    sliced = members.get(level)
    return sliced if sliced is not None and len(sliced) == 1 else None


def _no_level(schema, level: str) -> str:
    return f"cube {schema.name!r} has no level {level!r}"


# ----------------------------------------------------------------------
# by and for clauses (Definitions 2.3 and 2.6)
# ----------------------------------------------------------------------
def by_level_findings(
    schema, level: str, earlier: Sequence[str]
) -> Iterator[Finding]:
    """ASSESS102/103: a by-clause level exists, and the first earlier
    level of its hierarchy, if any, is the same level."""
    if not schema.has_level(level):
        yield "ASSESS102", _no_level(schema, level)
        return
    hierarchy = schema.hierarchy_of_level(level)
    for other in earlier:
        if hierarchy.has_level(other):
            if other != level:
                yield (
                    "ASSESS103",
                    f"levels {other!r} and {level!r} both belong to hierarchy "
                    f"{hierarchy.name!r}; a group-by set takes at most one "
                    "level per hierarchy",
                )
            return


def for_level_findings(schema, level: str) -> Iterator[Finding]:
    """ASSESS105: a ``for`` predicate constrains a level of the cube."""
    if not schema.has_level(level):
        yield "ASSESS105", f"for predicate on unknown level {level!r}"


# ----------------------------------------------------------------------
# against clause (Section 3.1, Definition 3.1, the §8 ancestor extension)
# ----------------------------------------------------------------------
def external_findings(
    cube: str, measure: str, external_schema, by_levels: Sequence[str]
) -> Iterator[Finding]:
    """ASSESS111/112: the drill-across needs every group-by level in the
    external cube (joinability, Definition 3.1) and its measure there."""
    missing = [name for name in by_levels if not external_schema.has_level(name)]
    if missing:
        yield (
            "ASSESS111",
            f"external cube {cube!r} has no level"
            f"{'s' if len(missing) > 1 else ''} "
            f"{', '.join(repr(name) for name in missing)}; the cubes are not "
            "joinable (Definition 3.1)",
        )
    if not external_schema.has_measure(measure):
        yield "ASSESS112", f"external cube {cube!r} has no measure {measure!r}"


def sibling_findings(
    by_levels: Sequence[str], members: Slices, level: str, sibling
) -> Iterator[Finding]:
    """ASSESS113: the sibling level is grouped, the ``for`` clause slices
    it on a single member, and the sibling is another member."""
    if level not in by_levels:
        yield (
            "ASSESS113",
            f"sibling level {level!r} must belong to the by clause "
            f"({', '.join(by_levels)})",
        )
        return
    sliced = _single(members, level)
    if sliced is None:
        yield (
            "ASSESS113",
            f"the for clause must slice level {level!r} on a single member "
            "for a sibling benchmark",
        )
    elif sibling in sliced:
        yield (
            "ASSESS113",
            f"sibling member {sibling!r} equals the target slice member; a "
            "sibling must differ",
        )


def past_window_findings(k: int) -> Iterator[Finding]:
    """ASSESS114: a past benchmark looks back at least one slice."""
    if k < 1:
        yield "ASSESS114", f"past benchmark needs k >= 1, got {k}"


def temporal_level(schema, by_levels: Sequence[str]) -> Optional[str]:
    """The by-clause level of the schema's temporal hierarchy, if any."""
    temporal = schema.temporal_hierarchy()
    if temporal is None:
        return None
    return next((name for name in by_levels if temporal.has_level(name)), None)


def past_findings(
    schema, by_levels: Sequence[str], members: Slices
) -> Iterator[Finding]:
    """ASSESS114: the cube has a temporal hierarchy, a level of it is
    grouped, and the ``for`` clause slices that level on one member."""
    temporal = schema.temporal_hierarchy()
    if temporal is None:
        yield (
            "ASSESS114",
            "past benchmark requires a temporal hierarchy (named or "
            "containing a level 'date'/'time')",
        )
        return
    level = temporal_level(schema, by_levels)
    if level is None:
        yield (
            "ASSESS114",
            f"past benchmark requires a level of the temporal hierarchy "
            f"{temporal.name!r} in the by clause",
        )
    elif _single(members, level) is None:
        yield (
            "ASSESS114",
            f"the for clause must slice temporal level {level!r} on a single "
            "member for a past benchmark",
        )


def ancestor_slice_level(
    schema, by_levels: Sequence[str], ancestor_level: str
) -> Optional[str]:
    """The by-clause level an ``against ancestor`` benchmark compares: the
    first one of the ancestor's hierarchy other than the ancestor."""
    if not schema.has_level(ancestor_level):
        return None
    hierarchy = schema.hierarchy_of_level(ancestor_level)
    return next(
        (name for name in by_levels
         if name != ancestor_level and hierarchy.has_level(name)),
        None,
    )


def ancestor_findings(
    schema, by_levels: Sequence[str], level: Optional[str], ancestor_level: str
) -> Iterator[Finding]:
    """ASSESS115: the ancestor level exists, ``level`` is a grouped finer
    level of its hierarchy, and ``level`` rolls up to it."""
    if not schema.has_level(ancestor_level):
        yield "ASSESS115", _no_level(schema, ancestor_level)
        return
    hierarchy = schema.hierarchy_of_level(ancestor_level)
    if (
        level is None
        or level == ancestor_level
        or level not in by_levels
        or not hierarchy.has_level(level)
    ):
        yield (
            "ASSESS115",
            f"ancestor benchmark on {ancestor_level!r} requires a finer level "
            f"of hierarchy {hierarchy.name!r} in the by clause",
        )
    elif not hierarchy.rolls_up_to(level, ancestor_level):
        yield "ASSESS115", f"{level!r} does not roll up to {ancestor_level!r}"


# ----------------------------------------------------------------------
# using clause (the §8 level-property extension)
# ----------------------------------------------------------------------
def property_findings(
    name: str, source: str, level: Optional[str], by_levels: Sequence[str]
) -> Iterator[Finding]:
    """ASSESS124: a ``using`` name that is no measure is a level property
    the star schema binds (``level`` is its level, ``None`` when unbound),
    and that level is grouped, so each cell has a member to look it up."""
    if level is None:
        yield (
            "ASSESS124",
            f"{name!r} is neither a measure of {source!r} nor a bound level "
            "property",
        )
    elif level not in by_levels:
        yield (
            "ASSESS124",
            f"property {name!r} belongs to level {level!r}, which must be in "
            "the by clause to be referenced",
        )

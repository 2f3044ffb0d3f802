"""Cube queries (Definition 2.6) and level predicates.

A cube query is a quadruple ``q = (C0, G_q, P_q, M_q)``: a detailed cube, a
group-by set, a set of selection predicates (each over one level), and a
subset of measures.  Its result is a *derived cube*.

Predicates support equality, membership (``IN``) and inclusive ranges —
exactly what the four benchmark types of the paper need (sibling rewrites
``l = u`` into ``l = u_sib``; past rewrites ``l_t = u`` into
``l_t IN {u1..uk}``/a range).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import SchemaError
from .groupby import GroupBySet
from .hierarchy import Member
from .rules import for_level_findings, raise_first
from .schema import CubeSchema


class PredicateOp(enum.Enum):
    """Comparison operators available in ``for`` clauses."""

    EQ = "="
    IN = "in"
    RANGE = "between"


class Predicate:
    """A selection predicate over a single level.

    Immutable value object; two predicates compare equal when they constrain
    the same level the same way, which the rewrite rules (P2/P3) rely on to
    manipulate predicate sets symbolically.
    """

    __slots__ = ("level", "op", "values")

    def __init__(self, level: str, op: PredicateOp, values: Tuple):
        self.level = level
        self.op = op
        self.values = values

    # -- constructors ---------------------------------------------------
    @classmethod
    def eq(cls, level: str, member: Member) -> "Predicate":
        """``level = member``."""
        return cls(level, PredicateOp.EQ, (member,))

    @classmethod
    def isin(cls, level: str, members: Iterable[Member]) -> "Predicate":
        """``level IN {members}`` (order-insensitive)."""
        return cls(level, PredicateOp.IN, tuple(sorted(set(members), key=repr)))

    @classmethod
    def between(cls, level: str, low: Member, high: Member) -> "Predicate":
        """``low <= level <= high`` (inclusive, by member ordering)."""
        return cls(level, PredicateOp.RANGE, (low, high))

    # -- evaluation ------------------------------------------------------
    def matches(self, member: Member) -> bool:
        """Whether one member satisfies the predicate."""
        if self.op is PredicateOp.EQ:
            return member == self.values[0]
        if self.op is PredicateOp.IN:
            return member in self.values
        low, high = self.values
        return low <= member <= high

    def mask(self, column: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over a member column."""
        if self.op is PredicateOp.EQ:
            return column == self.values[0]
        if self.op is PredicateOp.IN:
            accepted = set(self.values)
            return np.fromiter(
                (member in accepted for member in column), dtype=bool, count=len(column)
            )
        low, high = self.values
        return np.fromiter(
            (low <= member <= high for member in column), dtype=bool, count=len(column)
        )

    def member_set(self) -> Optional[FrozenSet]:
        """The explicit member set this predicate accepts, if enumerable."""
        if self.op in (PredicateOp.EQ, PredicateOp.IN):
            return frozenset(self.values)
        return None

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Predicate)
            and (other.level, other.op, other.values) == (self.level, self.op, self.values)
        )

    def __hash__(self) -> int:
        return hash(("Predicate", self.level, self.op, self.values))

    def __repr__(self) -> str:
        if self.op is PredicateOp.EQ:
            return f"{self.level} = {self.values[0]!r}"
        if self.op is PredicateOp.IN:
            rendered = ", ".join(repr(v) for v in self.values)
            return f"{self.level} in {{{rendered}}}"
        return f"{self.level} between {self.values[0]!r} and {self.values[1]!r}"


class CubeQuery:
    """A cube query ``q = (C0, G_q, P_q, M_q)`` over a detailed cube.

    ``source`` names the detailed cube (resolution to actual data happens in
    the OLAP engine, which owns the star-schema bindings).  Queries are value
    objects, which lets plans compare and rewrite them (e.g. P3 merges the
    target's and benchmark's queries into one with a widened predicate).
    """

    __slots__ = ("source", "group_by", "predicates", "measures")

    def __init__(
        self,
        source: str,
        group_by: GroupBySet,
        predicates: Sequence[Predicate] = (),
        measures: Sequence[str] = (),
    ):
        schema = group_by.schema
        for predicate in predicates:
            raise_first(for_level_findings(schema, predicate.level), SchemaError)
        for measure in measures:
            schema.measure(measure)
        self.source = source
        self.group_by = group_by
        self.predicates: Tuple[Predicate, ...] = tuple(predicates)
        self.measures: Tuple[str, ...] = tuple(measures)

    @property
    def schema(self) -> CubeSchema:
        """The schema the query ranges over."""
        return self.group_by.schema

    def predicate_on(self, level: str) -> Optional[Predicate]:
        """The predicate constraining a level, if any."""
        for predicate in self.predicates:
            if predicate.level == level:
                return predicate
        return None

    def replace_predicate(self, old: Predicate, new: Predicate) -> "CubeQuery":
        """Return a copy with one predicate swapped (``P \\ {p} ∪ {p'}``)."""
        predicates = tuple(new if p == old else p for p in self.predicates)
        return CubeQuery(self.source, self.group_by, predicates, self.measures)

    def without_predicate(self, old: Predicate) -> "CubeQuery":
        """Return a copy with one predicate dropped."""
        predicates = tuple(p for p in self.predicates if p != old)
        return CubeQuery(self.source, self.group_by, predicates, self.measures)

    def with_predicates(self, predicates: Sequence[Predicate]) -> "CubeQuery":
        """Return a copy with a replaced predicate set."""
        return CubeQuery(self.source, self.group_by, tuple(predicates), self.measures)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CubeQuery)
            and other.source == self.source
            and other.group_by == self.group_by
            and frozenset(other.predicates) == frozenset(self.predicates)
            and other.measures == self.measures
        )

    def __hash__(self) -> int:
        return hash(
            (
                "CubeQuery",
                self.source,
                self.group_by,
                frozenset(self.predicates),
                self.measures,
            )
        )

    def __repr__(self) -> str:
        preds = ", ".join(repr(p) for p in self.predicates) or "∅"
        return (
            f"CubeQuery({self.source}, by={list(self.group_by.levels)}, "
            f"for=[{preds}], measures={list(self.measures)})"
        )

"""Cube schemas and measures (Definition 2.1, second half).

A cube schema is a couple ``C = (H, M)`` where ``H`` is a set of hierarchies
and ``M`` a tuple of numerical measures, each coupled with an aggregation
operator.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import SchemaError
from .hierarchy import Hierarchy, Level


def _agg_sum(values: np.ndarray) -> float:
    return float(np.sum(values))


def _agg_avg(values: np.ndarray) -> float:
    return float(np.mean(values))


def _agg_min(values: np.ndarray) -> float:
    return float(np.min(values))


def _agg_max(values: np.ndarray) -> float:
    return float(np.max(values))


def _agg_count(values: np.ndarray) -> float:
    return float(len(values))


AGGREGATION_OPERATORS: Dict[str, Callable[[np.ndarray], float]] = {
    "sum": _agg_sum,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
    "count": _agg_count,
}
"""The library of aggregation operators ``op(m)`` available for measures."""

DISTRIBUTIVE_OPERATORS = frozenset({"sum", "min", "max", "count"})
"""Operators that can be computed by re-aggregating partial aggregates."""


class Measure:
    """A numerical measure coupled with its aggregation operator.

    ``op`` must name one of :data:`AGGREGATION_OPERATORS`.  The paper writes
    ``op(quantity) = sum`` — here ``Measure("quantity", "sum")``.
    """

    __slots__ = ("name", "op")

    def __init__(self, name: str, op: str = "sum"):
        if not name or not isinstance(name, str):
            raise SchemaError(f"measure name must be a non-empty string, got {name!r}")
        if op not in AGGREGATION_OPERATORS:
            raise SchemaError(
                f"unknown aggregation operator {op!r} for measure {name!r} "
                f"(known: {', '.join(sorted(AGGREGATION_OPERATORS))})"
            )
        self.name = name
        self.op = op

    @property
    def is_distributive(self) -> bool:
        """Whether the measure's operator is distributive (sum/min/max/count)."""
        return self.op in DISTRIBUTIVE_OPERATORS

    def aggregate(self, values: np.ndarray) -> float:
        """Aggregate a 1-D array of values with the measure's operator."""
        return AGGREGATION_OPERATORS[self.op](values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Measure) and (other.name, other.op) == (self.name, self.op)

    def __hash__(self) -> int:
        return hash(("Measure", self.name, self.op))

    def __repr__(self) -> str:
        return f"Measure({self.name!r}, op={self.op!r})"


class CubeSchema:
    """A cube schema ``C = (H, M)``.

    Hierarchies are indexed both by hierarchy name and by level name; level
    names must be globally unique across hierarchies so that predicates and
    group-by sets can name levels without qualifying the hierarchy (as the
    paper's syntax does).
    """

    def __init__(self, name: str, hierarchies: Iterable[Hierarchy], measures: Sequence[Measure]):
        if not name or not isinstance(name, str):
            raise SchemaError(f"cube schema name must be a non-empty string, got {name!r}")
        self.name = name
        self.hierarchies: Tuple[Hierarchy, ...] = tuple(hierarchies)
        self.measures: Tuple[Measure, ...] = tuple(measures)
        if not self.hierarchies:
            raise SchemaError(f"cube schema {name!r} must have at least one hierarchy")
        if not self.measures:
            raise SchemaError(f"cube schema {name!r} must have at least one measure")

        self._hierarchy_by_name: Dict[str, Hierarchy] = {}
        self._hierarchy_by_level: Dict[str, Hierarchy] = {}
        for hierarchy in self.hierarchies:
            if hierarchy.name in self._hierarchy_by_name:
                raise SchemaError(f"duplicate hierarchy name {hierarchy.name!r}")
            self._hierarchy_by_name[hierarchy.name] = hierarchy
            for level in hierarchy.levels:
                if level.name in self._hierarchy_by_level:
                    other = self._hierarchy_by_level[level.name].name
                    raise SchemaError(
                        f"level name {level.name!r} appears in hierarchies "
                        f"{other!r} and {hierarchy.name!r}; level names must be unique"
                    )
                self._hierarchy_by_level[level.name] = hierarchy

        self._measure_by_name: Dict[str, Measure] = {}
        for measure in self.measures:
            if measure.name in self._measure_by_name:
                raise SchemaError(f"duplicate measure name {measure.name!r}")
            self._measure_by_name[measure.name] = measure

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def hierarchy(self, name: str) -> Hierarchy:
        """Return the hierarchy with the given name."""
        try:
            return self._hierarchy_by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no hierarchy {name!r} "
                f"(hierarchies: {', '.join(self.hierarchy_names())})"
            ) from None

    def hierarchy_of_level(self, level_name: str) -> Hierarchy:
        """Return the hierarchy a level belongs to."""
        try:
            return self._hierarchy_by_level[level_name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no level {level_name!r}"
            ) from None

    def has_level(self, level_name: str) -> bool:
        """Return whether any hierarchy defines a level with that name."""
        return level_name in self._hierarchy_by_level

    def level(self, level_name: str) -> Level:
        """Return the :class:`Level` object for a (globally unique) level name."""
        return self.hierarchy_of_level(level_name).level(level_name)

    def measure(self, name: str) -> Measure:
        """Return the measure with the given name."""
        try:
            return self._measure_by_name[name]
        except KeyError:
            raise SchemaError(
                f"cube {self.name!r} has no measure {name!r}"
            ) from None

    def has_measure(self, name: str) -> bool:
        """Return whether the schema defines a measure with that name."""
        return name in self._measure_by_name

    def hierarchy_names(self) -> Tuple[str, ...]:
        """Names of all hierarchies, in declaration order."""
        return tuple(h.name for h in self.hierarchies)

    def measure_names(self) -> Tuple[str, ...]:
        """Names of all measures, in declaration order."""
        return tuple(m.name for m in self.measures)

    def finest_group_by(self) -> Tuple[str, ...]:
        """Level names of the top group-by set ``G0`` (one finest level per
        hierarchy, in hierarchy declaration order)."""
        return tuple(h.finest_level.name for h in self.hierarchies)

    def temporal_hierarchy(self) -> Optional[Hierarchy]:
        """Return the hierarchy conventionally considered temporal, if any.

        Past benchmarks need a temporal level.  We use the convention that
        the temporal hierarchy is the one named ``date`` or ``time`` (case
        insensitive), falling back to a hierarchy that *has* a level with one
        of those names.
        """
        for hierarchy in self.hierarchies:
            if hierarchy.name.lower() in ("date", "time"):
                return hierarchy
        for hierarchy in self.hierarchies:
            for level in hierarchy.levels:
                if level.name.lower() in ("date", "time"):
                    return hierarchy
        return None

    def __repr__(self) -> str:
        return (
            f"CubeSchema({self.name!r}, hierarchies={list(self.hierarchy_names())}, "
            f"measures={list(self.measure_names())})"
        )

"""Group-by sets and coordinates (Definition 2.3).

A group-by set of a cube schema is a tuple of levels, at most one per
hierarchy.  Hierarchies that do not appear are completely aggregated.  The
roll-up orders of the hierarchies induce a partial order ``⪰_H`` over
group-by sets; coordinates of a finer group-by set roll up (``rup``) to
coordinates of any coarser one by mapping each member through the part-of
order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .errors import SchemaError
from .hierarchy import Member
from .rules import by_level_findings, raise_first
from .schema import CubeSchema

Coordinate = Tuple[Member, ...]
"""A coordinate: one member per level of a group-by set, in group-by order."""


class GroupBySet:
    """A group-by set over a cube schema.

    Levels are stored in a canonical order — the declaration order of their
    hierarchies in the schema — so that two group-by sets mentioning the same
    levels in different textual orders compare equal and produce identically
    laid-out coordinates.
    """

    __slots__ = ("schema", "levels", "_hierarchy_names", "_level_pos")

    def __init__(self, schema: CubeSchema, level_names: Iterable[str]):
        requested = list(level_names)
        by_hierarchy: Dict[str, str] = {}
        for position, level_name in enumerate(requested):
            raise_first(
                by_level_findings(schema, level_name, requested[:position]),
                SchemaError,
            )
            by_hierarchy[schema.hierarchy_of_level(level_name).name] = level_name
        ordered = [
            by_hierarchy[h.name] for h in schema.hierarchies if h.name in by_hierarchy
        ]
        self.schema = schema
        self.levels: Tuple[str, ...] = tuple(ordered)
        self._hierarchy_names: Tuple[str, ...] = tuple(
            h.name for h in schema.hierarchies if h.name in by_hierarchy
        )
        self._level_pos: Dict[str, int] = {name: i for i, name in enumerate(self.levels)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hierarchy_names(self) -> Tuple[str, ...]:
        """Hierarchy names covered by this group-by set, in canonical order."""
        return self._hierarchy_names

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __contains__(self, level_name: str) -> bool:
        return level_name in self._level_pos

    def position_of(self, level_name: str) -> int:
        """Index of a level within coordinates of this group-by set."""
        try:
            return self._level_pos[level_name]
        except KeyError:
            raise SchemaError(
                f"level {level_name!r} is not part of group-by set {self.levels}"
            ) from None

    def level_for_hierarchy(self, hierarchy_name: str) -> str:
        """The level this group-by set picks from a hierarchy.

        Raises :class:`SchemaError` if the hierarchy is fully aggregated.
        """
        for level_name, h_name in zip(self.levels, self._hierarchy_names):
            if h_name == hierarchy_name:
                return level_name
        raise SchemaError(
            f"hierarchy {hierarchy_name!r} is fully aggregated in "
            f"group-by set {self.levels}"
        )

    # ------------------------------------------------------------------
    # Partial order  ⪰_H  and roll-up of coordinates
    # ------------------------------------------------------------------
    def rolls_up_to(self, coarser: "GroupBySet") -> bool:
        """Return whether ``self ⪰_H coarser``.

        Holds when every hierarchy of ``coarser`` also appears in ``self``
        with a level at least as fine.
        """
        if coarser.schema is not self.schema and coarser.schema.name != self.schema.name:
            return False
        for level_name, h_name in zip(coarser.levels, coarser._hierarchy_names):
            if h_name not in set(self._hierarchy_names):
                return False
            own_level = self.level_for_hierarchy(h_name)
            hierarchy = self.schema.hierarchy(h_name)
            if not hierarchy.rolls_up_to(own_level, level_name):
                return False
        return True

    def rup(self, coordinate: Coordinate, coarser: "GroupBySet") -> Coordinate:
        """Roll a coordinate of ``self`` up to group-by set ``coarser``.

        Implements ``rup_{G'}(γ)`` of Definition 2.3: each member is mapped
        through the part-of order of its hierarchy; hierarchies absent from
        ``coarser`` are dropped (complete aggregation).
        """
        if len(coordinate) != len(self.levels):
            raise SchemaError(
                f"coordinate {coordinate!r} has {len(coordinate)} members, "
                f"group-by set has {len(self.levels)} levels"
            )
        if not self.rolls_up_to(coarser):
            raise SchemaError(
                f"group-by set {self.levels} does not roll up to {coarser.levels}"
            )
        members = []
        for target_level, h_name in zip(coarser.levels, coarser._hierarchy_names):
            own_level = self.level_for_hierarchy(h_name)
            member = coordinate[self.position_of(own_level)]
            hierarchy = self.schema.hierarchy(h_name)
            members.append(hierarchy.rollup_member(member, own_level, target_level))
        return tuple(members)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupBySet)
            and other.levels == self.levels
            and other.schema.name == self.schema.name
        )

    def __hash__(self) -> int:
        return hash(("GroupBySet", self.schema.name, self.levels))

    def __repr__(self) -> str:
        return f"GroupBySet({list(self.levels)})"


def top_group_by(schema: CubeSchema) -> GroupBySet:
    """The top (finest) group-by set ``G0``: one finest level per hierarchy."""
    return GroupBySet(schema, schema.finest_group_by())

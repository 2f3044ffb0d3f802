"""Star-schema metadata: the physical description of a cube's storage.

A :class:`StarSchema` records which catalog table is the fact table, which
are the dimension tables, how they link (FK → surrogate key), and which
dimension/fact column stores each OLAP level.  This is the multidimensional
metadata the engine of [6] uses to rewrite cube queries into SQL; the OLAP
layer (:mod:`repro.olap`) consults it to translate gets, drill-acrosses and
pivots into engine queries.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.errors import EngineError
from .query import DimensionJoin, FACT


class DimensionBinding:
    """One dimension table: its join to the fact and its level columns.

    ``level_columns`` maps OLAP level names to columns of the dimension
    table, finest first (e.g. ``{"customer": "c_name", "city": "c_city",
    "nation": "c_nation"}``).

    ``properties`` maps *descriptive property* names to ``(level, column)``
    pairs — e.g. ``{"population": ("country", "s_population")}`` — enabling
    the per-capita comparisons of the paper's §8.  A property must be
    functionally dependent on its level.
    """

    __slots__ = ("hierarchy", "table", "fact_fk", "dim_key", "level_columns",
                 "properties")

    def __init__(
        self,
        hierarchy: str,
        table: str,
        fact_fk: str,
        dim_key: str,
        level_columns: Mapping[str, str],
        properties: Mapping[str, Tuple[str, str]] = (),
    ):
        self.hierarchy = hierarchy
        self.table = table
        self.fact_fk = fact_fk
        self.dim_key = dim_key
        self.level_columns: Dict[str, str] = dict(level_columns)
        self.properties: Dict[str, Tuple[str, str]] = dict(properties)

    def join(self) -> DimensionJoin:
        """The fact→dimension join descriptor."""
        return DimensionJoin(self.table, self.fact_fk, self.dim_key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DimensionBinding({self.hierarchy!r} -> {self.table}, "
            f"levels={list(self.level_columns)})"
        )


class StarSchema:
    """The star-schema layout of one detailed cube.

    ``degenerate_levels`` maps levels stored directly on the fact table
    (degenerate dimensions) to fact columns; ``measure_columns`` maps
    measure names to fact columns.
    """

    def __init__(
        self,
        name: str,
        fact_table: str,
        dimensions: Sequence[DimensionBinding],
        measure_columns: Mapping[str, str],
        degenerate_levels: Optional[Mapping[str, str]] = None,
    ):
        self.name = name
        self.fact_table = fact_table
        self.dimensions: Tuple[DimensionBinding, ...] = tuple(dimensions)
        self.measure_columns: Dict[str, str] = dict(measure_columns)
        self.degenerate_levels: Dict[str, str] = dict(degenerate_levels or {})

        self._binding_by_level: Dict[str, DimensionBinding] = {}
        self._property_bindings: Dict[str, Tuple[DimensionBinding, str, str]] = {}
        for binding in self.dimensions:
            for level_name in binding.level_columns:
                if level_name in self._binding_by_level or level_name in self.degenerate_levels:
                    raise EngineError(
                        f"level {level_name!r} is bound twice in star schema {name!r}"
                    )
                self._binding_by_level[level_name] = binding
            for property_name, (level_name, column) in binding.properties.items():
                if property_name in self._property_bindings:
                    raise EngineError(
                        f"property {property_name!r} is bound twice in star "
                        f"schema {name!r}"
                    )
                if level_name not in binding.level_columns:
                    raise EngineError(
                        f"property {property_name!r} references level "
                        f"{level_name!r} which dimension {binding.table!r} "
                        "does not bind"
                    )
                self._property_bindings[property_name] = (binding, level_name, column)

    # ------------------------------------------------------------------
    def column_for_level(self, level_name: str) -> Tuple[str, str]:
        """The ``(table_token, column)`` pair storing a level's members."""
        if level_name in self.degenerate_levels:
            return FACT, self.degenerate_levels[level_name]
        binding = self._binding_by_level.get(level_name)
        if binding is None:
            raise EngineError(
                f"star schema {self.name!r} does not bind level {level_name!r}"
            )
        return binding.table, binding.level_columns[level_name]

    def column_for_measure(self, measure_name: str) -> str:
        """The fact column storing a measure."""
        try:
            return self.measure_columns[measure_name]
        except KeyError:
            raise EngineError(
                f"star schema {self.name!r} does not bind measure {measure_name!r}"
            ) from None

    def has_level(self, level_name: str) -> bool:
        return level_name in self._binding_by_level or level_name in self.degenerate_levels

    def has_property(self, property_name: str) -> bool:
        """Whether a descriptive property with that name is bound."""
        return property_name in self._property_bindings

    def property_binding(self, property_name: str) -> Tuple[str, str, str]:
        """The ``(level, table, column)`` triple of a property."""
        try:
            binding, level_name, column = self._property_bindings[property_name]
        except KeyError:
            raise EngineError(
                f"star schema {self.name!r} does not bind property "
                f"{property_name!r}"
            ) from None
        return level_name, binding.table, column

    def all_joins(self) -> Tuple[DimensionJoin, ...]:
        """Join descriptors for every dimension of the star."""
        return tuple(binding.join() for binding in self.dimensions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StarSchema({self.name!r}, fact={self.fact_table!r}, "
            f"dimensions={[d.table for d in self.dimensions]})"
        )

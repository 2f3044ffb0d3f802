"""Cubes: partial functions from coordinates to measure tuples (Def. 2.4/2.6).

A :class:`Cube` represents either a detailed cube (over the top group-by set
``G0``) or a derived cube (the result of a cube query).  Cubes are *sparse*:
only coordinates for which business events exist are stored.

Storage is columnar: one object array per group-by level (the coordinate
columns) and one array per measure.  This makes the holistic transformations
of Section 3.2 and the joins of Section 4.2 vectorisable, mirroring the
paper's use of Pandas DataFrames for in-memory post-processing.

Each cube keeps, per level, the ``(codes, dictionary)`` pair its engine
result grouped by (``dictionary[codes]`` is the column, the dictionary is
sorted) and encodes a level on demand when it has none.  The logical
operators run on those codes (kernels in :mod:`repro.engine.kernels`),
wherever the plan places them: a pushed drill-across or pivot is the same
operator applied to the engine's gets.

* :meth:`Cube.join` — a plan's join node, pushed or in memory: the fan-in
  partial join when it is ``multi``, else a join on unique matches;
* :meth:`Cube.natural_join` — drill-across ``C1 ⋈ C2`` on full coordinates;
* :meth:`Cube.partial_join` — ``C1 ⋈_{l1..lm} C2`` which matches on a subset
  of levels and appends the measures of *all* matching benchmark cells;
* :meth:`Cube.pivot` — ``⊞`` which keeps one reference slice of a level and
  appends sibling-slice measures as new columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import JoinabilityError, SchemaError
from .groupby import Coordinate, GroupBySet
from .hierarchy import Member
from .schema import CubeSchema

BENCHMARK_ALIAS = "benchmark"
"""The alias the syntax uses to qualify benchmark measures (``benchmark.m``)."""


def qualified(alias: str, measure_name: str) -> str:
    """Render an alias-qualified measure name, e.g. ``benchmark.quantity``."""
    return f"{alias}.{measure_name}"


def _as_object_array(values: Sequence) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        array[i] = value
    return array


def _as_measure_array(values: Sequence) -> np.ndarray:
    """Coerce a measure column to float64 when numeric, object otherwise."""
    if isinstance(values, np.ndarray):
        if values.dtype == object:
            return values
        return values.astype(np.float64, copy=False)
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return _as_object_array(list(values))


class Cube:
    """A sparse cube laid out column-wise.

    Parameters
    ----------
    schema:
        The cube schema the cube instantiates.
    group_by:
        The group-by set of the cube's coordinates.
    coords:
        Mapping from level name to a column of members.  Must contain exactly
        the levels of ``group_by``, all columns the same length.
    measures:
        Mapping from measure (or derived-measure/label) name to a column.
        Numeric columns are stored as float64; non-numeric (e.g. labels) as
        object arrays.  Insertion order is preserved and meaningful.
    """

    def __init__(
        self,
        schema: CubeSchema,
        group_by: GroupBySet,
        coords: Mapping[str, Sequence],
        measures: Mapping[str, Sequence],
    ):
        if set(coords.keys()) != set(group_by.levels):
            raise SchemaError(
                f"coordinate columns {sorted(coords)} do not match "
                f"group-by levels {list(group_by.levels)}"
            )
        self.schema = schema
        self.group_by = group_by
        self.coords: Dict[str, np.ndarray] = {
            level: _as_object_array(list(coords[level]))
            if not isinstance(coords[level], np.ndarray)
            else coords[level]
            for level in group_by.levels
        }
        self.measures: Dict[str, np.ndarray] = {
            name: _as_measure_array(column) for name, column in measures.items()
        }
        lengths = {len(col) for col in self.coords.values()} | {
            len(col) for col in self.measures.values()
        }
        if len(lengths) > 1:
            raise SchemaError(f"ragged cube columns, lengths {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0
        self._coord_index: Optional[Dict[Coordinate, int]] = None
        self.codes: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_cells(
        cls,
        schema: CubeSchema,
        group_by: GroupBySet,
        cells: Iterable[Tuple[Coordinate, Mapping[str, float]]],
        measure_names: Optional[Sequence[str]] = None,
    ) -> "Cube":
        """Build a cube from an iterable of ``(coordinate, {measure: value})``.

        Convenient for tests and examples; the hot paths build columns
        directly.
        """
        cell_list = list(cells)
        if measure_names is None:
            measure_names = list(cell_list[0][1].keys()) if cell_list else []
        coords: Dict[str, List] = {level: [] for level in group_by.levels}
        measures: Dict[str, List] = {name: [] for name in measure_names}
        for coordinate, values in cell_list:
            if len(coordinate) != len(group_by.levels):
                raise SchemaError(
                    f"coordinate {coordinate!r} does not match group-by "
                    f"{list(group_by.levels)}"
                )
            for level, member in zip(group_by.levels, coordinate):
                coords[level].append(member)
            for name in measure_names:
                measures[name].append(values[name])
        return cls(schema, group_by, coords, measures)

    @classmethod
    def empty(
        cls,
        schema: CubeSchema,
        group_by: GroupBySet,
        measure_names: Sequence[str],
    ) -> "Cube":
        """An empty cube with the given layout."""
        return cls(
            schema,
            group_by,
            {level: [] for level in group_by.levels},
            {name: [] for name in measure_names},
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of cells ``|C|``."""
        return self._n

    @property
    def measure_names(self) -> Tuple[str, ...]:
        """Measure column names in order (original, derived, label)."""
        return tuple(self.measures.keys())

    def measure(self, name: str) -> np.ndarray:
        """Return a measure column by name."""
        try:
            return self.measures[name]
        except KeyError:
            raise SchemaError(
                f"cube has no measure column {name!r} "
                f"(columns: {', '.join(self.measure_names)})"
            ) from None

    def coordinate_at(self, row: int) -> Coordinate:
        """The coordinate of the cell stored at a given row."""
        return tuple(self.coords[level][row] for level in self.group_by.levels)

    def coordinates(self) -> List[Coordinate]:
        """All coordinates, in storage order."""
        columns = [self.coords[level] for level in self.group_by.levels]
        return list(zip(*columns)) if columns else [() for _ in range(self._n)]

    def coordinate_index(self) -> Dict[Coordinate, int]:
        """Map each coordinate to its row (built lazily, cached)."""
        if self._coord_index is None:
            self._coord_index = {
                coordinate: row for row, coordinate in enumerate(self.coordinates())
            }
        return self._coord_index

    def encoded(self, level: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, dictionary)`` of a level: kept, or encoded now."""
        entry = self.codes.get(level)
        if entry is None:
            from ..engine.kernels import dictionary_encode

            entry = self.codes[level] = dictionary_encode(self.coords[level])
        return entry

    def __contains__(self, coordinate: Coordinate) -> bool:
        """``γ in C`` — whether the coordinate participates in the cube."""
        return tuple(coordinate) in self.coordinate_index()

    def cell(self, coordinate: Coordinate) -> Dict[str, float]:
        """The measure values of one cell, as a dict."""
        row = self.coordinate_index()[tuple(coordinate)]
        return {name: self.measures[name][row] for name in self.measures}

    def cells(self) -> Iterable[Tuple[Coordinate, Dict[str, float]]]:
        """Iterate ``(coordinate, {measure: value})`` pairs."""
        names = list(self.measures)
        for row, coordinate in enumerate(self.coordinates()):
            yield coordinate, {name: self.measures[name][row] for name in names}

    def to_rows(self) -> List[Dict[str, object]]:
        """Flatten to a list of plain dicts (levels + measures); for display."""
        rows: List[Dict[str, object]] = []
        for row in range(self._n):
            record: Dict[str, object] = {
                level: self.coords[level][row] for level in self.group_by.levels
            }
            for name in self.measures:
                record[name] = self.measures[name][row]
            rows.append(record)
        return rows

    # ------------------------------------------------------------------
    # Column-level mutation-free transforms
    # ------------------------------------------------------------------
    def with_measure(self, name: str, column: Sequence) -> "Cube":
        """Return a copy of the cube with one extra measure column appended.

        This is the storage-level counterpart of the transform operators:
        they "preserve the set of coordinates ... monotonically adding new
        measures" (property P1 of Section 5.1).
        """
        if name in self.measures:
            raise SchemaError(f"cube already has a measure column named {name!r}")
        column = _as_measure_array(column)
        if len(column) != self._n:
            raise SchemaError(
                f"new measure {name!r} has {len(column)} values, cube has {self._n} cells"
            )
        measures = dict(self.measures)
        measures[name] = column
        return self._with_measures(measures)

    def rename_measures(self, renames: Mapping[str, str]) -> "Cube":
        """Return a copy with measure columns renamed (order preserved)."""
        measures = {}
        for name, column in self.measures.items():
            measures[renames.get(name, name)] = column
        if len(measures) != len(self.measures):
            raise SchemaError(f"renaming {renames!r} collapses measure columns")
        return self._with_measures(measures)

    def project_measures(self, names: Sequence[str]) -> "Cube":
        """Return a copy keeping only the named measure columns, in order."""
        return self._with_measures({name: self.measure(name) for name in names})

    def filter_rows(self, mask: np.ndarray) -> "Cube":
        """Return a copy keeping only rows where ``mask`` is true."""
        return self.take(mask)

    def take(self, rows: np.ndarray) -> "Cube":
        """The cells an index array or mask selects, codes carried along."""
        cube = Cube(
            self.schema,
            self.group_by,
            {level: column[rows] for level, column in self.coords.items()},
            {name: column[rows] for name, column in self.measures.items()},
        )
        cube.codes = {
            level: (codes[rows], dictionary)
            for level, (codes, dictionary) in self.codes.items()
        }
        return cube

    def sorted_by_coordinates(self) -> "Cube":
        """Return a copy with rows sorted lexicographically by coordinate.

        Useful for deterministic output in tests and reports.
        """
        keys = [self.encoded(level)[0] for level in reversed(self.group_by.levels)]
        return self.take(np.lexsort(keys) if keys else np.arange(self._n))

    def _with_measures(self, measures: Mapping[str, np.ndarray]) -> "Cube":
        cube = Cube(self.schema, self.group_by, self.coords, measures)
        cube.codes = dict(self.codes)
        return cube

    # ------------------------------------------------------------------
    # Joinability (Definition 3.1)
    # ------------------------------------------------------------------
    def is_joinable_with(self, other: "Cube") -> bool:
        """Whether a drill-across is possible: same group-by set levels."""
        return self.group_by.levels == other.group_by.levels

    def _require_joinable(self, other: "Cube") -> None:
        if not self.is_joinable_with(other):
            raise JoinabilityError(
                f"cubes are not joinable: group-by {list(self.group_by.levels)} "
                f"vs {list(other.group_by.levels)}"
            )

    # ------------------------------------------------------------------
    # Join and pivot (Section 4.2)
    # ------------------------------------------------------------------
    def join(
        self,
        other: "Cube",
        join_levels: Optional[Sequence[str]] = None,
        alias: str = BENCHMARK_ALIAS,
        outer: bool = False,
        multi: bool = False,
    ) -> "Cube":
        """A plan's join node ``self ⋈ other``, pushed or in memory alike.

        A fan-in join (``multi``) is :meth:`partial_join`.  Any other
        matches each cell with the one cell of ``other`` that agrees on
        ``join_levels`` (:meth:`join_on_codes`), or on every level when
        they are ``None`` (:meth:`natural_join`).
        """
        if multi:
            levels = self.group_by.levels if join_levels is None else join_levels
            return self.partial_join(other, levels, alias=alias, outer=outer)
        if join_levels is None:
            return self.natural_join(other, alias=alias, outer=outer)
        return self.join_on_codes(
            other,
            [self.encoded(level) for level in join_levels],
            [other.encoded(level) for level in join_levels],
            alias=alias,
            outer=outer,
        )

    def natural_join(
        self,
        other: "Cube",
        alias: str = BENCHMARK_ALIAS,
        outer: bool = False,
    ) -> "Cube":
        """Drill-across ``self ⋈ other`` on equality of full coordinates.

        The measures of ``other`` are appended with alias-qualified names.
        With ``outer=True`` this is the left-outer variant used by
        ``assess*``: non-matching target cells are kept and their benchmark
        measures filled with NaN.
        """
        self._require_joinable(other)
        levels = self.group_by.levels
        return self.join_on_codes(
            other,
            [self.encoded(level) for level in levels],
            [other.encoded(level) for level in levels],
            alias=alias,
            outer=outer,
        )

    def join_on_codes(
        self,
        other: "Cube",
        left_keys: "Sequence[Tuple[np.ndarray, np.ndarray]]",
        right_keys: "Sequence[Tuple[np.ndarray, np.ndarray]]",
        alias: str = BENCHMARK_ALIAS,
        outer: bool = False,
    ) -> "Cube":
        """The drill-across on given ``(codes, dictionary)`` key columns,
        which must be unique on ``other``'s side.

        :meth:`join` passes the join levels of both cubes; the ancestor
        join passes the left cube's levels with one rolled up.
        """
        from ..engine.kernels import join_unique

        rows, matches = join_unique(
            left_keys, right_keys, len(self), len(other), outer
        )
        return self._joined(other, rows, matches[:, None], alias)

    def partial_join(
        self,
        other: "Cube",
        join_levels: Sequence[str],
        alias: str = BENCHMARK_ALIAS,
        outer: bool = False,
    ) -> "Cube":
        """Partial join ``self ⋈_{l1..lm} other`` (Section 4.2).

        Cells match when they agree on ``join_levels`` only.  For each target
        cell, the measures of *all* matching cells of ``other`` are appended.
        Each match goes in the slot of its *residual coordinate* (its members
        outside ``join_levels``) among the residual coordinates ``other``
        holds, in the members' sorted order: with ``p`` of them the columns
        are suffixed ``_1 .. _p`` and a missing match stays NaN; with one,
        the names carry no suffix.  This is the construct past benchmarks
        use to line up the k previous time slices next to each target cell
        (slice ``i`` in column ``_i``).  Unlike the natural join, this
        operation is not commutative.
        """
        from ..engine.kernels import join_fan_in

        self._require_joinable(other)
        for level in join_levels:
            if level not in self.group_by:
                raise JoinabilityError(
                    f"join level {level!r} is not part of group-by "
                    f"{list(self.group_by.levels)}"
                )
        residual = [
            level for level in other.group_by.levels if level not in join_levels
        ]
        rows, slots = join_fan_in(
            [self.encoded(level) for level in join_levels],
            [other.encoded(level) for level in join_levels],
            [other.encoded(level) for level in residual],
            len(self),
            len(other),
            outer,
        )
        return self._joined(other, rows, slots, alias)

    def pivot(
        self,
        level: str,
        reference_member: Optional[Member],
        measure_renames: Mapping[Member, Mapping[str, str]],
        require_all: bool = True,
        fill_member: Optional[Member] = None,
    ) -> "Cube":
        """Pivot ``⊞`` (Section 4.2): keep the reference slice of ``level``
        and append neighbour slices' measures as new columns.

        ``measure_renames`` maps each *non-reference* member to a
        ``{measure: new_name}`` mapping, e.g. ``{"France": {"quantity":
        "qtyFrance"}}``.  With ``require_all=True`` (inner semantics, as in
        the paper's POP SQL where pivoted columns must be non-null) reference
        cells that lack any neighbour value are dropped; otherwise missing
        neighbour measures are NaN.

        **Spread mode** (``reference_member=None``): instead of anchoring on
        one slice, emit one row per distinct rest-key found in *any* slice,
        with the pivot-level coordinate set to ``fill_member`` and the
        original measure columns dropped (each slice's values live only in
        its renamed columns).  Past benchmarks use this to line up the k
        history slices without losing cells absent from the newest slice.
        """
        from ..engine.kernels import gather_with_nulls, pivot_rows

        if level not in self.group_by:
            raise SchemaError(
                f"pivot level {level!r} not in group-by {list(self.group_by.levels)}"
            )
        neighbours = list(measure_renames)
        rows, member_rows = pivot_rows(
            [self.encoded(rest) for rest in self.group_by.levels if rest != level],
            self.encoded(level),
            reference_member,
            neighbours,
            require_all,
        )
        pivoted = self.take(rows)
        if reference_member is None:
            filler = fill_member if fill_member is not None else (
                neighbours[-1] if neighbours else None
            )
            fill_column = np.empty(len(rows), dtype=object)
            fill_column[:] = filler
            pivoted.coords[level] = fill_column
            del pivoted.codes[level]
            pivoted.measures = {}
        for slot, member in enumerate(neighbours):
            for measure_name, new_name in measure_renames[member].items():
                if new_name in pivoted.measures:
                    raise SchemaError(f"pivot would duplicate column {new_name!r}")
                pivoted.measures[new_name] = gather_with_nulls(
                    self.measure(measure_name), member_rows[:, slot]
                )
        return pivoted

    def _joined(
        self, other: "Cube", rows: np.ndarray, slots: np.ndarray, alias: str
    ) -> "Cube":
        """The kept ``rows`` of this cube with ``other``'s measures appended,
        one column per slot of the join's ``rows × width`` matrix."""
        from ..engine.kernels import fan_in_columns

        joined = self.take(rows)
        for name, column in other.measures.items():
            for new_name, values in fan_in_columns(
                qualified(alias, name), column, slots
            ).items():
                if new_name in joined.measures:
                    raise SchemaError(f"join would duplicate column {new_name!r}")
                joined.measures[new_name] = values
        return joined

    def __repr__(self) -> str:
        return (
            f"Cube(schema={self.schema.name!r}, by={list(self.group_by.levels)}, "
            f"measures={list(self.measures)}, cells={self._n})"
        )


def constant_benchmark_cube(target: Cube, value: float, name: str = "constant") -> Cube:
    """Build a constant benchmark ``B`` for a target cube (Section 3.1).

    ``B`` has exactly the coordinates of the target and one measure holding
    ``value`` in every cell.
    """
    column = np.full(len(target), float(value))
    return Cube(
        target.schema,
        target.group_by,
        target.coords,
        {name: column},
    )

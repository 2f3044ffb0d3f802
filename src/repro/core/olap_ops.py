"""Classical OLAP operators over in-memory cubes.

The paper "proposes an assess operator to complement the traditional OLAP
roll-up's and drill-down's"; this module supplies those traditional
operators on :class:`~repro.core.cube.Cube` objects so cubes returned by
the engine can keep being explored in memory:

* :func:`rollup` — aggregate a derived cube to a coarser group-by set via
  the hierarchies' part-of orders;
* :func:`slice_cube` — restrict a cube with a predicate (slice/dice).

Drill-across is :meth:`~repro.core.cube.Cube.natural_join`.

Roll-up re-aggregates the *already aggregated* cells of a derived cube, so
it is only exact for distributive aggregation operators (sum, min, max,
count); rolling up an avg measure raises, because the correct result needs
the base data (Definition 2.6 computes it from C0).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .cube import Cube
from .errors import SchemaError
from .groupby import GroupBySet
from .query import Predicate


def rollup(cube: Cube, target: GroupBySet) -> Cube:
    """Aggregate a cube to a coarser group-by set.

    Every coordinate rolls up through the part-of orders (``rup`` of
    Definition 2.3); cells mapping to the same coarse coordinate are merged
    with each measure's aggregation operator.  Measures whose names are not
    in the schema (derived columns like ``comparison``) cannot be rolled up
    and are dropped, with the exception that non-numeric columns always
    are.
    """
    if not cube.group_by.rolls_up_to(target):
        raise SchemaError(
            f"group-by {list(cube.group_by.levels)} does not roll up "
            f"to {list(target.levels)}"
        )
    schema = cube.schema
    keep: List[Tuple[str, str]] = []  # (measure name, operator)
    for name in cube.measure_names:
        if not schema.has_measure(name):
            continue
        measure = schema.measure(name)
        if not measure.is_distributive:
            raise SchemaError(
                f"measure {name!r} aggregates with {measure.op!r}, which is "
                "not distributive; roll it up from the detailed cube instead"
            )
        keep.append((name, measure.op))
    if not keep:
        raise SchemaError("cube has no schema measures to roll up")

    groups: Dict[Tuple, int] = {}
    assignment = np.empty(len(cube), dtype=np.int64)
    for row, coordinate in enumerate(cube.coordinates()):
        rolled = cube.group_by.rup(coordinate, target)
        slot = groups.setdefault(rolled, len(groups))
        assignment[row] = slot

    coords: Dict[str, List] = {level: [None] * len(groups) for level in target.levels}
    for rolled, slot in groups.items():
        for position, level in enumerate(target.levels):
            coords[level][slot] = rolled[position]

    measures: Dict[str, np.ndarray] = {}
    for name, op in keep:
        values = np.asarray(cube.measure(name), dtype=np.float64)
        measures[name] = _aggregate_groups(assignment, len(groups), values, op)
    return Cube(schema, target, coords, measures)


def _aggregate_groups(
    assignment: np.ndarray, count: int, values: np.ndarray, op: str
) -> np.ndarray:
    if op == "sum":
        return np.bincount(assignment, weights=values, minlength=count)
    if op == "count":
        return np.bincount(assignment, weights=values, minlength=count)
    if op == "min":
        out = np.full(count, np.inf)
        np.minimum.at(out, assignment, values)
        return out
    if op == "max":
        out = np.full(count, -np.inf)
        np.maximum.at(out, assignment, values)
        return out
    raise SchemaError(f"cannot re-aggregate operator {op!r}")


def drill_down_levels(cube: Cube, target: GroupBySet) -> None:
    """Validate a drill-down request (finer group-by).

    A derived cube cannot be drilled down in memory — the finer data was
    aggregated away — so this helper only checks direction and raises a
    uniform, instructive error.  The OLAP engine answers drill-downs by
    re-querying the detailed cube.
    """
    if not target.rolls_up_to(cube.group_by):
        raise SchemaError(
            f"{list(target.levels)} is not finer than {list(cube.group_by.levels)}"
        )
    raise SchemaError(
        "drill-down needs the detailed cube: re-run the cube query at "
        f"group-by {list(target.levels)} instead of refining the result"
    )


def slice_cube(cube: Cube, predicate: Predicate) -> Cube:
    """Slice/dice: keep the cells satisfying a predicate on one level."""
    if predicate.level not in cube.group_by:
        raise SchemaError(
            f"slice level {predicate.level!r} not in group-by "
            f"{list(cube.group_by.levels)}"
        )
    column = cube.coords[predicate.level]
    return cube.filter_rows(predicate.mask(column))

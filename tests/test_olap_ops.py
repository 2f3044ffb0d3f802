"""Unit tests for the in-memory roll-up / slice / drill-across operators."""

import numpy as np
import pytest

from repro.core import (
    Cube,
    CubeQuery,
    CubeSchema,
    GroupBySet,
    Hierarchy,
    Level,
    Measure,
    Predicate,
    SchemaError,
)
from repro.core.olap_ops import drill_down_levels, rollup, slice_cube
from repro.datagen import brute_force_rollup


@pytest.fixture(scope="module")
def schema():
    product = Hierarchy(
        "Product",
        [Level("product"), Level("type")],
        [{"Apple": "Fruit", "Pear": "Fruit", "Milk": "Dairy"}],
    )
    store = Hierarchy(
        "Store",
        [Level("city"), Level("country")],
        [{"Roma": "Italy", "Milano": "Italy", "Paris": "France"}],
    )
    return CubeSchema(
        "S", [product, store],
        [Measure("qty", "sum"), Measure("best", "max"), Measure("avgp", "avg")],
    )


@pytest.fixture()
def cube(schema):
    gb = GroupBySet(schema, ["product", "city"])
    rows = [
        (("Apple", "Roma"), 10.0, 4.0),
        (("Apple", "Milano"), 5.0, 9.0),
        (("Pear", "Roma"), 7.0, 2.0),
        (("Milk", "Paris"), 3.0, 5.0),
    ]
    return Cube(
        schema, gb,
        {"product": [r[0][0] for r in rows], "city": [r[0][1] for r in rows]},
        {"qty": [r[1] for r in rows], "best": [r[2] for r in rows]},
    )


class TestRollup:
    def test_sum_and_max_reaggregate(self, schema, cube):
        target = GroupBySet(schema, ["type", "country"])
        rolled = rollup(cube, target)
        cells = dict(rolled.cells())
        assert cells[("Fruit", "Italy")]["qty"] == 22.0
        assert cells[("Fruit", "Italy")]["best"] == 9.0
        assert cells[("Dairy", "France")]["qty"] == 3.0

    def test_rollup_to_complete_aggregation(self, schema, cube):
        rolled = rollup(cube, GroupBySet(schema, []))
        assert len(rolled) == 1
        assert rolled.measure("qty")[0] == 25.0

    def test_matches_brute_force_oracle(self, schema, cube):
        target = GroupBySet(schema, ["type"])
        rolled = rollup(cube, target)
        oracle = brute_force_rollup(cube, target, "qty")
        for coordinate, values in rolled.cells():
            assert values["qty"] == pytest.approx(oracle[coordinate])

    def test_wrong_direction_rejected(self, schema, cube):
        coarse = rollup(cube, GroupBySet(schema, ["type"]))
        with pytest.raises(SchemaError):
            rollup(coarse, GroupBySet(schema, ["product", "city"]))

    def test_avg_measure_rejected(self, schema):
        gb = GroupBySet(schema, ["product"])
        cube = Cube(schema, gb, {"product": ["Apple"]}, {"avgp": [2.0]})
        with pytest.raises(SchemaError):
            rollup(cube, GroupBySet(schema, ["type"]))

    def test_derived_columns_dropped(self, schema, cube):
        extended = cube.with_measure("comparison", np.ones(len(cube)))
        rolled = rollup(extended, GroupBySet(schema, ["type"]))
        assert "comparison" not in rolled.measure_names

    def test_no_schema_measures_rejected(self, schema):
        gb = GroupBySet(schema, ["product"])
        cube = Cube(schema, gb, {"product": ["Apple"]}, {"whatever": [1.0]})
        with pytest.raises(SchemaError):
            rollup(cube, GroupBySet(schema, ["type"]))


class TestDrillDown:
    def test_always_instructs_requery(self, schema, cube):
        coarse = rollup(cube, GroupBySet(schema, ["type"]))
        with pytest.raises(SchemaError, match="detailed cube"):
            drill_down_levels(coarse, GroupBySet(schema, ["product"]))

    def test_non_finer_target_rejected(self, schema, cube):
        with pytest.raises(SchemaError, match="not finer"):
            drill_down_levels(cube, GroupBySet(schema, ["type"]))


class TestSlice:
    def test_slice_on_member(self, schema, cube):
        sliced = slice_cube(cube, Predicate.eq("city", "Roma"))
        assert len(sliced) == 2
        assert all(coord[1] == "Roma" for coord in sliced.coordinates())

    def test_dice_with_in(self, schema, cube):
        sliced = slice_cube(cube, Predicate.isin("product", ["Apple", "Milk"]))
        assert len(sliced) == 3

    def test_unknown_level_rejected(self, schema, cube):
        with pytest.raises(SchemaError):
            slice_cube(cube, Predicate.eq("country", "Italy"))


class TestDrillAcross:
    def test_merges_measures(self, schema, cube):
        other = cube.rename_measures({"qty": "qty2", "best": "best2"})
        merged = cube.natural_join(other, alias="other")
        assert "other.qty2" in merged.measure_names
        assert np.allclose(merged.measure("qty"), merged.measure("other.qty2"))

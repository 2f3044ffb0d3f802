"""Unit tests for the Cube data structure and its join/pivot kernels."""

import math

import numpy as np
import pytest

from repro.core import (
    Cube,
    CubeSchema,
    GroupBySet,
    Hierarchy,
    JoinabilityError,
    Level,
    Measure,
    SchemaError,
    constant_benchmark_cube,
)


@pytest.fixture(scope="module")
def schema():
    return CubeSchema(
        "SALES",
        [
            Hierarchy("Product", [Level("product"), Level("type")]),
            Hierarchy("Store", [Level("country")]),
        ],
        [Measure("quantity"), Measure("storeSales")],
    )


def make_cube(schema, rows, measures=("quantity",)):
    gb = GroupBySet(schema, ["product", "country"])
    cells = [
        (coordinate, dict(zip(measures, values)))
        for coordinate, values in rows
    ]
    return Cube.from_cells(schema, gb, cells, measure_names=list(measures))


ITALY = [
    (("Apple", "Italy"), (100.0,)),
    (("Pear", "Italy"), (90.0,)),
    (("Lemon", "Italy"), (30.0,)),
]
FRANCE = [
    (("Apple", "France"), (150.0,)),
    (("Pear", "France"), (110.0,)),
    (("Lemon", "France"), (20.0,)),
]


class TestConstruction:
    def test_from_cells_and_accessors(self, schema):
        cube = make_cube(schema, ITALY)
        assert len(cube) == 3
        assert cube.measure_names == ("quantity",)
        assert cube.cell(("Apple", "Italy")) == {"quantity": 100.0}
        assert ("Apple", "Italy") in cube
        assert ("Apple", "Spain") not in cube

    def test_mismatched_coordinate_rejected(self, schema):
        gb = GroupBySet(schema, ["product", "country"])
        with pytest.raises(SchemaError):
            Cube.from_cells(schema, gb, [(("Apple",), {"quantity": 1.0})])

    def test_ragged_columns_rejected(self, schema):
        gb = GroupBySet(schema, ["product", "country"])
        with pytest.raises(SchemaError):
            Cube(schema, gb,
                 {"product": ["a"], "country": ["x", "y"]},
                 {"quantity": [1.0]})

    def test_coords_must_match_group_by(self, schema):
        gb = GroupBySet(schema, ["product", "country"])
        with pytest.raises(SchemaError):
            Cube(schema, gb, {"product": ["a"]}, {"quantity": [1.0]})

    def test_empty_cube(self, schema):
        gb = GroupBySet(schema, ["product", "country"])
        cube = Cube.empty(schema, gb, ["quantity"])
        assert len(cube) == 0
        assert list(cube.cells()) == []

    def test_object_measures_kept_as_object(self, schema):
        gb = GroupBySet(schema, ["product", "country"])
        cube = Cube(schema, gb,
                    {"product": ["a"], "country": ["x"]},
                    {"label": ["good"]})
        assert cube.measure("label").dtype == object

    def test_to_rows(self, schema):
        cube = make_cube(schema, ITALY[:1])
        assert cube.to_rows() == [
            {"product": "Apple", "country": "Italy", "quantity": 100.0}
        ]


class TestColumnOps:
    def test_with_measure(self, schema):
        cube = make_cube(schema, ITALY)
        bigger = cube.with_measure("double", cube.measure("quantity") * 2)
        assert bigger.measure_names == ("quantity", "double")
        assert len(cube.measure_names) == 1  # original untouched
        assert bigger.cell(("Pear", "Italy"))["double"] == 180.0

    def test_with_measure_duplicate_rejected(self, schema):
        cube = make_cube(schema, ITALY)
        with pytest.raises(SchemaError):
            cube.with_measure("quantity", cube.measure("quantity"))

    def test_with_measure_wrong_length_rejected(self, schema):
        cube = make_cube(schema, ITALY)
        with pytest.raises(SchemaError):
            cube.with_measure("short", [1.0])

    def test_rename_and_project(self, schema):
        cube = make_cube(schema, ITALY).with_measure("extra", [1.0, 2.0, 3.0])
        renamed = cube.rename_measures({"extra": "bonus"})
        assert renamed.measure_names == ("quantity", "bonus")
        projected = renamed.project_measures(["bonus"])
        assert projected.measure_names == ("bonus",)

    def test_rename_collision_rejected(self, schema):
        cube = make_cube(schema, ITALY).with_measure("extra", [1.0, 2.0, 3.0])
        with pytest.raises(SchemaError):
            cube.rename_measures({"extra": "quantity"})

    def test_filter_rows(self, schema):
        cube = make_cube(schema, ITALY)
        small = cube.filter_rows(cube.measure("quantity") < 100)
        assert len(small) == 2
        assert ("Apple", "Italy") not in small

    def test_sorted_by_coordinates(self, schema):
        cube = make_cube(schema, list(reversed(ITALY)))
        ordered = cube.sorted_by_coordinates()
        assert ordered.coordinates() == sorted(cube.coordinates())


class TestNaturalJoin:
    def test_inner_join_aligns_by_coordinate(self, schema):
        left = make_cube(schema, ITALY)
        right = make_cube(
            schema,
            [(("Apple", "Italy"), (5.0,)), (("Lemon", "Italy"), (7.0,))],
        )
        joined = left.natural_join(right)
        assert len(joined) == 2
        assert joined.measure_names == ("quantity", "benchmark.quantity")
        assert joined.cell(("Lemon", "Italy"))["benchmark.quantity"] == 7.0

    def test_outer_join_keeps_unmatched_with_nan(self, schema):
        left = make_cube(schema, ITALY)
        right = make_cube(schema, [(("Apple", "Italy"), (5.0,))])
        joined = left.natural_join(right, outer=True)
        assert len(joined) == 3
        assert math.isnan(joined.cell(("Pear", "Italy"))["benchmark.quantity"])

    def test_join_requires_same_group_by(self, schema):
        left = make_cube(schema, ITALY)
        other = Cube.from_cells(
            schema, GroupBySet(schema, ["country"]),
            [(("Italy",), {"quantity": 1.0})],
        )
        with pytest.raises(JoinabilityError):
            left.natural_join(other)

    def test_custom_alias(self, schema):
        left = make_cube(schema, ITALY)
        joined = left.natural_join(make_cube(schema, ITALY), alias="goal")
        assert "goal.quantity" in joined.measure_names


class TestPartialJoin:
    def test_single_match_partial_join(self, schema):
        italy = make_cube(schema, ITALY)
        france = make_cube(schema, FRANCE)
        joined = italy.partial_join(france, ["product"])
        assert len(joined) == 3
        assert joined.cell(("Apple", "Italy"))["benchmark.quantity"] == 150.0
        # target coordinates are preserved (not replaced by the sibling's)
        assert all(coord[1] == "Italy" for coord in joined.coordinates())

    def test_partial_join_drops_unmatched(self, schema):
        italy = make_cube(schema, ITALY)
        france = make_cube(schema, FRANCE[:1])
        joined = italy.partial_join(france, ["product"])
        assert len(joined) == 1

    def test_partial_join_outer(self, schema):
        italy = make_cube(schema, ITALY)
        france = make_cube(schema, FRANCE[:1])
        joined = italy.partial_join(france, ["product"], outer=True)
        assert len(joined) == 3
        assert math.isnan(joined.cell(("Pear", "Italy"))["benchmark.quantity"])

    def test_multi_match_appends_numbered_columns(self, schema):
        italy = make_cube(schema, ITALY[:2])
        both = make_cube(
            schema,
            [FRANCE[0], (("Apple", "Spain"), (60.0,)), (("Pear", "Spain"), (70.0,))],
        )
        joined = italy.partial_join(both, ["product"])
        # One column per benchmark slice, in member order: France < Spain.
        assert "benchmark.quantity_1" in joined.measure_names
        assert "benchmark.quantity_2" in joined.measure_names
        cell = joined.cell(("Apple", "Italy"))
        assert cell["benchmark.quantity_1"] == 150.0
        assert cell["benchmark.quantity_2"] == 60.0
        # Pear lacks the France slice: Spain stays in the second column.
        cell = joined.cell(("Pear", "Italy"))
        assert math.isnan(cell["benchmark.quantity_1"])
        assert cell["benchmark.quantity_2"] == 70.0

    def test_join_level_must_be_in_group_by(self, schema):
        italy = make_cube(schema, ITALY)
        with pytest.raises(JoinabilityError):
            italy.partial_join(make_cube(schema, FRANCE), ["type"])

    def test_not_commutative(self, schema):
        italy = make_cube(schema, ITALY[:2])
        france = make_cube(schema, FRANCE)
        a = italy.partial_join(france, ["product"])
        b = france.partial_join(italy, ["product"])
        assert len(a) == 2 and len(b) == 2
        assert a.coordinates() != b.coordinates()


class TestPivot:
    def test_figure2_pivot(self, schema):
        cube = make_cube(schema, ITALY + FRANCE)
        pivoted = cube.pivot(
            "country", "Italy", {"France": {"quantity": "qtyFrance"}}
        )
        assert len(pivoted) == 3
        assert pivoted.measure_names == ("quantity", "qtyFrance")
        assert pivoted.cell(("Apple", "Italy"))["qtyFrance"] == 150.0
        assert pivoted.cell(("Lemon", "Italy"))["qtyFrance"] == 20.0

    def test_require_all_drops_incomplete_rows(self, schema):
        cube = make_cube(schema, ITALY + FRANCE[:1])
        strict = cube.pivot("country", "Italy", {"France": {"quantity": "f"}},
                            require_all=True)
        assert len(strict) == 1
        lax = cube.pivot("country", "Italy", {"France": {"quantity": "f"}},
                         require_all=False)
        assert len(lax) == 3
        assert math.isnan(lax.cell(("Pear", "Italy"))["f"])

    def test_multiple_members(self, schema):
        cube = make_cube(
            schema, ITALY[:1] + FRANCE[:1] + [(("Apple", "Spain"), (60.0,))]
        )
        pivoted = cube.pivot(
            "country",
            "Italy",
            {"France": {"quantity": "fr"}, "Spain": {"quantity": "es"}},
        )
        cell = pivoted.cell(("Apple", "Italy"))
        assert cell["fr"] == 150.0 and cell["es"] == 60.0

    def test_unknown_level_rejected(self, schema):
        cube = make_cube(schema, ITALY)
        with pytest.raises(SchemaError):
            cube.pivot("year", "Italy", {})

    def test_duplicate_column_rejected(self, schema):
        cube = make_cube(schema, ITALY + FRANCE)
        with pytest.raises(SchemaError):
            cube.pivot("country", "Italy", {"France": {"quantity": "quantity"}})


class TestConstantBenchmark:
    def test_same_coordinates_constant_value(self, schema):
        cube = make_cube(schema, ITALY)
        benchmark = constant_benchmark_cube(cube, 1000.0)
        assert len(benchmark) == len(cube)
        assert benchmark.coordinates() == cube.coordinates()
        assert set(benchmark.measure("constant")) == {1000.0}

    def test_joins_cleanly_with_target(self, schema):
        cube = make_cube(schema, ITALY)
        joined = cube.natural_join(constant_benchmark_cube(cube, 50.0))
        assert len(joined) == 3
        assert joined.cell(("Apple", "Italy"))["benchmark.constant"] == 50.0

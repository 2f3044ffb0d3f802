"""The columnar wire: bit-exact, order-stable, small.

``repro.server.wire.serialize_result`` gathers a result cube's arrays
into one JSON list per column.  This suite holds it to three promises:

* **bit-exact** — what a client parses back is the cube's arrays, bit
  for bit (``struct.pack('<d')``), with non-finite values as ``null``;
* **order-stable** — the document (minus ``plan``/``timings``) is the
  same under every plan, cold or warm, serial or parallel, and the
  order is the one :meth:`AssessResult.cells` always had;
* **small** — no per-cell object on the wire.

Random cubes come from ``test_differential._random_star``.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.api import AssessSession
from repro.core import result as result_module
from repro.core.cube import Cube
from repro.core.groupby import GroupBySet
from repro.core.result import AssessResult
from repro.experiments.statements import prepare_engine
from repro.server.wire import serialize_result

from .test_differential import _random_star

LABELS = "labels {[-inf, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf]: better}"
FLOAT_COLUMNS = ("value", "benchmark", "comparison")


def _wire(result, *page):
    """A result as a client parses it off the wire."""
    return json.loads(json.dumps(serialize_result(result, *page), allow_nan=False))


def _bits(values):
    """Bit patterns of a float column; every non-finite value reads null."""
    return [
        struct.pack("<d", value) if np.isfinite(value) else None
        for value in np.asarray(values, dtype=np.float64).tolist()
    ]


def _random_statements(rng, hierarchies):
    """A sibling ``assess*`` (NaN benchmarks) and a zero-benchmark ratio (inf)."""
    sibling, other = rng.permutation(2)
    level = hierarchies[sibling].level_names()[int(rng.integers(0, 2))]
    members = sorted(hierarchies[sibling].members_of(level))
    ours, theirs = rng.choice(len(members), size=2, replace=False)
    finest = hierarchies[other].level_names()[0]
    measure = ("m_sum", "m_frac")[int(rng.integers(0, 2))]
    return [
        f"with RAND for {level} = '{members[ours]}' by {finest}, {level} "
        f"assess* {measure} against {level} = '{members[theirs]}' "
        f"using ratio({measure}, benchmark.{measure}) {LABELS}",
        f"with RAND by {finest}, {level} assess {measure} against 0 "
        f"using ratio({measure}, benchmark.constant) {LABELS}",
    ]


def test_wire_is_bit_exact_and_identical_across_plans_cache_and_parallelism():
    nan_seen = inf_seen = 0
    for seed in range(6):
        # Few rows: sparse cells leave assess* benchmarks missing (NaN).
        _, engine, hierarchies = _random_star(seed, n_rows=40)
        serial = AssessSession(engine)
        _, parallel_engine, _ = _random_star(seed, n_rows=40)
        parallel = AssessSession(parallel_engine)
        parallel.set_parallelism(2, morsel_rows=16, min_rows=0)

        rng = np.random.default_rng(4100 + seed)
        for text in _random_statements(rng, hierarchies):
            documents = {}
            for plan in serial.plans(serial.parse(text)):
                serial.clear_cache()
                parallel.clear_cache()
                arms = {
                    "cold": serial.assess(text, plan=plan),
                    "warm": serial.assess(text, plan=plan),
                    "parallel": parallel.assess(text, plan=plan),
                }
                for arm, result in arms.items():
                    document = _wire(result)
                    _assert_columns_are_the_arrays(document, result)
                    del document["plan"], document["timings"]
                    documents[seed, plan, arm] = document
            assert len(documents) >= 3
            reference = next(iter(documents.values()))
            for arm, document in documents.items():
                assert document == reference, arm
            comparison = result.cube.measure(result.comparison_measure)
            nan_seen += int(np.isnan(comparison).sum())
            inf_seen += int(np.isinf(comparison).sum())
    assert nan_seen and inf_seen  # both null paths were exercised


def _assert_columns_are_the_arrays(document, result):
    cube, rows = result.cube, result.order()
    assert document["rows"] == document["returned"] == len(result)
    assert document["offset"] == 0
    assert sum(document["label_counts"].values()) == len(result)
    assert list(document["coordinates"]) == document["levels"]
    for level in document["levels"]:
        assert document["coordinates"][level] == cube.coords[level][rows].tolist()
    for key, name in zip(FLOAT_COLUMNS, (
        result.measure, result.benchmark_measure, result.comparison_measure,
    )):
        assert len(document[key]) == len(result)
        assert [
            None if value is None else struct.pack("<d", value)
            for value in document[key]
        ] == _bits(cube.measure(name)[rows]), key
    assert document["label"] == cube.measure(result.label_measure)[rows].tolist()


def _mixed_result():
    """Ten cells over (year: int, city: str) stored in shuffled order."""
    years = [2019, 10, 9, 2019, 10, 9, 100, 100, 2019, 9]
    cities = ["b", "a", "a", "a", "B", "b", "a b", "a", "_", "10"]
    group_by = GroupBySet.__new__(GroupBySet)
    group_by.levels = ("year", "city")
    values = np.arange(10, dtype=np.float64)
    cube = Cube(None, group_by, {"year": years, "city": cities}, {
        "m": values, "benchmark.m": values * 2, "comparison": values / 2,
        "label": [None if i % 3 == 0 else f"l{i % 2}" for i in range(10)],
    })
    return AssessResult(cube, "m", "benchmark.m", "comparison", "label", "NP")


def test_canonical_order_is_repr_order_on_mixed_members():
    result = _mixed_result()
    # The definition cells() always had: per-cell repr tuples.
    legacy = sorted(result, key=lambda cell: tuple(map(repr, cell.coordinate)))
    assert result.cells() == legacy
    assert [cell.coordinate for cell in result.cells()] == [
        # '10' < '9' (text, not number) and "'a b'" < "'a'" (space < quote).
        (10, "B"), (10, "a"), (100, "a b"), (100, "a"), (2019, "_"),
        (2019, "a"), (2019, "b"), (9, "10"), (9, "a"), (9, "b"),
    ]
    document = _wire(result)
    assert list(zip(document["coordinates"]["year"],
                    document["coordinates"]["city"])) \
        == [cell.coordinate for cell in legacy]
    assert document["value"] == [cell.value for cell in legacy]
    assert document["label"] == [cell.label for cell in legacy]


def test_to_table_and_to_csv_follow_the_order(tmp_path, monkeypatch):
    result = _mixed_result()
    built = []
    real = result_module.AssessedCell

    def counting(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(result_module, "AssessedCell", counting)
    table = result.to_table(limit=3).splitlines()[2:]
    assert built == [(10, "B"), (10, "a"), (100, "a b")]  # only k cells made
    assert [line.split()[:2] for line in table] \
        == [["10", "B"], ["10", "a"], ["100", "a"]]

    path = result.to_csv(str(tmp_path / "out.csv"))
    with open(path) as handle:
        lines = handle.read().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] \
        == [[str(year), city] for year, city in
            (cell.coordinate for cell in result.cells())]


def test_paging_slices_the_order_before_building_lists():
    result = _mixed_result()
    whole = _wire(result)
    page = _wire(result, 4, 3)
    assert (page["rows"], page["offset"], page["returned"]) == (10, 4, 3)
    assert page["label_counts"] == whole["label_counts"]
    for key in FLOAT_COLUMNS + ("label",):
        assert page[key] == whole[key][4:7]
    for level in whole["levels"]:
        assert page["coordinates"][level] == whole["coordinates"][level][4:7]
    assert _wire(result, 8, 100)["returned"] == 2
    assert _wire(result, 50)["value"] == []


def test_numpy_boxed_and_float_members_become_json_scalars():
    group_by = GroupBySet.__new__(GroupBySet)
    group_by.levels = ("k",)
    members = np.empty(4, dtype=object)
    members[:] = [np.int64(3), 2.5, float("inf"), np.datetime64("2020-01-02")]
    column = np.zeros(4)
    cube = Cube(None, group_by, {"k": members}, {
        "m": column, "b": column, "c": column,
        "label": np.array([None] * 4, dtype=object),
    })
    document = _wire(AssessResult(cube, "m", "b", "c", "label", "NP"))
    assert sorted(map(repr, document["coordinates"]["k"])) \
        == ["'2020-01-02'", "2.5", "3", "None"]


def test_wide_result_stays_under_100_bytes_per_cell():
    session = AssessSession(prepare_engine(6_000, seed=7))
    result = session.assess(
        "with SSB for s_region = 'ASIA' by part, s_region "
        "assess revenue against s_region = 'AMERICA' "
        "using ratio(revenue, benchmark.revenue) "
        "labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}"
    )
    assert len(result) > 200
    document = serialize_result(result)
    assert "cells" not in document
    body = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert len(body) / len(result) <= 100  # the v1 row shape: 149-161

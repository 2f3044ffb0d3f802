"""Differential tests of compressed columnar storage and zone pruning.

The storage layer's contract is *transparency*: dictionary/RLE-encoded
columns, clustered row order, memory-mapped v2 stores, and zone-map
pruning must never change a query answer — every cell stays bit-identical
to the plain in-RAM path (the only sanctioned exception is re-clustering,
which reorders rows and therefore reassociates fractional float sums; the
clustered store is compared against itself with pruning toggled instead).

Three layers are exercised:

1. unit tests of the column encodings and zone-map/pruner machinery;
2. random cubes + the four reference intentions, compressed vs plain;
3. a saved v2 store, memory-mapped back, against the in-RAM original.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AssessSession
from repro.batch import results_identical
from repro.core.groupby import GroupBySet
from repro.core.query import CubeQuery, Predicate
from repro.datagen.random_cube import random_hierarchy
from repro.datagen.flat import star_from_flat
from repro.datagen.ssb import ssb_engine_from_catalog
from repro.engine.catalog import Catalog
from repro.engine.columns import (
    DictionaryColumn,
    MembersZoneTest,
    NeverZoneTest,
    PlainColumn,
    RangeZoneTest,
    RLEColumn,
    ZonePruner,
    build_zone_map,
    encode_array,
    predicate_zone_test,
    ranges_length,
    take_ranges,
)
from repro.engine.persist import (
    compress_catalog,
    compress_table,
    load_catalog,
    save_catalog,
)
from repro.engine.table import Table
from repro.experiments.statements import INTENTIONS, prepare_engine, statement_text
from repro.olap.engine import MultidimensionalEngine

PRUNING_STATEMENT = """
    with SSB for year = '1997' by month, c_region
    assess quantity against 100000
    using ratio(quantity, 100000)
    labels {[0, 0.9): low, [0.9, 1.1]: ok, (1.1, inf): high}
"""


# ----------------------------------------------------------------------
# Unit: encodings decode bit-exactly
# ----------------------------------------------------------------------
class TestEncodings:
    def test_dictionary_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 40, 5_000).astype(np.float64)
        column = encode_array(values)
        assert isinstance(column, DictionaryColumn)
        assert column.decode().tobytes() == values.tobytes()
        assert column.stored_bytes < values.nbytes

    def test_rle_roundtrip(self):
        values = np.repeat(np.arange(20, dtype=np.int64), 500)
        column = encode_array(values)
        assert isinstance(column, RLEColumn)
        assert np.array_equal(column.decode(), values)
        assert column.stored_bytes < values.nbytes

    def test_high_cardinality_stays_plain(self):
        values = np.arange(10_000, dtype=np.float64) + 0.5
        column = encode_array(values)
        assert isinstance(column, PlainColumn)

    def test_nan_floats_never_dictionary_encode(self):
        values = np.array([1.0, np.nan, 1.0, np.nan] * 100)
        column = encode_array(values)
        assert not isinstance(column, DictionaryColumn)
        decoded = column.decode()
        assert decoded.tobytes() == values.tobytes()  # NaNs preserved

    def test_object_strings_dictionary_encode(self):
        values = np.array(["ASIA", "EUROPE", "ASIA", "AFRICA"] * 200,
                          dtype=object)
        column = encode_array(values)
        assert isinstance(column, DictionaryColumn)
        assert list(column.decode()) == list(values)
        assert column.decode().dtype == object

    @pytest.mark.parametrize("seed", range(3))
    def test_window_and_gather_match_decode(self, seed):
        rng = np.random.default_rng(seed)
        arrays = [
            rng.integers(0, 10, 997).astype(np.int64),        # dict
            np.repeat(rng.integers(0, 5, 10), 100),           # rle
            rng.uniform(0, 1, 997),                           # plain
        ]
        for values in arrays:
            column = encode_array(values)
            decoded = column.decode()
            assert np.array_equal(decoded, values)
            for lo, hi in ((0, 0), (0, 13), (500, 997), (996, 997)):
                window = column.window(lo, min(hi, len(values)))
                assert np.array_equal(window, values[lo:hi])
            ranges = [(0, 100), (300, 301), (900, len(values))]
            gathered = column.gather(ranges)
            expected = np.concatenate([values[lo:hi] for lo, hi in ranges])
            assert np.array_equal(gathered, expected)

    def test_take_ranges_conventions(self):
        values = np.arange(10)
        assert take_ranges(values, None) is values          # nothing pruned
        assert len(take_ranges(values, [])) == 0            # all pruned
        assert take_ranges(values, [(2, 5)]).tolist() == [2, 3, 4]
        assert ranges_length(None, 10) == 10
        assert ranges_length([(2, 5), (7, 9)], 10) == 5


# ----------------------------------------------------------------------
# Unit: zone maps and the pruner
# ----------------------------------------------------------------------
class TestZoneMaps:
    def test_bounds_and_null_counts(self):
        values = np.array([1.0, 2.0, np.nan, 4.0, 5.0, 6.0, 7.0, 8.0])
        zone_map = build_zone_map(values, zone_rows=4)
        assert zone_map.n_zones == 2
        assert zone_map.null_counts.tolist() == [1, 0]
        assert zone_map.maxs[1] == 8.0
        assert zone_map.mins[1] == 5.0
        lo, hi = zone_map.value_range()
        assert (lo, hi) == (1.0, 8.0)

    def test_range_test_prunes_disjoint_zones(self):
        values = np.concatenate([
            np.full(100, 10.0), np.full(100, 20.0), np.full(100, 30.0),
        ])
        zone_map = build_zone_map(values, zone_rows=100)
        pruner = ZonePruner(100, 300, [(zone_map, RangeZoneTest(15.0, 25.0))])
        assert pruner.survivors().tolist() == [False, True, False]
        assert pruner.surviving_row_ranges() == [(100, 200)]
        assert pruner.zones_pruned == 2
        assert pruner.rows_pruned == 200
        assert pruner.range_may_match(100, 200)
        assert not pruner.range_may_match(0, 100)
        assert 0.0 < pruner.survival_fraction() < 1.0

    def test_members_test_and_never_test(self):
        values = np.concatenate([np.arange(0, 50), np.arange(100, 150)])
        zone_map = build_zone_map(values.astype(np.float64), zone_rows=50)
        members = ZonePruner(
            50, 100, [(zone_map, MembersZoneTest((120.0,)))]
        )
        assert members.survivors().tolist() == [False, True]
        never = ZonePruner(50, 100, [(zone_map, NeverZoneTest())])
        assert never.surviving_row_ranges() == []

    def test_adjacent_surviving_zones_coalesce(self):
        values = np.arange(400, dtype=np.float64)
        zone_map = build_zone_map(values, zone_rows=100)
        pruner = ZonePruner(
            100, 400, [(zone_map, RangeZoneTest(150.0, 350.0))]
        )
        assert pruner.surviving_row_ranges() == [(100, 400)]

    def test_predicate_zone_tests(self):
        assert isinstance(
            predicate_zone_test(Predicate.eq("year", "1997")), MembersZoneTest
        )
        assert isinstance(
            predicate_zone_test(Predicate.isin("year", [])), NeverZoneTest
        )
        assert isinstance(
            predicate_zone_test(Predicate.between("key", 1, 5)), RangeZoneTest
        )

    def test_nan_zones_are_prunable(self):
        # an all-NaN zone can never satisfy a comparison predicate
        values = np.array([np.nan, np.nan, 3.0, 4.0])
        zone_map = build_zone_map(values, zone_rows=2)
        pruner = ZonePruner(2, 4, [(zone_map, RangeZoneTest(0.0, 10.0))])
        assert pruner.survivors().tolist() == [False, True]


# ----------------------------------------------------------------------
# Differential: random cubes, compressed vs plain, bit-identical
# ----------------------------------------------------------------------
def _random_engine(seed: int, n_rows: int = 1_200):
    rng = np.random.default_rng(seed)
    h0 = random_hierarchy(rng, "H0", depth=3)
    h1 = random_hierarchy(rng, "H1", depth=2)
    columns = {}
    for hierarchy in (h0, h1):
        finest = hierarchy.finest_level.name
        members = sorted(hierarchy.members_of(finest))
        chosen = [members[i] for i in rng.integers(0, len(members), n_rows)]
        for level in hierarchy.level_names():
            column = np.empty(n_rows, dtype=object)
            column[:] = [
                hierarchy.rollup_member(member, finest, level)
                for member in chosen
            ]
            columns[level] = column
    columns["m_int"] = rng.integers(0, 1000, n_rows).astype(np.float64)
    columns["m_frac"] = np.round(rng.uniform(0.0, 100.0, n_rows), 2)
    engine = MultidimensionalEngine(Catalog())
    star_from_flat(
        engine,
        "RAND",
        Table("flat", dict(columns)),
        {h.name: list(h.level_names()) for h in (h0, h1)},
        {"m_int": "sum", "m_frac": "sum"},
    )
    engine.result_cache.enabled = False
    return engine, (h0, h1)


def _assert_same_cube(left, right):
    assert list(left.coords) == list(right.coords)
    assert list(left.measures) == list(right.measures)
    for name in left.coords:
        assert left.coords[name].tolist() == right.coords[name].tolist(), name
    for name in left.measures:
        a, b = left.measures[name], right.measures[name]
        assert a.tobytes() == b.tobytes(), name  # bit-identical


@pytest.mark.parametrize("seed", range(4))
def test_random_cubes_compressed_vs_plain(seed):
    plain_engine, hierarchies = _random_engine(seed)
    compressed_engine, _ = _random_engine(seed)
    compressed = compress_catalog(compressed_engine.catalog, zone_rows=128)
    for table in compressed:
        compressed_engine.catalog.register(table, replace=True)

    rng = np.random.default_rng(seed + 100)
    schema = plain_engine.cube("RAND").schema
    for _ in range(6):
        levels = [
            h.level_names()[int(rng.integers(0, len(h.levels)))]
            for h in hierarchies
            if rng.random() < 0.8
        ] or [hierarchies[0].level_names()[0]]
        predicates = []
        if rng.random() < 0.6:
            hierarchy = hierarchies[int(rng.integers(0, 2))]
            level = hierarchy.level_names()[
                int(rng.integers(0, len(hierarchy.levels)))
            ]
            members = sorted(hierarchy.members_of(level))
            predicates.append(Predicate.eq(level, members[0]))
        query = CubeQuery(
            "RAND", GroupBySet(schema, levels), tuple(predicates),
            ("m_int", "m_frac"),
        )
        _assert_same_cube(
            plain_engine.get(query), compressed_engine.get(query)
        )

    counters = compressed_engine.metrics.snapshot()["counters"]
    checked = counters.get("engine.storage.zones_checked", 0)
    pruned = counters.get("engine.storage.zones_pruned", 0)
    assert pruned <= checked


# ----------------------------------------------------------------------
# Differential: the four intentions, compressed vs plain, warm replays
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ssb_pair():
    plain = AssessSession(prepare_engine(30_000))
    compressed_engine = prepare_engine(30_000)
    squeezed = compress_catalog(compressed_engine.catalog, zone_rows=2_048)
    for table in squeezed:
        compressed_engine.catalog.register(table, replace=True)
    return plain, AssessSession(compressed_engine)


@pytest.mark.parametrize("intention", INTENTIONS)
def test_intentions_compressed_vs_plain(ssb_pair, intention):
    plain, compressed = ssb_pair
    text = statement_text(intention)
    expected = plain.assess(text)
    got = compressed.assess(text)
    assert results_identical(expected, got), intention
    # warm-cache replay over the compressed store stays identical too
    assert results_identical(expected, compressed.assess(text)), intention


def test_pruning_toggle_is_invisible():
    """Zone pruning on vs off over the same clustered store: identical
    cells, sane counters, and the selective scan really prunes."""
    base = prepare_engine(40_000)
    clustered = compress_catalog(
        base.catalog, zone_rows=2_048,
        cluster={"ssb_lineorder": "lo_datekey"},
    )

    def session():
        engine = ssb_engine_from_catalog(clustered)
        engine.result_cache.enabled = False
        return AssessSession(engine), engine

    pruning_session, pruning_engine = session()
    no_pruning_session, no_pruning_engine = session()
    no_pruning_engine.configure(zone_pruning=False)

    a = pruning_session.assess(PRUNING_STATEMENT)
    b = no_pruning_session.assess(PRUNING_STATEMENT)
    assert results_identical(a, b)

    counters = pruning_engine.metrics.snapshot()["counters"]
    checked = counters["engine.storage.zones_checked"]
    pruned = counters["engine.storage.zones_pruned"]
    rows_pruned = counters["engine.storage.rows_pruned"]
    assert 0 < pruned <= checked
    assert rows_pruned > 0
    scanned = counters["engine.rows_scanned"]
    off_scanned = no_pruning_engine.metrics.snapshot()["counters"][
        "engine.rows_scanned"
    ]
    assert scanned < off_scanned  # the pruned scan really read less

    assert "engine.storage.zones_pruned" not in (
        no_pruning_engine.metrics.snapshot()["counters"]
    ) or no_pruning_engine.metrics.snapshot()["counters"].get(
        "engine.storage.zones_pruned", 0
    ) == 0


def test_parallel_pruning_skips_morsels():
    """Parallel morsel scans over a clustered store: pruned morsels are
    never enqueued and the answer matches the serial plain engine
    (integral measure, so clustering cannot reassociate the sums)."""
    base = prepare_engine(40_000)
    clustered = compress_catalog(
        base.catalog, zone_rows=2_048,
        cluster={"ssb_lineorder": "lo_datekey"},
    )
    serial_engine = ssb_engine_from_catalog(clustered)
    serial_engine.result_cache.enabled = False
    parallel_engine = ssb_engine_from_catalog(clustered)
    parallel_engine.result_cache.enabled = False

    serial_session = AssessSession(serial_engine, parallelism=1)
    parallel_session = AssessSession(parallel_engine)
    parallel_session.set_parallelism(2, morsel_rows=2_048, min_rows=2_048)

    serial = serial_session.assess(PRUNING_STATEMENT)
    parallel = parallel_session.assess(PRUNING_STATEMENT)
    assert results_identical(serial, parallel)

    counters = parallel_engine.metrics.snapshot()["counters"]
    assert counters.get("engine.storage.morsels_pruned", 0) > 0


# ----------------------------------------------------------------------
# Differential: saved v2 store, memory-mapped, vs the in-RAM original
# ----------------------------------------------------------------------
def test_mmap_store_matches_in_ram(tmp_path):
    engine = prepare_engine(30_000)
    path = str(tmp_path / "ssb_store")
    save_catalog(engine.catalog, path, zone_rows=4_096)

    in_ram = AssessSession(engine)
    mapped = AssessSession(
        ssb_engine_from_catalog(load_catalog(path, mmap=True))
    )
    for intention in INTENTIONS:
        text = statement_text(intention)
        assert results_identical(in_ram.assess(text), mapped.assess(text)), (
            intention
        )


def test_compress_table_is_lossless():
    engine = prepare_engine(10_000)
    fact = engine.catalog.table("ssb_lineorder")
    squeezed = compress_table(fact, zone_rows=1_024)
    assert squeezed.has_zone_maps
    for name in fact.column_names:
        assert fact.column(name).tobytes() == squeezed.column(name).tobytes()
    report = squeezed.storage_info()
    assert any(entry["encoding"] != "plain" for entry in report)

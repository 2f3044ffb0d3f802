"""Property suite for the bounded-memory spill tier (and its storage rails).

The contract under test is the PR's headline claim: a memory budget may
only change *where* grouping state lives (RAM vs temp-file runs), never
the answer.  Every differential here compares a budget-forced-low arm
against the unlimited in-RAM arm and requires **bit-identical** results —
including warm-cache replays and all four benchmark intentions.

The second half covers the storage satellites the spill ladder rides on:
frame-of-reference encoding for sorted integer columns, the shared
string dictionary of the v2 store, zone-map geometry validation (counted
fallback, never silent mis-pruning), and the partitioned store's
differential against an in-RAM catalog.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest

from repro.api import AssessSession
from repro.batch import results_identical
from repro.core.query import Predicate
from repro.datagen.ssb import build_ssb_catalog, ssb_engine_from_catalog
from repro.engine.catalog import Catalog
from repro.engine.columns import (
    ZoneMap,
    build_zone_map,
    encode_array,
    encode_for,
    plan_zone_pruning,
)
from repro.engine.persist import load_catalog, save_catalog
from repro.engine.query import ColumnPredicate
from repro.engine.spill import (
    MAX_SPILL_PARTITIONS,
    MIN_SPILL_PARTITIONS,
    SpillAggregator,
    choose_partitions,
    grouping_state_bytes,
)
from repro.engine.table import Table
from repro.engine import PartitionedStoreWriter
from repro.experiments.statements import INTENTIONS, prepare_engine, statement_text
from repro.parallel.merge import merge_morsels
from repro.parallel.morsel import MorselResult

from tests.test_differential import (
    QUANTITY_VARIANTS,
    _assert_same_cube,
    _random_queries,
    _random_star,
)

SSB_ROWS = 3000
TINY_BUDGET = 8_192


# ----------------------------------------------------------------------
# SpillAggregator unit properties
# ----------------------------------------------------------------------
def _random_morsels(rng, key_space: int, n_morsels: int, ops):
    """Random sorted-key partial results, the shape ``run_morsel`` emits."""
    morsels = []
    for _ in range(n_morsels):
        n = int(rng.integers(1, 200))
        keys = np.unique(rng.integers(0, key_space, n).astype(np.int64))
        partials = []
        for op in ops:
            if op == "count":
                partials.append(rng.integers(1, 5, len(keys)).astype(np.float64))
            else:
                partials.append(rng.integers(-50, 50, len(keys)).astype(np.float64))
        morsels.append((keys, partials))
    return morsels


@pytest.fixture()
def spill_root(tmp_path, monkeypatch):
    """Spill runs land under ``tmp_path`` (``tempfile``'s root, as TMPDIR)."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("seed", range(4))
def test_spill_aggregator_matches_direct_merge(seed, spill_root):
    """Range-partitioned external merge == one direct in-RAM merge."""
    rng = np.random.default_rng(1234 + seed)
    ops = ["sum", "min", "count"]
    key_space = int(rng.integers(50, 5000))
    morsels = _random_morsels(rng, key_space, n_morsels=12, ops=ops)

    expected = merge_morsels(
        [MorselResult(0, keys, partials, 0, 0, 0.0) for keys, partials in morsels],
        ops,
    )
    with SpillAggregator(
        key_space, ops, budget_bytes=256, n_partitions=8,
    ) as spiller:
        for keys, partials in morsels:
            spiller.add(keys, partials)
        assert spiller.spills > 0  # the budget genuinely forced runs out
        assert spiller.temp_dir is not None
        got_keys, got_partials = spiller.merge_all()

    assert got_keys.tobytes() == expected[0].tobytes()
    for got, want in zip(got_partials, expected[1]):
        assert got.tobytes() == want.tobytes()
    # Context exit removed the run directory.
    assert not any(spill_root.iterdir())


def test_spill_aggregator_cleanup_on_midmerge_failure(spill_root, monkeypatch):
    """Injected merge failure still removes every temp file."""
    rng = np.random.default_rng(7)
    ops = ["sum"]
    morsels = _random_morsels(rng, 1000, n_morsels=8, ops=ops)

    def boom(*args, **kwargs):
        raise RuntimeError("injected mid-merge failure")

    aggregator = SpillAggregator(1000, ops, budget_bytes=64, n_partitions=4)
    with pytest.raises(RuntimeError, match="injected"):
        with aggregator:
            for keys, partials in morsels:
                aggregator.add(keys, partials)
            assert aggregator.spills > 0 and aggregator.temp_dir is not None
            # Fail only the final merge: the flush-side merges above ran.
            monkeypatch.setattr("repro.engine.spill.merge_morsels", boom)
            aggregator.merge_all()
    assert aggregator.temp_dir is None
    assert not any(spill_root.iterdir())


def test_spill_aggregator_empty_and_single_bucket():
    with SpillAggregator(10, ["sum"], budget_bytes=1000) as spiller:
        keys, partials = spiller.merge_all()
    assert len(keys) == 0 and len(partials) == 1 and len(partials[0]) == 0


def test_partition_sizing():
    assert choose_partitions(0, 1000) == MIN_SPILL_PARTITIONS
    assert choose_partitions(10**12, 1) == MAX_SPILL_PARTITIONS
    # 4x headroom: estimate 10 budgets -> at least 40 buckets.
    assert choose_partitions(10_000, 1_000) >= 40
    assert grouping_state_bytes(100, 3, 2) == 100 * (8 + 8 * 3)


# ----------------------------------------------------------------------
# Random cubes: budget-forced-low arm vs unlimited arm, bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_random_cubes_spill_bit_identical(seed):
    _, serial_engine, hierarchies = _random_star(seed)
    serial_engine.result_cache.enabled = False
    schema = serial_engine.cube("RAND").schema

    # 256-row morsels: several per scan
    _, spill_engine, _ = _random_star(seed)
    spill_engine.result_cache.enabled = False
    spill_engine.configure(memory_budget=2_000, morsel_rows=256)

    _, warm_engine, _ = _random_star(seed)
    warm_engine.configure(memory_budget=2_000, morsel_rows=256)
    assert warm_engine.result_cache.enabled

    rng = np.random.default_rng(9000 + seed)
    queries = _random_queries(rng, schema, hierarchies)
    # One guaranteed fine-grained query: grouping by the finest level of
    # every hierarchy yields enough groups that the tiny budget provably
    # forces runs to disk (random coarse queries may fit in the buffers).
    from repro.core.groupby import GroupBySet
    from repro.core.query import CubeQuery

    queries.append(CubeQuery(
        "RAND",
        GroupBySet(schema, [h.finest_level.name for h in hierarchies]),
        [],
        ("m_sum", "m_min", "m_avg"),
    ))
    for query in queries:
        reference = serial_engine.get(query)
        _assert_same_cube(spill_engine.get(query), reference)
        # Warm replay: first call populates through the spill tier, the
        # repeat must serve the identical cached cells.
        warm_engine.get(query)
        _assert_same_cube(warm_engine.get(query), reference)

    # The budget arm genuinely took the bounded-memory route (gate-passing
    # measures appear in every query mix) and genuinely hit the disk.
    assert spill_engine.metrics.get("engine.spill.queries") >= 1
    assert spill_engine.metrics.get("engine.spill.spills") >= 1
    assert spill_engine.metrics.get("engine.spill.bytes_spilled") > 0


# ----------------------------------------------------------------------
# The four benchmark intentions under a budget below the working set
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spill_arms():
    serial = AssessSession(prepare_engine(SSB_ROWS))
    serial.engine.result_cache.enabled = False
    budget = AssessSession(prepare_engine(SSB_ROWS), memory_budget=TINY_BUDGET)
    budget.engine.result_cache.enabled = False
    warm = AssessSession(prepare_engine(SSB_ROWS), memory_budget=TINY_BUDGET)
    return serial, budget, warm


@pytest.mark.parametrize("intention", INTENTIONS)
@pytest.mark.parametrize("variant", ("reference", "quantity"))
def test_benchmark_types_spill_bit_identical(spill_arms, intention, variant):
    serial, budget, warm = spill_arms
    text = (
        statement_text(intention)
        if variant == "reference"
        else QUANTITY_VARIANTS[intention]
    )
    reference = serial.assess(text)
    assert results_identical(budget.assess(text), reference), intention
    first = warm.assess(text)
    again = warm.assess(text)  # warm-cache replay of a spilled result
    assert results_identical(first, reference), intention
    assert results_identical(again, reference), intention


def test_spill_arms_actually_spilled(spill_arms):
    """After the intentions ran, the budget arms must show both routes:
    integral (quantity) measures through the spill tier, fractional
    (revenue) measures declined by the exactness gate — a fallback-only
    arm would make the differential vacuous."""
    _, budget, warm = spill_arms
    for arm in (budget, warm):
        assert arm.engine.metrics.get("engine.spill.queries") >= 1
        assert arm.engine.metrics.get("engine.spill.fallbacks") >= 1
    assert warm.engine.result_cache.stats()["hits"] >= 1


def test_env_memory_bytes_routes_queries(monkeypatch):
    """REPRO_MEMORY_BYTES alone must arm the tier at construction time."""
    monkeypatch.setenv("REPRO_MEMORY_BYTES", str(TINY_BUDGET))
    session = AssessSession(prepare_engine(SSB_ROWS))
    session.engine.result_cache.enabled = False
    assert session.memory_budget == TINY_BUDGET
    reference = AssessSession(prepare_engine(SSB_ROWS)).assess(
        QUANTITY_VARIANTS["Constant"]
    )
    assert results_identical(session.assess(QUANTITY_VARIANTS["Constant"]),
                             reference)
    assert session.engine.metrics.get("engine.spill.queries") >= 1


BATCH = [
    QUANTITY_VARIANTS["Constant"],
    QUANTITY_VARIANTS["Constant"].replace("by date,", "by month,"),
]


def test_execute_many_runs_by_the_session_budget(monkeypatch):
    """A batch runs by its session's settings, not by the environment's:
    the budget set in code spills it, and removing the budget removes it
    for batches as for single statements."""
    reference = AssessSession(prepare_engine(20_000), parallelism=1)
    reference.engine.result_cache.enabled = False
    session = AssessSession(prepare_engine(20_000), memory_budget=2_000)
    session.engine.result_cache.enabled = False
    batch = session.execute_many(BATCH)
    assert session.engine.metrics.get("engine.spill.queries") >= 1
    for result, text in zip(batch, BATCH):
        assert results_identical(result, reference.assess(text))

    monkeypatch.setenv("REPRO_MEMORY_BYTES", str(TINY_BUDGET))
    unbounded = AssessSession(prepare_engine(SSB_ROWS))
    unbounded.engine.result_cache.enabled = False
    assert unbounded.memory_budget == TINY_BUDGET
    unbounded.set_memory_budget(None)
    unbounded.assess(BATCH[0])
    unbounded.execute_many(BATCH)
    assert unbounded.engine.metrics.get("engine.spill.queries") == 0


def test_execute_many_honours_zone_pruning_off():
    statements = [
        text.replace("with SSB by", "with SSB for year = '1997' by")
        for text in BATCH
    ]
    prunes = {}
    for pruning in (True, False):
        engine = prepare_engine(SSB_ROWS)
        engine.result_cache.enabled = False
        engine.catalog.table(engine.cube("SSB").star.fact_table).ensure_zone_maps(256)
        engine.configure(zone_pruning=pruning)
        AssessSession(engine).execute_many(statements)
        prunes[pruning] = engine.metrics.get("engine.storage.prunes")
    assert prunes[True] >= 1 and prunes[False] == 0


def test_executor_cleans_temp_files(spill_root, monkeypatch):
    """End-to-end: run directories vanish on success and on failure."""
    session = AssessSession(prepare_engine(SSB_ROWS), memory_budget=2_000)
    session.engine.result_cache.enabled = False
    session.assess(QUANTITY_VARIANTS["Constant"])
    assert session.engine.metrics.get("engine.spill.spills") >= 1
    assert not any(spill_root.iterdir())  # success path cleaned up

    def boom(self):
        assert self.temp_dir is not None  # the pass really spilled first
        raise RuntimeError("injected mid-merge failure")

    monkeypatch.setattr(SpillAggregator, "merge_all", boom)
    with pytest.raises(RuntimeError, match="injected"):
        session.assess(QUANTITY_VARIANTS["Sibling"])
    assert not any(spill_root.iterdir())  # failure path cleaned up too


# ----------------------------------------------------------------------
# Satellite: frame-of-reference encoding for sorted integer columns
# ----------------------------------------------------------------------
def test_for_encoding_roundtrip():
    values = np.arange(10_000, dtype=np.int64) + 7
    column = encode_array(values)
    assert column.encoding == "for"
    assert column.stored_bytes < values.nbytes
    assert np.array_equal(column.decode(), values)
    assert np.array_equal(column.window(998, 4321), values[998:4321])
    assert np.array_equal(
        column.gather([(0, 5), (9_990, 10_000)]),
        np.concatenate([values[0:5], values[9_990:10_000]]),
    )
    assert column.gather([]).size == 0


def test_for_encoding_blocks():
    # Several blocks, ragged tail; offsets reset per block.
    values = np.sort(np.random.default_rng(3).integers(0, 10**9, 1000))
    column = encode_for(values, block_rows=64)
    assert column is not None and len(column.references) == -(-1000 // 64)
    assert np.array_equal(column.decode(), values)
    assert np.array_equal(column.window(60, 70), values[60:70])  # block seam


def test_for_encoding_declines_unsuitable_columns():
    rng = np.random.default_rng(11)
    unsorted = rng.permutation(np.arange(10_000, dtype=np.int64))
    assert encode_for(unsorted) is None
    # Block span >= 2**32: narrow offsets cannot represent it.
    wide = np.array([0, 1 << 33], dtype=np.int64)
    assert encode_for(wide) is None
    floats = np.arange(100, dtype=np.float64)
    assert encode_for(floats) is None


def test_for_encoding_persists_roundtrip(tmp_path):
    values = np.arange(100_000, dtype=np.int64)
    catalog = Catalog()
    catalog.register(Table("keys", {"k": values, "tag": values % 5}))
    path = save_catalog(catalog, str(tmp_path / "store"), format="v2")
    loaded = load_catalog(path)
    table = loaded.table("keys")
    assert table.encoding_of("k") == "for"
    assert np.array_equal(table.column("k"), values)
    manifest = json.load(open(os.path.join(path, "catalog.json")))
    specs = {c["name"]: c for c in manifest["tables"][0]["columns"]}
    assert specs["k"]["encoding"] == "for"
    assert specs["k"]["stored_bytes"] < specs["k"]["plain_bytes"]


# ----------------------------------------------------------------------
# Satellite: shared string dictionaries across one store
# ----------------------------------------------------------------------
def test_shared_dictionary_written_once(tmp_path):
    cities = np.array(
        ["Rome", "Lyon", "Kyoto", "Quito"] * 500, dtype=object
    )
    catalog = Catalog()
    catalog.register(Table("left", {"city": cities.copy()}))
    catalog.register(Table("right", {"city": cities.copy(), "n": np.arange(2000)}))
    path = save_catalog(catalog, str(tmp_path / "store"), format="v2")

    manifest = json.load(open(os.path.join(path, "catalog.json")))
    dict_values = [
        spec["arrays"]["values"]
        for table in manifest["tables"]
        for spec in table["columns"]
        if spec["encoding"] == "dict"
    ]
    assert len(dict_values) == 2
    # Byte-identical dictionaries share one file on disk.
    assert dict_values[0] == dict_values[1]

    loaded = load_catalog(path)
    assert loaded.table("left").column("city").tolist() == cities.tolist()
    assert loaded.table("right").column("city").tolist() == cities.tolist()


# ----------------------------------------------------------------------
# Satellite: zone-map geometry validation (counted fallback, no mis-prune)
# ----------------------------------------------------------------------
def _fact_with_map(n_rows: int, zone_rows: int) -> Table:
    fact = Table("fact", {"v": np.arange(n_rows, dtype=np.int64)})
    fact.ensure_zone_maps(zone_rows)
    return fact


def test_zone_rechunk_matches_direct_build():
    values = np.random.default_rng(5).integers(0, 100, 1000)
    fine = build_zone_map(values, 100)
    coarse = fine.rechunk(200)
    direct = build_zone_map(values, 200)
    assert coarse is not None
    assert coarse.zone_rows == 200 and coarse.n_zones == direct.n_zones
    assert np.array_equal(coarse.mins, direct.mins)
    assert np.array_equal(coarse.maxs, direct.maxs)
    assert np.array_equal(coarse.null_counts, direct.null_counts)
    # Summed distinct bounds stay sound (>= the true distinct counts).
    assert np.all(coarse.distinct_bounds >= direct.distinct_bounds)


def test_zone_rechunk_rejects_non_divisible_geometry():
    values = np.arange(1000)
    zone_map = build_zone_map(values, 100)
    assert zone_map.rechunk(150) is None
    assert zone_map.rechunk(0) is None
    assert zone_map.rechunk(100) is zone_map


def test_stale_zone_map_is_dropped_and_counted():
    """A map built for a different row count must not prune anything."""
    fact = _fact_with_map(1000, 100)
    stale = build_zone_map(np.arange(400, dtype=np.int64), 100)
    fact.attach_zone_map("v", stale)  # stale: n_rows=400, fact has 1000
    pruner = plan_zone_pruning(
        Catalog(), fact, "fact",
        [ColumnPredicate("fact", "v", Predicate.eq("v", 5))], [],
    )
    assert pruner is not None
    assert pruner.misaligned == 1
    assert pruner.survival_fraction() == 1.0  # counted fallback, full scan


def test_misaligned_zone_rechunk_is_dropped_and_counted():
    """Two maps whose zone sizes do not divide: the finer one drops."""
    fact = Table("fact", {
        "a": np.arange(900, dtype=np.int64),
        "b": np.arange(900, dtype=np.int64),
    })
    # Bypass attach_zone_map's same-geometry guard deliberately: this is
    # exactly the mixed-geometry state a stale store produces.
    fact._zone_maps["a"] = build_zone_map(fact.column("a"), 100)
    fact._zone_maps["b"] = build_zone_map(fact.column("b"), 150)
    pruner = plan_zone_pruning(
        Catalog(), fact, "fact",
        [
            ColumnPredicate("fact", "a", Predicate.eq("a", 5)),
            ColumnPredicate("fact", "b", Predicate.eq("b", 5)),
        ],
        [],
    )
    assert pruner is not None
    assert pruner.misaligned == 1  # the 100-row map cannot rechunk to 150
    # The surviving 150-row map still prunes soundly: row 5 lives in zone 0.
    assert pruner.zones_pruned == pruner.zones_checked - 1


def test_executor_counts_misaligned_maps():
    """A stale FK zone map degrades to a full scan, counted — the answer
    must match an engine with no zone maps at all."""
    catalog, schema, star = build_ssb_catalog(1000, seed=7)
    engine = ssb_engine_from_catalog(catalog)
    fact = engine.catalog.table(star.fact_table)
    fact.ensure_zone_maps(128)
    stale = build_zone_map(np.arange(64, dtype=np.int64), 128)
    fact.attach_zone_map("lo_suppkey", stale)

    reference_engine = ssb_engine_from_catalog(build_ssb_catalog(1000, seed=7)[0])
    text = """with SSB for s_region = 'ASIA' by month, s_region
        assess quantity against 50 using ratio(quantity, 50)
        labels {[0, 1): low, [1, inf]: high}"""
    reference = AssessSession(reference_engine).assess(text)
    got = AssessSession(engine).assess(text)
    assert results_identical(got, reference)
    assert engine.metrics.get("engine.storage.zone_misaligned") >= 1


# ----------------------------------------------------------------------
# Satellite: partitioned v2 store differential
# ----------------------------------------------------------------------
def test_partitioned_store_differential(tmp_path):
    catalog, schema, star = build_ssb_catalog(4096, seed=7)
    fact = catalog.table(star.fact_table)

    writer = PartitionedStoreWriter(str(tmp_path / "store"), zone_rows=256)
    for table in catalog:
        if table.name != star.fact_table:
            writer.add_table(table)
    writer.begin_partitioned(star.fact_table)
    for lo in range(0, len(fact), 1024):
        hi = min(lo + 1024, len(fact))
        writer.append_partition(Table(star.fact_table, {
            name: fact.column(name)[lo:hi] for name in fact.column_names
        }))
    path = writer.finish()

    loaded = load_catalog(path)
    stored_fact = loaded.table(star.fact_table)
    assert stored_fact.storage(fact.column_names[0]).encoding == "partitioned"
    assert stored_fact.has_zone_maps  # per-partition maps stitched globally

    reference = AssessSession(ssb_engine_from_catalog(catalog))
    spilled = AssessSession(
        ssb_engine_from_catalog(loaded), memory_budget=TINY_BUDGET
    )
    for intention in INTENTIONS:
        if intention == "External":
            continue  # the BUDGET cube is not part of this bare catalog
        text = QUANTITY_VARIANTS[intention]
        assert results_identical(spilled.assess(text),
                                 reference.assess(text)), intention
    assert spilled.engine.metrics.get("engine.spill.queries") >= 1

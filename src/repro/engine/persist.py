"""Catalog persistence: the v2 column store plus legacy ``.npz`` archives.

Generated star schemas (especially the larger SSB ladder rungs) are
expensive to rebuild, and past a scale factor or two they stop fitting in
RAM at all.  Two on-disk formats are supported:

* **v1** — one compressed ``.npz`` archive holding every column as a plain
  array (the original format; still written for ``*.npz`` paths and always
  readable).
* **v2** — a *directory* column store: a ``catalog.json`` manifest plus one
  ``.npy`` file per stored array.  Columns are dictionary- or run-length-
  compressed where profitable, every array is opened with
  ``np.load(..., mmap_mode="r")`` so loading is lazy (the OS pages data in
  per scan and can drop it under pressure — this is what lets the SSB
  ladder climb past RAM), and per-column zone maps (min/max, null count,
  distinct bound per :data:`~repro.engine.columns.DEFAULT_ZONE_ROWS`-row
  zone) are computed at store time and persisted in the manifest so the
  executor can prune morsels without touching the data files.

``save_catalog`` picks the format from the path (``*.npz`` → v1, anything
else → v2 directory) unless forced with ``format=``; ``load_catalog``
auto-detects.  Object (string) columns round-trip through unicode arrays;
numeric columns keep their dtypes; decoded results are bit-identical to the
arrays that were saved.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import EngineError
from .catalog import Catalog
from .columns import (
    DEFAULT_ZONE_ROWS,
    Column,
    DictionaryColumn,
    ForColumn,
    PartitionedColumn,
    PlainColumn,
    RLEColumn,
    ZoneMap,
    build_zone_map,
    encode_array,
)
from .table import Table

_SEP = "\x1f"
_INDEX_KEY = "__tables__"
_MANIFEST = "catalog.json"
_DATA_DIR = "data"
_PARTS_DIR = "parts"
_V2_VERSION = 2


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def save_catalog(
    catalog: Catalog,
    path: str,
    *,
    format: str = "auto",
    zone_rows: int = DEFAULT_ZONE_ROWS,
    cluster: Optional[Dict[str, str]] = None,
    compress: bool = True,
) -> str:
    """Write every table of a catalog to disk; returns the path written.

    ``format`` is ``"v1"`` (flat ``.npz``), ``"v2"`` (directory column
    store), or ``"auto"`` (v1 iff the path ends in ``.npz``).  v2 options:

    * ``zone_rows`` — zone-map granularity (rows per zone).
    * ``cluster`` — ``{table: column}``: stable-sort those tables by the
      named column before encoding.  Clustering turns equality/range
      predicates on the cluster column (and on dimensions joined through
      it) into contiguous zone ranges, which is what makes zone-map
      pruning bite; it also hands run-length encoding its best case.
    * ``compress`` — choose dictionary/RLE encodings per column; plain
      arrays otherwise (zone maps are built either way).
    """
    if format not in ("auto", "v1", "v2"):
        raise EngineError(f"unknown catalog format {format!r}")
    if format == "v1" or (format == "auto" and path.endswith(".npz")):
        return _save_v1(catalog, path)
    return _save_v2(
        catalog, path, zone_rows=zone_rows, cluster=cluster or {},
        compress=compress,
    )


def _save_v1(catalog: Catalog, path: str) -> str:
    payload: Dict[str, np.ndarray] = {}
    table_names: List[str] = []
    for table in catalog:
        table_names.append(table.name)
        for column_name, column in table.columns.items():
            key = f"{table.name}{_SEP}{column_name}"
            if column.dtype == object:
                payload[key] = _object_to_unicode(table.name, column_name, column)
            else:
                payload[key] = column
    payload[_INDEX_KEY] = np.array(
        [f"{name}{_SEP}{_column_order(catalog, name)}" for name in table_names],
        dtype=np.str_,
    )
    np.savez_compressed(path, **payload)
    return path if path.endswith(".npz") else f"{path}.npz"


def _save_v2(
    catalog: Catalog,
    path: str,
    *,
    zone_rows: int,
    cluster: Dict[str, str],
    compress: bool,
) -> str:
    writer = PartitionedStoreWriter(
        path, zone_rows=zone_rows, compress=compress
    )
    for table in catalog:
        writer.add_table(table, cluster_by=cluster.get(table.name))
    return writer.finish()


class PartitionedStoreWriter:
    """Incremental v2 store writer for catalogs larger than RAM.

    Whole (dimension) tables go in with :meth:`add_table`.  One table per
    store may instead be appended partition by partition: after
    :meth:`begin_partitioned`, each :meth:`append_partition` chunk is
    encoded, zone-mapped, and flushed to its own ``parts/pNNNNN``
    directory before the next chunk exists — peak RAM is one partition,
    never the table.  All partitions except the last must hold a multiple
    of ``zone_rows`` rows so the loader can stitch the per-partition zone
    maps into one global map (zone boundaries line up exactly) and serve
    the columns through lazily-opened
    :class:`~repro.engine.columns.PartitionedColumn` pieces.

    Dictionary value arrays are shared store-wide: two columns whose
    dictionaries are byte-identical (the SSB city/nation/region strings of
    ``customer`` and ``supplier``, say) reference a single ``.npy`` file.
    The manifest stays a plain v2 manifest — sharing is invisible to the
    loader, which already resolves arrays by relpath.
    """

    def __init__(
        self,
        path: str,
        *,
        zone_rows: int = DEFAULT_ZONE_ROWS,
        compress: bool = True,
    ):
        self.path = path
        self.zone_rows = int(zone_rows)
        self.compress = compress
        os.makedirs(os.path.join(path, _DATA_DIR), exist_ok=True)
        self._counter = 0
        self._shared: Dict[Tuple[str, bytes], str] = {}
        self._tables: List[Dict[str, object]] = []
        self._partition_spec: Optional[Dict[str, object]] = None

    # -- array sinks --------------------------------------------------------

    def _store_in(self, directory: str) -> Callable[[np.ndarray], str]:
        def store(array: np.ndarray) -> str:
            relpath = os.path.join(directory, f"a{self._counter}.npy")
            self._counter += 1
            np.save(os.path.join(self.path, relpath[:-len(".npy")]), array)
            return relpath

        return store

    def _share_in(
        self, store: Callable[[np.ndarray], str]
    ) -> Callable[[np.ndarray], str]:
        def share(array: np.ndarray) -> str:
            key = (array.dtype.str, array.tobytes())
            relpath = self._shared.get(key)
            if relpath is None:
                relpath = store(array)
                self._shared[key] = relpath
            return relpath

        return share

    def _encode_columns(
        self, table: Table, order: Optional[np.ndarray], directory: str
    ) -> List[Dict[str, object]]:
        store = self._store_in(directory)
        share = self._share_in(store)
        columns: List[Dict[str, object]] = []
        for column_name in table.column_names:
            values = table.column(column_name)
            if order is not None:
                values = values[order]
            stored = (
                encode_array(values) if self.compress else PlainColumn(values)
            )
            zone_map = build_zone_map(values, self.zone_rows)
            columns.append(
                _store_column(
                    table.name, column_name, values, stored, zone_map,
                    store, share,
                )
            )
        return columns

    # -- tables -------------------------------------------------------------

    def add_table(self, table: Table, *, cluster_by: Optional[str] = None) -> None:
        """Encode and write one whole table (dimensions, small facts)."""
        order: Optional[np.ndarray] = None
        if cluster_by is not None:
            order = np.argsort(table.column(cluster_by), kind="stable")
        columns = self._encode_columns(table, order, _DATA_DIR)
        self._tables.append(
            {
                "name": table.name,
                "rows": len(table),
                "clustered_by": cluster_by,
                "columns": columns,
            }
        )

    def begin_partitioned(
        self, table_name: str, *, clustered_by: Optional[str] = None
    ) -> None:
        """Open a table that will arrive partition by partition.

        ``clustered_by`` is declarative: callers are expected to hand in
        chunks already ordered by that column (partitioned generation
        produces them that way); the writer never re-sorts across chunks.
        """
        if self._partition_spec is not None:
            raise EngineError("a partitioned table is already open")
        spec: Dict[str, object] = {
            "name": table_name,
            "rows": 0,
            "clustered_by": clustered_by,
            "columns": [],
            "partitions": [],
        }
        self._tables.append(spec)
        self._partition_spec = spec

    def append_partition(self, chunk: Table) -> None:
        """Encode and flush one partition of the open partitioned table."""
        spec = self._partition_spec
        if spec is None:
            raise EngineError("begin_partitioned() before append_partition()")
        parts: List[Dict[str, object]] = spec["partitions"]  # type: ignore[assignment]
        if parts:
            previous = parts[-1]
            if int(previous["rows"]) % self.zone_rows:  # type: ignore[call-overload]
                raise EngineError(
                    "only the final partition may hold a ragged last zone "
                    f"(partition {len(parts) - 1} has {previous['rows']} rows, "
                    f"zone_rows={self.zone_rows})"
                )
            first_columns = [
                str(column["name"])
                for column in parts[0]["columns"]  # type: ignore[index]
            ]
            if list(chunk.column_names) != first_columns:
                raise EngineError(
                    f"partition columns {list(chunk.column_names)} do not "
                    f"match the first partition's {first_columns}"
                )
        directory = os.path.join(_PARTS_DIR, f"p{len(parts):05d}")
        os.makedirs(os.path.join(self.path, directory), exist_ok=True)
        columns = self._encode_columns(chunk, None, directory)
        parts.append(
            {"dir": directory, "rows": len(chunk), "columns": columns}
        )
        spec["rows"] = int(spec["rows"]) + len(chunk)  # type: ignore[call-overload]

    def finish(self) -> str:
        """Write the manifest; returns the store path."""
        self._partition_spec = None
        manifest = {
            "format": "repro-catalog",
            "version": _V2_VERSION,
            "zone_rows": self.zone_rows,
            "tables": self._tables,
        }
        with open(os.path.join(self.path, _MANIFEST), "w") as handle:
            json.dump(manifest, handle, indent=1)
        return self.path


def _store_column(
    table_name: str,
    column_name: str,
    values: np.ndarray,
    stored: Column,
    zone_map: Optional[ZoneMap],
    store,
    store_shared=None,
) -> Dict[str, object]:
    is_object = values.dtype == object
    # Dictionary value arrays go through the content-addressed sink (when
    # the caller provides one) so byte-identical dictionaries are written
    # once per store; everything else is written unconditionally.
    share = store_shared if store_shared is not None else store

    def persistable(array: np.ndarray) -> np.ndarray:
        if array.dtype == object:
            return _object_to_unicode(table_name, column_name, array)
        return array

    extra: Dict[str, object] = {}
    arrays: Dict[str, str] = {}
    if isinstance(stored, DictionaryColumn):
        encoding = "dict"
        arrays["codes"] = store(np.asarray(stored.codes))
        arrays["values"] = share(persistable(np.asarray(stored.values)))
    elif isinstance(stored, RLEColumn):
        encoding = "rle"
        arrays["run_values"] = store(persistable(np.asarray(stored.run_values)))
        arrays["run_ends"] = store(np.asarray(stored.run_ends))
    elif isinstance(stored, ForColumn):
        encoding = "for"
        arrays["references"] = store(np.asarray(stored.references))
        arrays["offsets"] = store(np.asarray(stored.offsets))
        extra["block_rows"] = stored.block_rows
    else:
        encoding = "plain"
        arrays["values"] = store(persistable(stored.decode()))
    spec: Dict[str, object] = {
        "name": column_name,
        "encoding": encoding,
        "object": is_object,
        "dtype": "object" if is_object else str(values.dtype),
        "rows": len(values),
        "plain_bytes": _plain_bytes(values),
        "stored_bytes": stored.stored_bytes,
        "arrays": arrays,
        "zones": _zone_map_to_json(zone_map),
    }
    spec.update(extra)
    return spec


def _plain_bytes(values: np.ndarray) -> int:
    if values.dtype == object:
        return int(values.nbytes) + sum(
            len(str(value)) for value in values
        )
    return int(values.nbytes)


def _zone_map_to_json(zone_map: Optional[ZoneMap]) -> Optional[Dict[str, object]]:
    if zone_map is None:
        return None
    return {
        "zone_rows": zone_map.zone_rows,
        "n_rows": zone_map.n_rows,
        "mins": [_json_scalar(v) for v in zone_map.mins],
        "maxs": [_json_scalar(v) for v in zone_map.maxs],
        "null_counts": [int(v) for v in zone_map.null_counts],
        "distinct_bounds": [int(v) for v in zone_map.distinct_bounds],
    }


def _json_scalar(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _zone_map_from_json(
    spec: Optional[Dict[str, object]], numeric: bool
) -> Optional[ZoneMap]:
    if spec is None:
        return None
    if numeric:
        mins: np.ndarray = np.asarray(spec["mins"], dtype=np.float64)
        maxs: np.ndarray = np.asarray(spec["maxs"], dtype=np.float64)
    else:
        mins = np.asarray(spec["mins"], dtype=object)
        maxs = np.asarray(spec["maxs"], dtype=object)
    return ZoneMap(
        int(spec["zone_rows"]),  # type: ignore[arg-type]
        int(spec["n_rows"]),  # type: ignore[arg-type]
        mins,
        maxs,
        np.asarray(spec["null_counts"], dtype=np.int64),
        np.asarray(spec["distinct_bounds"], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_catalog(path: str, *, mmap: bool = True) -> Catalog:
    """Restore a catalog saved by :func:`save_catalog` (either format).

    v2 stores are opened memory-mapped by default (``mmap=False`` forces
    everything resident, for differential tests); zone maps come straight
    from the manifest, so pruning works before any data file is paged in.
    """
    if not os.path.exists(path):
        if not os.path.exists(f"{path}.npz"):
            raise EngineError(f"no saved catalog at {path!r} (nor {path}.npz)")
        path = f"{path}.npz"
    if os.path.isdir(path):
        return _load_v2(path, mmap=mmap)
    return _load_v1(path)


def _load_v1(path: str) -> Catalog:
    with np.load(path, allow_pickle=False) as archive:
        if _INDEX_KEY not in archive:
            raise EngineError(f"{path!r} is not a saved catalog archive")
        catalog = Catalog()
        for entry in archive[_INDEX_KEY]:
            table_name, _, column_csv = str(entry).partition(_SEP)
            columns: Dict[str, np.ndarray] = {}
            for column_name in column_csv.split(","):
                stored = archive[f"{table_name}{_SEP}{column_name}"]
                if stored.dtype.kind == "U":
                    restored = stored.astype(object)
                    columns[column_name] = restored
                else:
                    columns[column_name] = stored
            catalog.register(Table(table_name, columns))
    return catalog


def _load_v2(path: str, *, mmap: bool) -> Catalog:
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise EngineError(f"{path!r} is not a saved catalog archive")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != "repro-catalog":
        raise EngineError(f"{path!r} is not a saved catalog archive")
    mmap_mode = "r" if mmap else None
    catalog = Catalog()
    # Shared-dictionary cache: value arrays referenced by several columns
    # (content-addressed at save time) are loaded once per store.
    cache: Dict[Tuple[str, bool], np.ndarray] = {}
    zone_rows = int(manifest.get("zone_rows", DEFAULT_ZONE_ROWS))
    for table_spec in manifest["tables"]:
        if table_spec.get("partitions"):
            catalog.register(
                _load_partitioned_table(
                    path, table_spec, mmap_mode, cache, zone_rows
                )
            )
            continue
        columns: Dict[str, Column] = {}
        zone_maps: Dict[str, Optional[ZoneMap]] = {}
        for column_spec in table_spec["columns"]:
            name = column_spec["name"]
            columns[name] = _load_column(path, column_spec, mmap_mode, cache)
            numeric = not column_spec["object"]
            zone_maps[name] = _zone_map_from_json(
                column_spec.get("zones"), numeric
            )
        table = Table(table_spec["name"], columns)
        for name, zone_map in zone_maps.items():
            table.attach_zone_map(name, zone_map)
        catalog.register(table)
    return catalog


def _load_partitioned_table(
    path: str,
    table_spec: Dict[str, object],
    mmap_mode: Optional[str],
    cache: Dict[Tuple[str, bool], np.ndarray],
    zone_rows: int,
) -> Table:
    partitions: List[Dict[str, object]] = table_spec["partitions"]  # type: ignore[assignment]
    if not partitions:
        raise EngineError(
            f"partitioned table {table_spec['name']!r} has no partitions"
        )
    part_rows = [int(part["rows"]) for part in partitions]  # type: ignore[call-overload]
    # Global zone maps are only stitched when every non-final partition is
    # zone-aligned — otherwise per-partition zone boundaries would not map
    # onto global zone indexes and pruning could not be trusted.
    aligned = all(rows % zone_rows == 0 for rows in part_rows[:-1])
    names = [
        str(spec["name"]) for spec in partitions[0]["columns"]  # type: ignore[index]
    ]
    columns: Dict[str, Column] = {}
    zone_maps: Dict[str, Optional[ZoneMap]] = {}
    for position, name in enumerate(names):
        specs = [
            part["columns"][position] for part in partitions  # type: ignore[index]
        ]
        openers = [
            _partition_opener(path, spec, mmap_mode, cache) for spec in specs
        ]
        is_object = bool(specs[0]["object"])
        dtype = (
            np.dtype(object) if is_object
            else np.dtype(str(specs[0]["dtype"]))
        )
        stored_bytes = sum(int(spec["stored_bytes"]) for spec in specs)
        columns[name] = PartitionedColumn(
            openers, part_rows, dtype, stored_bytes
        )
        zone_maps[name] = (
            _concat_zone_maps(specs, not is_object, zone_rows)
            if aligned else None
        )
    table = Table(str(table_spec["name"]), columns)
    for name, zone_map in zone_maps.items():
        table.attach_zone_map(name, zone_map)
    return table


def _partition_opener(
    path: str,
    spec: Dict[str, object],
    mmap_mode: Optional[str],
    cache: Dict[Tuple[str, bool], np.ndarray],
):
    def opener() -> Column:
        return _load_column(path, spec, mmap_mode, cache)

    return opener


def _concat_zone_maps(
    specs: List[Dict[str, object]], numeric: bool, zone_rows: int
) -> Optional[ZoneMap]:
    """Stitch per-partition zone stats into one global column zone map."""
    maps: List[ZoneMap] = []
    for spec in specs:
        zone_map = _zone_map_from_json(spec.get("zones"), numeric)
        if zone_map is None or zone_map.zone_rows != zone_rows:
            return None
        maps.append(zone_map)
    return ZoneMap(
        zone_rows,
        sum(zone_map.n_rows for zone_map in maps),
        np.concatenate([zone_map.mins for zone_map in maps]),
        np.concatenate([zone_map.maxs for zone_map in maps]),
        np.concatenate([zone_map.null_counts for zone_map in maps]),
        np.concatenate([zone_map.distinct_bounds for zone_map in maps]),
    )


def _load_column(
    path: str,
    spec: Dict[str, object],
    mmap_mode: Optional[str],
    cache: Optional[Dict[Tuple[str, bool], np.ndarray]] = None,
) -> Column:
    arrays: Dict[str, str] = spec["arrays"]  # type: ignore[assignment]
    is_object = bool(spec["object"])
    dtype = np.dtype(object) if is_object else np.dtype(str(spec["dtype"]))

    def load(role: str) -> np.ndarray:
        return np.load(os.path.join(path, arrays[role]), mmap_mode=mmap_mode)

    encoding = spec["encoding"]
    if encoding == "dict":
        # Dictionaries are tiny by construction — restore values eagerly
        # (and to object dtype for string columns) while codes stay mapped.
        # Shared dictionaries (several columns referencing one value file)
        # come out of the per-store cache as one array.
        cache_key = (arrays["values"], is_object)
        values = None if cache is None else cache.get(cache_key)
        if values is None:
            values = np.asarray(np.load(os.path.join(path, arrays["values"])))
            if is_object:
                values = values.astype(object)
            if cache is not None:
                cache[cache_key] = values
        return DictionaryColumn(load("codes"), values, dtype=dtype)
    if encoding == "for":
        # References are one int64 per block — restore them eagerly while
        # the (much larger) per-row offsets stay mapped.
        references = np.asarray(
            np.load(os.path.join(path, arrays["references"]))
        )
        return ForColumn(
            references, load("offsets"), int(spec["block_rows"]),  # type: ignore[call-overload]
            dtype=dtype,
        )
    if encoding == "rle":
        run_values = np.asarray(np.load(os.path.join(path, arrays["run_values"])))
        if is_object:
            run_values = run_values.astype(object)
        return RLEColumn(run_values, load("run_ends"), dtype=dtype)
    if encoding == "plain":
        return PlainColumn(load("values"), as_object=is_object)
    raise EngineError(f"unknown column encoding {encoding!r}")


# ----------------------------------------------------------------------
# Reports and in-RAM compression helpers
# ----------------------------------------------------------------------
def storage_report(path: str) -> Dict[str, object]:
    """Per-table/per-column storage stats of a v2 store, from the manifest
    alone (no data file is opened)."""
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise EngineError(f"{path!r} is not a v2 catalog store")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    tables: List[Dict[str, object]] = []
    for table_spec in manifest["tables"]:
        columns = []
        partitions = table_spec.get("partitions") or []
        if partitions:
            # Partitioned tables report each column summed over its pieces.
            names = [spec["name"] for spec in partitions[0]["columns"]]
            for position, name in enumerate(names):
                specs = [part["columns"][position] for part in partitions]
                columns.append(
                    {
                        "column": name,
                        "encoding": "partitioned",
                        "dtype": specs[0]["dtype"],
                        "plain_bytes": sum(s["plain_bytes"] for s in specs),
                        "stored_bytes": sum(s["stored_bytes"] for s in specs),
                        "zones": sum(
                            0 if s.get("zones") is None
                            else len(s["zones"]["mins"])
                            for s in specs
                        ),
                    }
                )
        for spec in table_spec["columns"]:
            zones = spec.get("zones")
            columns.append(
                {
                    "column": spec["name"],
                    "encoding": spec["encoding"],
                    "dtype": spec["dtype"],
                    "plain_bytes": spec["plain_bytes"],
                    "stored_bytes": spec["stored_bytes"],
                    "zones": 0 if zones is None else len(zones["mins"]),
                }
            )
        table_report: Dict[str, object] = {
            "table": table_spec["name"],
            "rows": table_spec["rows"],
            "clustered_by": table_spec.get("clustered_by"),
            "columns": columns,
        }
        if partitions:
            table_report["partitions"] = len(partitions)
        tables.append(table_report)
    return {
        "path": path,
        "version": manifest["version"],
        "zone_rows": manifest["zone_rows"],
        "tables": tables,
    }


def compress_table(
    table: Table,
    *,
    zone_rows: int = DEFAULT_ZONE_ROWS,
    cluster_by: Optional[str] = None,
) -> Table:
    """An in-RAM compressed copy of a table (encodings + zone maps).

    The differential tests' workhorse: same rows (optionally re-clustered),
    dictionary/RLE storage, zone maps attached — no disk involved.
    """
    order: Optional[np.ndarray] = None
    if cluster_by is not None:
        order = np.argsort(table.column(cluster_by), kind="stable")
    columns: Dict[str, Column] = {}
    zone_maps: Dict[str, Optional[ZoneMap]] = {}
    for name in table.column_names:
        values = table.column(name)
        if order is not None:
            values = values[order]
        columns[name] = encode_array(values)
        zone_maps[name] = build_zone_map(values, zone_rows)
    compressed = Table(table.name, columns)
    for name, zone_map in zone_maps.items():
        compressed.attach_zone_map(name, zone_map)
    return compressed


def compress_catalog(
    catalog: Catalog,
    *,
    zone_rows: int = DEFAULT_ZONE_ROWS,
    cluster: Optional[Dict[str, str]] = None,
) -> Catalog:
    """An in-RAM compressed copy of every table of a catalog."""
    cluster = cluster or {}
    compressed = Catalog()
    for table in catalog:
        compressed.register(
            compress_table(
                table, zone_rows=zone_rows, cluster_by=cluster.get(table.name)
            )
        )
    return compressed


def _column_order(catalog: Catalog, table_name: str) -> str:
    return ",".join(catalog.table(table_name).column_names)


def _object_to_unicode(table: str, column: str, values: np.ndarray) -> np.ndarray:
    for value in values:
        if value is not None and not isinstance(value, str):
            raise EngineError(
                f"cannot persist non-string object value {value!r} in "
                f"{table}.{column}"
            )
    return np.asarray(
        ["" if value is None else value for value in values], dtype=np.str_
    )

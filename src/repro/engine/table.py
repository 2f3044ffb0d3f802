"""Columnar tables — the storage layer of the relational engine substrate.

The paper's prototype stores the star schema in Oracle 11g; our substitute
is a column store on NumPy arrays.  A :class:`Table` is an ordered mapping
from column names to equal-length columns.  Key columns used as join targets
can expose a *position index* so foreign keys resolve to row positions in
O(1) (the moral equivalent of the paper's B-tree indexes on primary keys).

Columns may be plain arrays (RAM-resident or memory-mapped) or compressed
:class:`repro.engine.columns.Column` representations (dictionary / RLE);
``column(name)`` always yields the decoded logical array, and the
range-aware accessors (``gather``/``window``) decode only the requested
rows — what the zone-map-pruned scans of the executor use.  Per-column
:class:`~repro.engine.columns.ZoneMap` statistics are attached by the v2
column store at load time or built on demand with ``ensure_zone_maps``.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.errors import EngineError
from .columns import (
    DEFAULT_ZONE_ROWS,
    Column,
    DictionaryColumn,
    PartitionedColumn,
    PlainColumn,
    RLEColumn,
    Ranges,
    ZoneMap,
    build_zone_map,
    take_ranges,
)
from .kernels import sums_exactly as _sums_exactly

_GATE_CHUNK_ROWS = 1 << 22
"""Stored columns longer than this decide ``sums_exactly`` in windows."""


class _ColumnsView(Mapping):
    """Read-only mapping of column name → decoded array.

    Kept for compatibility with ``table.columns[...]`` users; decoding is
    per access and never cached, so compressed and memory-mapped columns
    do not silently materialise into resident memory.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "Table"):
        self._table = table

    def __getitem__(self, name: str) -> np.ndarray:
        return self._table.column(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._table._data)

    def __len__(self) -> int:
        return len(self._table._data)

    def __contains__(self, name: object) -> bool:
        return name in self._table._data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnsView({list(self._table._data)})"


class Table:
    """An immutable-ish columnar table.

    Columns are NumPy arrays or :class:`Column` encodings: integer/float
    columns keep their dtype, string columns are object arrays.  All
    columns share the same length.
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Union[np.ndarray, Column]],
    ):
        if not columns:
            raise EngineError(f"table {name!r} needs at least one column")
        self.name = name
        # Plain columns are stored as bare arrays (zero indirection on the
        # hot path); encoded columns as Column objects decoded on demand.
        self._data: Dict[str, Union[np.ndarray, Column]] = {}
        length: Optional[int] = None
        for column_name, values in columns.items():
            if isinstance(values, Column):
                stored: Union[np.ndarray, Column] = values
            elif isinstance(values, np.ndarray):
                stored = values
            else:
                stored = _to_array(values)
            if length is None:
                length = len(stored)
            elif len(stored) != length:
                raise EngineError(
                    f"table {name!r}: column {column_name!r} has {len(stored)} rows, "
                    f"expected {length}"
                )
            self._data[column_name] = stored
        self._n = length or 0
        self.columns: Mapping[str, np.ndarray] = _ColumnsView(self)
        self._key_indexes: Dict[str, "KeyIndex"] = {}
        self._dictionaries: Dict[str, Tuple[np.ndarray, int]] = {}
        self._dictionary_values: Dict[str, np.ndarray] = {}
        self._sum_gates: Dict[str, bool] = {}
        self._zone_maps: Dict[str, Optional[ZoneMap]] = {}
        self.zone_rows: Optional[int] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._data.keys())

    def column(self, name: str) -> np.ndarray:
        """Return a column by name, decoded to its logical array."""
        try:
            stored = self._data[name]
        except KeyError:
            raise EngineError(
                f"table {self.name!r} has no column {name!r} "
                f"(columns: {', '.join(self.column_names)})"
            ) from None
        if isinstance(stored, np.ndarray):
            return stored
        return stored.decode()

    def has_column(self, name: str) -> bool:
        return name in self._data

    # ------------------------------------------------------------------
    # Storage-aware accessors
    # ------------------------------------------------------------------
    def storage(self, name: str) -> Column:
        """The physical representation of a column (plain columns wrapped)."""
        stored = self._data[name] if name in self._data else self._missing(name)
        if isinstance(stored, np.ndarray):
            return PlainColumn(stored)
        return stored

    def _missing(self, name: str) -> Column:
        raise EngineError(
            f"table {self.name!r} has no column {name!r} "
            f"(columns: {', '.join(self.column_names)})"
        )

    def encoding_of(self, name: str) -> str:
        """``plain`` / ``dict`` / ``rle`` — the stored encoding of a column."""
        return self.storage(name).encoding

    def gather(self, name: str, ranges: Ranges) -> np.ndarray:
        """Decoded values of the selected row ranges (``None`` = all rows)."""
        stored = self._data[name] if name in self._data else self._missing(name)
        if isinstance(stored, np.ndarray):
            return take_ranges(stored, ranges)
        return stored.gather(ranges)

    def window(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Decoded values of rows ``[lo, hi)``."""
        stored = self._data[name] if name in self._data else self._missing(name)
        if isinstance(stored, np.ndarray):
            return stored[lo:hi]
        return stored.window(lo, hi)

    # ------------------------------------------------------------------
    # Key indexes (the engine's "B-trees")
    # ------------------------------------------------------------------
    def create_key_index(self, column_name: str) -> "KeyIndex":
        """Index a unique-key column so lookups by key become O(1).

        Dimension tables index their surrogate key; the common case of a
        dense ``0..n-1`` key is recognised and costs no memory at all.
        """
        if column_name not in self._key_indexes:
            self._key_indexes[column_name] = KeyIndex(self, column_name)
        return self._key_indexes[column_name]

    def key_index(self, column_name: str) -> "KeyIndex":
        """Return (building on demand) the key index of a column."""
        return self.create_key_index(column_name)

    def dictionary(self, column_name: str) -> Tuple[np.ndarray, int]:
        """Dictionary-encode a column: ``(codes, cardinality)``, cached.

        Codes follow the sorted order of the distinct values.  This is the
        column-store dictionary encoding real engines keep per column; the
        executor uses it so repeated group-bys on the same stored column
        never re-factorize member strings.  Columns already stored
        dictionary-encoded serve their codes without any scan (the stored
        dictionary is sorted and fully referenced, so the codes coincide
        with ``np.unique``'s inverse bit for bit).
        """
        if column_name not in self._dictionaries:
            stored = self._data.get(column_name)
            if isinstance(stored, DictionaryColumn):
                codes = np.asarray(stored.codes).astype(np.int64, copy=False)
                self._dictionaries[column_name] = (
                    codes, max(stored.cardinality, 1)
                )
            else:
                uniques, codes = np.unique(
                    self.column(column_name), return_inverse=True
                )
                cardinality = int(codes.max()) + 1 if len(codes) else 0
                self._dictionaries[column_name] = (
                    codes.astype(np.int64, copy=False),
                    max(cardinality, 1),
                )
                self._dictionary_values[column_name] = uniques
        return self._dictionaries[column_name]

    def cardinality(self, column_name: str) -> int:
        """Dictionary cardinality of a column (at least 1).

        Stored dictionary encodings answer from their header, so sizing a
        group-by key never materialises a memory-mapped column's codes.
        """
        stored = self._data.get(column_name)
        if column_name not in self._dictionaries and isinstance(
            stored, DictionaryColumn
        ):
            return max(stored.cardinality, 1)
        return self.dictionary(column_name)[1]

    def dictionary_gather(
        self, column_name: str, ranges: Ranges
    ) -> Tuple[np.ndarray, int]:
        """Dictionary codes of the selected rows plus the full cardinality.

        Equivalent to gathering ``dictionary()[0]`` through the ranges; for
        stored dictionary encodings the gather happens on the narrow code
        array, so unselected rows are never decoded (or paged in).
        """
        if column_name in self._dictionaries:
            codes, cardinality = self._dictionaries[column_name]
            return take_ranges(codes, ranges), cardinality
        stored = self._data.get(column_name)
        if isinstance(stored, DictionaryColumn) and ranges is not None:
            return stored.gather_codes(ranges), max(stored.cardinality, 1)
        codes, cardinality = self.dictionary(column_name)
        return take_ranges(codes, ranges), cardinality

    def dictionary_values(self, column_name: str) -> np.ndarray:
        """Distinct values of a column in code order (the dictionary itself).

        ``dictionary_values(c)[dictionary(c)[0]]`` reconstructs the column:
        codes index this array.  The executor uses it to decode group
        coordinates from combined keys without touching fact rows.
        """
        if column_name not in self._dictionary_values:
            stored = self._data.get(column_name)
            if isinstance(stored, DictionaryColumn):
                values = stored.values
                if values.dtype != stored.dtype:
                    values = values.astype(stored.dtype)
                self._dictionary_values[column_name] = values
            else:
                self.dictionary(column_name)  # one np.unique fills both caches
        return self._dictionary_values[column_name]

    def sums_exactly(self, column_name: str) -> bool:
        """Cached full-column float-exactness gate for a measure column.

        ``True`` means *any* row subset of the column sums exactly in any
        association order (a subset only shrinks the 2**53 magnitude
        bound), so partial sums over morsels may be re-added without
        changing a bit.  Conservative: a column can fail this gate while
        some masked subset would pass — callers then stay serial.

        For dictionary/RLE encodings the gate is decided from the (tiny)
        distinct-value set and the row count — no decode: the bound
        ``max|values| * rows`` only needs the dictionary's extremes.
        """
        if column_name not in self._sum_gates:
            stored = self._data.get(column_name)
            if isinstance(stored, DictionaryColumn):
                gate = _distinct_sums_exactly(stored.values, len(stored))
            elif isinstance(stored, RLEColumn):
                gate = _distinct_sums_exactly(stored.run_values, len(stored))
            elif isinstance(stored, PartitionedColumn):
                distinct = stored.sum_gate_values()
                if distinct is not None:
                    gate = _distinct_sums_exactly(distinct, len(stored))
                else:
                    gate = _windowed_sums_exactly(stored)
            elif isinstance(stored, Column) and len(stored) > _GATE_CHUNK_ROWS:
                # Out-of-core stores: decide the gate window by window
                # instead of materialising the whole column.
                gate = _windowed_sums_exactly(stored)
            else:
                gate = _sums_exactly(self.column(column_name))
            self._sum_gates[column_name] = gate
        return self._sum_gates[column_name]

    # ------------------------------------------------------------------
    # Zone maps
    # ------------------------------------------------------------------
    @property
    def has_zone_maps(self) -> bool:
        """Whether any column carries zone statistics."""
        return any(zm is not None for zm in self._zone_maps.values())

    def zone_map(self, column_name: str) -> Optional[ZoneMap]:
        """The zone map of a column, or ``None`` when not available."""
        return self._zone_maps.get(column_name)

    def attach_zone_map(self, column_name: str, zone_map: Optional[ZoneMap]) -> None:
        """Attach a precomputed zone map (the v2 column store's loader)."""
        if zone_map is not None:
            if self.zone_rows is None:
                self.zone_rows = zone_map.zone_rows
            elif zone_map.zone_rows != self.zone_rows:
                raise EngineError(
                    f"table {self.name!r}: zone map of {column_name!r} uses "
                    f"{zone_map.zone_rows} rows per zone, table uses "
                    f"{self.zone_rows}"
                )
        self._zone_maps[column_name] = zone_map

    def ensure_zone_maps(self, zone_rows: int = DEFAULT_ZONE_ROWS) -> int:
        """Build zone maps for every column that lacks one.

        Returns how many columns now carry a map.  Explicit by design: the
        executor never builds maps mid-query, so cold scans of plain
        in-RAM catalogs pay zero overhead unless a caller opts in.
        """
        if self.zone_rows is not None:
            zone_rows = self.zone_rows
        else:
            self.zone_rows = zone_rows
        for name in self.column_names:
            if name not in self._zone_maps:
                self._zone_maps[name] = build_zone_map(
                    self.column(name), zone_rows
                )
        return sum(1 for zm in self._zone_maps.values() if zm is not None)

    # ------------------------------------------------------------------
    def storage_info(self) -> List[Dict[str, object]]:
        """Per-column storage report (encoding, sizes, zone coverage)."""
        report: List[Dict[str, object]] = []
        for name in self.column_names:
            stored = self.storage(name)
            zone_map = self.zone_map(name)
            plain = self.column(name)
            report.append(
                {
                    "column": name,
                    "encoding": stored.encoding,
                    "dtype": str(stored.dtype),
                    "rows": self._n,
                    "plain_bytes": int(plain.nbytes),
                    "stored_bytes": stored.stored_bytes,
                    "zones": 0 if zone_map is None else zone_map.n_zones,
                }
            )
        return report

    # ------------------------------------------------------------------
    def head(self, k: int = 10) -> List[Dict[str, object]]:
        """First ``k`` rows as dicts (debugging helper)."""
        k = min(k, self._n)
        decoded = {name: self.window(name, 0, k) for name in self.column_names}
        return [
            {name: decoded[name][row] for name in decoded}
            for row in range(k)
        ]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self._n}, columns={list(self._data)})"


def _windowed_sums_exactly(stored: Column) -> bool:
    """The ``sums_exactly`` gate decided in bounded decode windows.

    Same verdict as :func:`repro.engine.kernels.sums_exactly` on the full
    decode: finiteness and integrality are per-element, and the ``2**53``
    magnitude bound uses the global max ``|value|`` times the global row
    count — only the decode is chunked.
    """
    n = len(stored)
    max_abs = 0.0
    for lo in range(0, n, _GATE_CHUNK_ROWS):
        part = np.asarray(
            stored.window(lo, min(lo + _GATE_CHUNK_ROWS, n)), dtype=np.float64
        )
        if not np.all(np.isfinite(part)):
            return False
        if np.any(part != np.trunc(part)):
            return False
        if len(part):
            max_abs = max(max_abs, float(np.abs(part).max()))
    return max_abs * n < 2.0**53


def _distinct_sums_exactly(values: np.ndarray, rows: int) -> bool:
    """The ``sums_exactly`` gate decided from a distinct-value dictionary."""
    if rows == 0 or len(values) == 0:
        return True
    try:
        floats = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    if not np.all(np.isfinite(floats)):
        return False
    if np.any(floats != np.trunc(floats)):
        return False
    return float(np.abs(floats).max()) * rows < 2.0**53


class KeyIndex:
    """Maps key values of a unique column to their row positions.

    ``positions_of(keys)`` vectorises the lookup for a whole foreign-key
    column.  Dense integer keys (``key == row`` or ``key == row + base``)
    are detected and served by arithmetic; anything else falls back to a
    hash map.
    """

    def __init__(self, table: Table, column_name: str):
        column = table.column(column_name)
        self.table_name = table.name
        self.column_name = column_name
        self._dense_base: Optional[int] = None
        self._mapping: Optional[Dict] = None
        if np.issubdtype(column.dtype, np.integer) and len(column) > 0:
            base = int(column[0])
            expected = np.arange(base, base + len(column), dtype=column.dtype)
            if np.array_equal(column, expected):
                self._dense_base = base
        if self._dense_base is None:
            mapping: Dict = {}
            for position, key in enumerate(column):
                if key in mapping:
                    raise EngineError(
                        f"key column {column_name!r} of table {table.name!r} "
                        f"has duplicate value {key!r}"
                    )
                mapping[key] = position
            self._mapping = mapping
        self._n = len(column)

    @property
    def is_dense(self) -> bool:
        """Whether the index is served arithmetically (dense surrogate keys)."""
        return self._dense_base is not None

    def positions_of(self, keys: np.ndarray) -> np.ndarray:
        """Row positions of each key; raises on unknown keys."""
        if self._dense_base is not None:
            positions = np.asarray(keys, dtype=np.int64) - self._dense_base
            if len(positions) and (positions.min() < 0 or positions.max() >= self._n):
                raise EngineError(
                    f"foreign key value outside table {self.table_name!r} "
                    f"key range"
                )
            return positions
        mapping = self._mapping
        assert mapping is not None
        try:
            return np.fromiter(
                (mapping[key] for key in keys), dtype=np.int64, count=len(keys)
            )
        except KeyError as exc:
            raise EngineError(
                f"foreign key value {exc.args[0]!r} not found in "
                f"{self.table_name}.{self.column_name}"
            ) from None


def _to_array(values: Sequence) -> np.ndarray:
    """Coerce a python sequence to the narrowest sensible NumPy column."""
    values = list(values)
    if not values:
        return np.empty(0, dtype=object)
    first = values[0]
    if isinstance(first, bool):
        return np.asarray(values, dtype=bool)
    if isinstance(first, (int, np.integer)) and all(
        isinstance(v, (int, np.integer)) for v in values
    ):
        return np.asarray(values, dtype=np.int64)
    if isinstance(first, (float, np.floating)) and all(
        isinstance(v, (int, float, np.integer, np.floating)) for v in values
    ):
        return np.asarray(values, dtype=np.float64)
    array = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        array[i] = value
    return array


def table_from_rows(name: str, rows: Iterable[Mapping[str, object]]) -> Table:
    """Build a table from an iterable of row dicts (tests/examples)."""
    rows = list(rows)
    if not rows:
        raise EngineError(f"cannot infer columns of empty table {name!r}")
    columns: Dict[str, List] = {key: [] for key in rows[0]}
    for row in rows:
        if set(row) != set(columns):
            raise EngineError(f"ragged rows for table {name!r}")
        for key, value in row.items():
            columns[key].append(value)
    return Table(name, {key: _to_array(values) for key, values in columns.items()})

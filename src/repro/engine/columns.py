"""Compressed column representations and zone maps (the storage layer).

Real column stores do not keep every column as a flat array: low-cardinality
columns are *dictionary-encoded* (narrow integer codes into a sorted value
dictionary), sorted/clustered columns are *run-length-encoded*, and every
column carries per-block *zone maps* (min/max, null count, distinct bound)
so scans can skip blocks that cannot satisfy a predicate.  This module
provides those three representations behind one small :class:`Column`
protocol that :class:`repro.engine.table.Table` consumes transparently —
``table.column(name)`` always yields the decoded logical array, and the
executor's hot paths use the range-aware accessors (``gather``/``window``)
so only the surviving row ranges are ever decoded.

Soundness contract of zone pruning: a zone test answers "may any row of
this zone satisfy the predicate?" — ``False`` must be *definite* (no row
can match), ``True`` may be a false positive.  Pruned rows would all have
been rejected by the selection mask anyway, so the masked row sequence —
and therefore every float summation order — is unchanged: results stay
bit-identical to the unpruned scan with no extra exactness gating.
NaN semantics make this automatic: predicates never match NaN, and NaN
zone bounds make every comparison ``False``, so all-null zones prune.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .query import FACT

DEFAULT_ZONE_ROWS = 65_536
"""Rows per zone — matches the default parallel morsel size, so one zone
verdict maps onto one morsel task."""

_DICT_MAX_CARDINALITY = 1 << 21
"""Do not dictionary-encode past this cardinality (codes stop narrowing)."""

Ranges = Optional[List[Tuple[int, int]]]
"""A row selection: ordered, disjoint ``[lo, hi)`` ranges; ``None`` = all."""


# ----------------------------------------------------------------------
# Row-range selections
# ----------------------------------------------------------------------
def take_ranges(values: np.ndarray, ranges: Ranges) -> np.ndarray:
    """Concatenate the selected row ranges of an array.

    ``None`` returns the array itself (zero copy); a single range returns a
    view.  On memory-mapped columns only the selected pages are ever read.
    """
    if ranges is None:
        return values
    if not ranges:
        return values[:0]
    if len(ranges) == 1:
        lo, hi = ranges[0]
        return values[lo:hi]
    return np.concatenate([values[lo:hi] for lo, hi in ranges])


def ranges_length(ranges: Ranges, n_rows: int) -> int:
    """Selected row count of a selection over an ``n_rows`` table."""
    if ranges is None:
        return n_rows
    return sum(hi - lo for lo, hi in ranges)


def split_ranges(
    ranges: Ranges, n_rows: int, window_rows: int
) -> List[Tuple[int, Ranges, int]]:
    """Cut a row selection at every multiple of ``window_rows``.

    Returns ``(window index, ranges, rows)`` for each window holding at
    least one selected row, in row order.  An unpruned table that fits
    one window stays ``None`` (zero-copy gathers).
    """
    if ranges is None:
        if n_rows <= window_rows:
            return [(0, None, n_rows)]
        ranges = [(0, n_rows)]
    windows: Dict[int, List[Tuple[int, int]]] = {}
    for lo, hi in ranges:
        while lo < hi:
            index = lo // window_rows
            cut = min(hi, (index + 1) * window_rows)
            windows.setdefault(index, []).append((lo, cut))
            lo = cut
    return [
        (index, parts, sum(hi - lo for lo, hi in parts))
        for index, parts in windows.items()
    ]


# ----------------------------------------------------------------------
# Column representations
# ----------------------------------------------------------------------
class Column:
    """Protocol of a stored column: decode fully, by window, or by ranges.

    ``decode()`` must reproduce the original logical array bit for bit
    (same values, same dtype) — the executor relies on that for the
    compressed/plain differential guarantee.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        """The *logical* dtype (``object`` for string columns)."""
        raise NotImplementedError

    @property
    def encoding(self) -> str:
        raise NotImplementedError

    def decode(self) -> np.ndarray:
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Decoded values of rows ``[lo, hi)``."""
        raise NotImplementedError

    def gather(self, ranges: Ranges) -> np.ndarray:
        """Decoded values of a row selection."""
        raise NotImplementedError

    @property
    def stored_bytes(self) -> int:
        raise NotImplementedError


class PlainColumn(Column):
    """An uncompressed column; the array may be RAM-resident or a memmap.

    When built from a persisted unicode array standing in for an object
    (string) column, ``as_object=True`` converts on decode — the conversion
    is per-call, so a memory-mapped string column stays out of core until
    (and only while) it is actually read.
    """

    __slots__ = ("values", "as_object")

    def __init__(self, values: np.ndarray, as_object: bool = False):
        self.values = values
        self.as_object = as_object and values.dtype != object

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(object) if self.as_object else self.values.dtype

    @property
    def encoding(self) -> str:
        return "plain"

    def decode(self) -> np.ndarray:
        if self.as_object:
            return self.values.astype(object)
        return self.values

    def window(self, lo: int, hi: int) -> np.ndarray:
        part = self.values[lo:hi]
        return part.astype(object) if self.as_object else part

    def gather(self, ranges: Ranges) -> np.ndarray:
        part = take_ranges(self.values, ranges)
        return part.astype(object) if self.as_object else part

    @property
    def stored_bytes(self) -> int:
        return int(self.values.nbytes)


class DictionaryColumn(Column):
    """Narrow integer codes into a sorted dictionary of distinct values.

    Invariants: ``values`` is sorted and duplicate-free, and every entry is
    referenced by at least one code — so ``values[codes]`` equals the
    original column *and* the codes coincide with ``np.unique``'s inverse,
    making ``Table.dictionary()`` free for encoded columns.
    """

    __slots__ = ("codes", "values", "_dtype")

    def __init__(self, codes: np.ndarray, values: np.ndarray,
                 dtype: Optional[np.dtype] = None):
        self.codes = codes
        self.values = values
        self._dtype = np.dtype(dtype) if dtype is not None else values.dtype

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def encoding(self) -> str:
        return "dict"

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def decode(self) -> np.ndarray:
        return self._cast(self.values[np.asarray(self.codes)])

    def window(self, lo: int, hi: int) -> np.ndarray:
        return self._cast(self.values[np.asarray(self.codes[lo:hi])])

    def gather(self, ranges: Ranges) -> np.ndarray:
        return self._cast(self.values[np.asarray(take_ranges(self.codes, ranges))])

    def gather_codes(self, ranges: Ranges) -> np.ndarray:
        """int64 dictionary codes of a row selection (no value decode)."""
        return np.asarray(take_ranges(self.codes, ranges)).astype(
            np.int64, copy=False
        )

    def _cast(self, decoded: np.ndarray) -> np.ndarray:
        if decoded.dtype != self._dtype:
            return decoded.astype(self._dtype)
        return decoded

    @property
    def stored_bytes(self) -> int:
        return int(self.codes.nbytes) + int(_values_nbytes(self.values))


class RLEColumn(Column):
    """Run-length encoding: run values plus cumulative run end offsets.

    Effective for clustered (sort-ordered) columns, where the run count is
    the column's cardinality instead of its row count.  Row ``i`` belongs
    to run ``searchsorted(run_ends, i, side="right")``.
    """

    __slots__ = ("run_values", "run_ends", "_dtype")

    def __init__(self, run_values: np.ndarray, run_ends: np.ndarray,
                 dtype: Optional[np.dtype] = None):
        self.run_values = run_values
        self.run_ends = np.asarray(run_ends, dtype=np.int64)
        self._dtype = np.dtype(dtype) if dtype is not None else run_values.dtype

    def __len__(self) -> int:
        return int(self.run_ends[-1]) if len(self.run_ends) else 0

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def encoding(self) -> str:
        return "rle"

    def decode(self) -> np.ndarray:
        return self.window(0, len(self))

    def window(self, lo: int, hi: int) -> np.ndarray:
        hi = min(hi, len(self))
        if hi <= lo:
            return self._empty()
        first = int(np.searchsorted(self.run_ends, lo, side="right"))
        last = int(np.searchsorted(self.run_ends, hi - 1, side="right"))
        ends = np.minimum(self.run_ends[first:last + 1], hi)
        starts = np.empty_like(ends)
        starts[0] = lo
        if last > first:
            starts[1:] = self.run_ends[first:last]
        out = np.repeat(self.run_values[first:last + 1], ends - starts)
        return out if out.dtype == self._dtype else out.astype(self._dtype)

    def gather(self, ranges: Ranges) -> np.ndarray:
        if ranges is None:
            return self.decode()
        if not ranges:
            return self._empty()
        return np.concatenate([self.window(lo, hi) for lo, hi in ranges])

    def _empty(self) -> np.ndarray:
        return np.empty(0, dtype=self._dtype)

    @property
    def stored_bytes(self) -> int:
        return int(_values_nbytes(self.run_values)) + int(self.run_ends.nbytes)


class ForColumn(Column):
    """Delta/frame-of-reference encoding for sorted integer columns.

    Rows are grouped into fixed ``block_rows`` blocks (zone-aligned by
    construction — the default block is the zone size, so decode windows
    touch only the blocks overlapping them); each block stores its first
    value as an int64 reference, and every row stores its non-negative
    delta from the block reference in the narrowest unsigned dtype wide
    enough for the largest block span.  Clustered fact FK columns and
    surrogate-key dimension columns (``arange``-like) shrink 4–8x.
    """

    __slots__ = ("references", "offsets", "block_rows", "_dtype")

    def __init__(
        self,
        references: np.ndarray,
        offsets: np.ndarray,
        block_rows: int,
        dtype: Optional[np.dtype] = None,
    ):
        self.references = np.asarray(references, dtype=np.int64)
        self.offsets = offsets
        self.block_rows = int(block_rows)
        self._dtype = (
            np.dtype(dtype) if dtype is not None else np.dtype(np.int64)
        )

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def encoding(self) -> str:
        return "for"

    def decode(self) -> np.ndarray:
        return self.window(0, len(self))

    def window(self, lo: int, hi: int) -> np.ndarray:
        hi = min(hi, len(self))
        if hi <= lo:
            return np.empty(0, dtype=self._dtype)
        offsets = np.asarray(self.offsets[lo:hi]).astype(np.int64)
        blocks = np.arange(lo, hi, dtype=np.int64) // self.block_rows
        out = self.references[blocks] + offsets
        return out.astype(self._dtype, copy=False)

    def gather(self, ranges: Ranges) -> np.ndarray:
        if ranges is None:
            return self.decode()
        if not ranges:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate([self.window(lo, hi) for lo, hi in ranges])

    @property
    def stored_bytes(self) -> int:
        return int(self.references.nbytes) + int(np.asarray(self.offsets).nbytes)


def encode_for(
    values: np.ndarray, block_rows: int = DEFAULT_ZONE_ROWS
) -> Optional[ForColumn]:
    """FOR-encode a sorted integer column; ``None`` when it would not win.

    Eligible columns are integer-dtyped and non-decreasing (sorted keys,
    clustered FKs).  The encoding only applies when the offset dtype is
    strictly narrower than the value dtype — otherwise plain storage is
    at least as small.
    """
    if values.dtype.kind not in "iu" or len(values) == 0:
        return None
    if not bool(np.all(values[1:] >= values[:-1])):
        return None
    n = len(values)
    n_blocks = -(-n // block_rows)
    block_starts = np.arange(n_blocks, dtype=np.int64) * block_rows
    references = values[block_starts].astype(np.int64)
    repeats = np.full(n_blocks, block_rows, dtype=np.int64)
    repeats[-1] = n - int(block_starts[-1])
    offsets64 = values.astype(np.int64) - np.repeat(references, repeats)
    span = int(offsets64.max())
    if span >= 1 << 32:
        return None
    offset_dtype = narrowest_code_dtype(span + 1)
    if offset_dtype.itemsize >= values.dtype.itemsize:
        return None
    return ForColumn(
        references, offsets64.astype(offset_dtype), block_rows,
        dtype=values.dtype,
    )


class PartitionedColumn(Column):
    """A column stored as per-partition pieces, each opened lazily.

    Built by the partitioned v2 store loader: each piece is materialised by
    a zero-argument opener the first time any of its rows is touched, so a
    fact table far larger than RAM costs nothing to *load* — scans page in
    only the partitions (and, through their memory maps, only the pages)
    they actually read.  Pieces concatenate in order: partition ``p`` holds
    global rows ``[offsets[p], offsets[p+1])``.
    """

    __slots__ = ("_openers", "_offsets", "_parts", "_dtype", "_stored_bytes")

    def __init__(
        self,
        openers: Sequence[Callable[[], Column]],
        part_rows: Sequence[int],
        dtype: np.dtype,
        stored_bytes: int,
    ):
        self._openers = list(openers)
        rows = np.asarray(list(part_rows), dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(rows)]).astype(np.int64)
        self._parts: List[Optional[Column]] = [None] * len(self._openers)
        self._dtype = np.dtype(dtype)
        self._stored_bytes = int(stored_bytes)

    def __len__(self) -> int:
        return int(self._offsets[-1])

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def encoding(self) -> str:
        return "partitioned"

    @property
    def n_partitions(self) -> int:
        return len(self._openers)

    def _part(self, index: int) -> Column:
        part = self._parts[index]
        if part is None:
            part = self._openers[index]()
            self._parts[index] = part
        return part

    def decode(self) -> np.ndarray:
        return self.window(0, len(self))

    def window(self, lo: int, hi: int) -> np.ndarray:
        hi = min(hi, len(self))
        if hi <= lo:
            return np.empty(0, dtype=self._dtype)
        first = int(np.searchsorted(self._offsets, lo, side="right")) - 1
        last = int(np.searchsorted(self._offsets, hi - 1, side="right")) - 1
        pieces = []
        for index in range(first, last + 1):
            base = int(self._offsets[index])
            pieces.append(self._part(index).window(max(lo - base, 0), hi - base))
        out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        if out.dtype != self._dtype:
            return out.astype(self._dtype)
        return out

    def gather(self, ranges: Ranges) -> np.ndarray:
        if ranges is None:
            return self.decode()
        if not ranges:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate([self.window(lo, hi) for lo, hi in ranges])

    def sum_gate_values(self) -> Optional[np.ndarray]:
        """Concatenated distinct values when every piece is dict/RLE-encoded.

        Lets ``Table.sums_exactly`` decide the float-exactness gate from the
        (tiny) per-partition dictionaries instead of decoding the column;
        ``None`` when any piece is stored plain.
        """
        values: List[np.ndarray] = []
        for index in range(len(self._openers)):
            part = self._part(index)
            if isinstance(part, DictionaryColumn):
                values.append(np.asarray(part.values))
            elif isinstance(part, RLEColumn):
                values.append(np.asarray(part.run_values))
            else:
                return None
        if not values:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate(values)

    @property
    def stored_bytes(self) -> int:
        return self._stored_bytes


def _values_nbytes(values: np.ndarray) -> int:
    if values.dtype == object:
        # Rough but stable: python string payloads plus pointer array.
        return values.nbytes + sum(
            len(str(value)) for value in values
        )
    return values.nbytes


def narrowest_code_dtype(cardinality: int) -> np.dtype:
    """The narrowest unsigned dtype that can hold codes ``0..cardinality-1``."""
    if cardinality <= 1 << 8:
        return np.dtype(np.uint8)
    if cardinality <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def encode_array(values: np.ndarray) -> Column:
    """Choose and build the best encoding for a column.

    Heuristics mirror what real stores do: run-length when the column has
    long runs (clustered data), dictionary when the cardinality is small
    relative to the row count, plain otherwise.  Columns that cannot be
    encoded soundly (mixed-type objects, floats with NaNs) stay plain.
    """
    n = len(values)
    if n == 0:
        return PlainColumn(values)

    # Run-length first: it subsumes dictionary wins on clustered columns.
    try:
        changes = np.flatnonzero(values[1:] != values[:-1])
        n_runs = len(changes) + 1
    except Exception:
        return PlainColumn(values)
    if n_runs <= max(1, n // 8):
        starts = np.concatenate([[0], changes + 1])
        run_values = values[starts]
        run_ends = np.concatenate([starts[1:], [n]]).astype(np.int64)
        return RLEColumn(run_values, run_ends, dtype=values.dtype)

    # Frame-of-reference next: sorted integer columns whose runs are too
    # short for RLE (clustered high-cardinality keys, surrogate keys)
    # shrink to narrow per-block deltas.
    if values.dtype.kind in "iu":
        for_column = encode_for(values)
        if for_column is not None:
            return for_column

    if values.dtype.kind == "f" and bool(np.isnan(values).any()):
        return PlainColumn(values)  # NaN breaks dictionary equality
    try:
        uniques, inverse = np.unique(values, return_inverse=True)
    except Exception:
        return PlainColumn(values)
    cardinality = len(uniques)
    if cardinality > min(_DICT_MAX_CARDINALITY, max(1, n // 4)):
        return PlainColumn(values)
    codes = inverse.astype(narrowest_code_dtype(cardinality))
    return DictionaryColumn(codes, uniques, dtype=values.dtype)


def as_column(values: object) -> Column:
    """Wrap an array (or pass through an existing Column) unchanged."""
    if isinstance(values, Column):
        return values
    return PlainColumn(np.asarray(values))


# ----------------------------------------------------------------------
# Zone maps
# ----------------------------------------------------------------------
class ZoneMap:
    """Per-zone min/max, null count, and distinct bound of one column.

    ``mins``/``maxs`` ignore NaNs; an all-NaN zone stores NaN bounds, which
    every comparison-based test rejects — exactly the sound verdict, since
    predicates never match NaN rows.
    """

    __slots__ = ("zone_rows", "n_rows", "mins", "maxs", "null_counts",
                 "distinct_bounds")

    def __init__(
        self,
        zone_rows: int,
        n_rows: int,
        mins: np.ndarray,
        maxs: np.ndarray,
        null_counts: np.ndarray,
        distinct_bounds: np.ndarray,
    ):
        self.zone_rows = int(zone_rows)
        self.n_rows = int(n_rows)
        self.mins = mins
        self.maxs = maxs
        self.null_counts = np.asarray(null_counts, dtype=np.int64)
        self.distinct_bounds = np.asarray(distinct_bounds, dtype=np.int64)

    @property
    def n_zones(self) -> int:
        return len(self.mins)

    def zone_bounds(self, zone: int) -> Tuple[int, int]:
        lo = zone * self.zone_rows
        return lo, min(lo + self.zone_rows, self.n_rows)

    def value_range(self) -> Tuple[object, object]:
        """Global (min, max) over the whole column (NaN zones ignored)."""
        mins = [m for m in self.mins if not _is_nan(m)]
        maxs = [m for m in self.maxs if not _is_nan(m)]
        if not mins or not maxs:
            return None, None
        return min(mins), max(maxs)

    def distinct_bound_total(self) -> int:
        """A sound upper bound on the column's distinct count."""
        return int(self.distinct_bounds.sum())

    def rechunk(self, new_zone_rows: int) -> "Optional[ZoneMap]":
        """Coarsen this map to a larger, divisible zone size.

        Sound only when ``new_zone_rows`` is a positive multiple of
        ``zone_rows``: each new zone is then the union of whole old
        zones, so min-of-mins / max-of-maxs bounds, summed null counts,
        and summed distinct bounds remain conservative.  Returns ``None``
        otherwise — callers must then drop the map (counted fallback)
        rather than mis-prune with misaligned geometry.
        """
        if new_zone_rows == self.zone_rows:
            return self
        if new_zone_rows <= 0 or new_zone_rows % self.zone_rows:
            return None
        step = new_zone_rows // self.zone_rows
        n_new = max(1, -(-self.n_zones // step))
        mins = np.empty(n_new, dtype=self.mins.dtype)
        maxs = np.empty(n_new, dtype=self.maxs.dtype)
        nulls = np.zeros(n_new, dtype=np.int64)
        distinct = np.zeros(n_new, dtype=np.int64)
        for zone in range(n_new):
            lo, hi = zone * step, min((zone + 1) * step, self.n_zones)
            zone_mins = [m for m in self.mins[lo:hi] if not _is_nan(m)]
            zone_maxs = [m for m in self.maxs[lo:hi] if not _is_nan(m)]
            mins[zone] = min(zone_mins) if zone_mins else np.nan
            maxs[zone] = max(zone_maxs) if zone_maxs else np.nan
            nulls[zone] = int(self.null_counts[lo:hi].sum())
            distinct[zone] = int(self.distinct_bounds[lo:hi].sum())
        return ZoneMap(new_zone_rows, self.n_rows, mins, maxs, nulls, distinct)


def _is_nan(value: object) -> bool:
    try:
        return bool(np.isnan(value))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False


def build_zone_map(
    values: np.ndarray, zone_rows: int = DEFAULT_ZONE_ROWS
) -> Optional[ZoneMap]:
    """Compute the zone map of a column; ``None`` when min/max is undefined
    (mixed-type object columns)."""
    n = len(values)
    n_zones = max(1, -(-n // zone_rows))
    mins = np.empty(n_zones, dtype=object)
    maxs = np.empty(n_zones, dtype=object)
    null_counts = np.zeros(n_zones, dtype=np.int64)
    distinct = np.zeros(n_zones, dtype=np.int64)
    is_float = values.dtype.kind == "f"
    try:
        for zone in range(n_zones):
            lo = zone * zone_rows
            hi = min(lo + zone_rows, n)
            part = values[lo:hi]
            if len(part) == 0:
                mins[zone] = maxs[zone] = np.nan
                continue
            if is_float:
                null_counts[zone] = int(np.isnan(part).sum())
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    mins[zone] = float(np.nanmin(part))
                    maxs[zone] = float(np.nanmax(part))
            else:
                mins[zone] = part.min()
                maxs[zone] = part.max()
            distinct[zone] = len(np.unique(part))
    except (TypeError, ValueError):
        return None
    if values.dtype.kind in "biuf":
        mins = mins.astype(np.float64)
        maxs = maxs.astype(np.float64)
    return ZoneMap(zone_rows, n, mins, maxs, null_counts, distinct)


# ----------------------------------------------------------------------
# Zone tests (predicate → may-match verdicts per zone)
# ----------------------------------------------------------------------
ZoneTest = Callable[[object, object], bool]


def _vector_or_loop(
    alive: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    vector: Callable[[np.ndarray, np.ndarray], np.ndarray],
    scalar: ZoneTest,
) -> None:
    """AND a test's verdicts into ``alive``, vectorised when dtypes allow."""
    try:
        verdict = np.asarray(vector(mins, maxs), dtype=bool)
        np.logical_and(alive, verdict, out=alive)
        return
    except Exception:
        pass
    for zone in range(len(alive)):
        if not alive[zone]:
            continue
        try:
            if not scalar(mins[zone], maxs[zone]):
                alive[zone] = False
        except TypeError:
            continue  # incomparable types: keep the zone (sound)


class RangeZoneTest:
    """``[lo, hi]`` (inclusive) overlap test against zone bounds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: object, hi: object):
        self.lo = lo
        self.hi = hi

    def apply(self, alive: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> None:
        lo, hi = self.lo, self.hi
        _vector_or_loop(
            alive, mins, maxs,
            lambda m, x: (x >= lo) & (m <= hi),
            lambda zmin, zmax: bool(zmax >= lo) and bool(zmin <= hi),
        )


class MembersZoneTest:
    """Any-member-in-bounds test for EQ / IN predicates."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[object]):
        self.members = tuple(members)

    def apply(self, alive: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> None:
        members = self.members

        def vector(m: np.ndarray, x: np.ndarray) -> np.ndarray:
            verdict = np.zeros(len(m), dtype=bool)
            for value in members:
                verdict |= (m <= value) & (x >= value)
            return verdict

        def scalar(zmin: object, zmax: object) -> bool:
            return any(
                bool(zmin <= value) and bool(zmax >= value) for value in members
            )

        _vector_or_loop(alive, mins, maxs, vector, scalar)


class NeverZoneTest:
    """A provably-empty predicate (e.g. no dimension row matches)."""

    __slots__ = ()

    def apply(self, alive: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> None:
        alive[:] = False


def predicate_zone_test(predicate: object) -> Optional[object]:
    """The zone test of a core ``Predicate`` evaluated on the fact column."""
    op = getattr(predicate, "op", None)
    values = getattr(predicate, "values", ())
    name = getattr(op, "name", "")
    if name == "EQ":
        return MembersZoneTest((values[0],))
    if name == "IN":
        return MembersZoneTest(values) if values else NeverZoneTest()
    if name == "RANGE":
        return RangeZoneTest(values[0], values[1])
    return None


# ----------------------------------------------------------------------
# Pruning planner
# ----------------------------------------------------------------------
class ZonePruner:
    """Folds the zone tests of one scan into per-zone survival verdicts.

    Built by :func:`plan_zone_pruning`; the executor asks it either for the
    surviving row ranges (serial scans) or for per-morsel verdicts
    (parallel scans, where pruned morsels are never enqueued).
    """

    __slots__ = ("zone_rows", "n_rows", "misaligned", "_tests", "_alive")

    def __init__(self, zone_rows: int, n_rows: int,
                 tests: Sequence[Tuple[ZoneMap, object]],
                 misaligned: int = 0):
        self.zone_rows = zone_rows
        self.n_rows = n_rows
        # Zone maps the planner had to drop because their geometry could
        # not be aligned with the chosen zone size (or their row count
        # disagreed with the fact table).  Dropping a test only loses
        # pruning, never soundness; the executor surfaces the count as
        # ``engine.storage.zone_misaligned``.
        self.misaligned = misaligned
        self._tests = list(tests)
        self._alive: Optional[np.ndarray] = None

    # -- verdicts --------------------------------------------------------
    def survivors(self) -> np.ndarray:
        """Boolean per-zone survival vector (computed once)."""
        if self._alive is None:
            n_zones = max(1, -(-self.n_rows // self.zone_rows))
            alive = np.ones(n_zones, dtype=bool)
            for zone_map, test in self._tests:
                if zone_map.n_zones != n_zones:
                    # Defensive: a map whose zone count disagrees with the
                    # scan geometry would index out of bounds (or worse,
                    # silently mis-prune).  Drop it, counted.
                    self.misaligned += 1
                    continue
                test.apply(alive, zone_map.mins, zone_map.maxs)  # type: ignore[attr-defined]
            self._alive = alive
        return self._alive

    @property
    def zones_checked(self) -> int:
        return len(self.survivors())

    @property
    def zones_pruned(self) -> int:
        return int((~self.survivors()).sum())

    @property
    def rows_pruned(self) -> int:
        alive = self.survivors()
        pruned = 0
        for zone in np.flatnonzero(~alive):
            lo = int(zone) * self.zone_rows
            pruned += min(lo + self.zone_rows, self.n_rows) - lo
        return pruned

    def survival_fraction(self) -> float:
        if self.n_rows == 0:
            return 1.0
        return (self.n_rows - self.rows_pruned) / self.n_rows

    def surviving_row_ranges(self) -> Ranges:
        """Coalesced ``[lo, hi)`` ranges of surviving rows.

        ``None`` means nothing was pruned (callers skip the gather layer
        entirely); an empty list means every zone was pruned.
        """
        alive = self.survivors()
        if alive.all():
            return None
        ranges: List[Tuple[int, int]] = []
        for zone in np.flatnonzero(alive):
            lo = int(zone) * self.zone_rows
            hi = min(lo + self.zone_rows, self.n_rows)
            if ranges and ranges[-1][1] == lo:
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
        return ranges

    def range_may_match(self, lo: int, hi: int) -> bool:
        """Whether any surviving zone overlaps fact rows ``[lo, hi)``."""
        if hi <= lo:
            return False
        alive = self.survivors()
        z0 = lo // self.zone_rows
        z1 = min((hi - 1) // self.zone_rows, len(alive) - 1)
        return bool(alive[z0:z1 + 1].any())


def plan_zone_pruning(
    catalog: object,
    fact: object,
    fact_name: str,
    predicates: Sequence[object],
    joins: Sequence[object],
) -> Optional[ZonePruner]:
    """Build the zone pruner of one scan, or ``None`` when nothing applies.

    Two kinds of predicate prune:

    * **fact-resident** predicates test the fact column's own zones;
    * **dimension** predicates are mapped through the star join: rows that
      match carry a foreign key inside the ``[min, max]`` range of the
      matching dimension keys, so the FK column's zones are tested against
      that range.  (A zone outside the range provably holds no matching
      row; a zone inside may still hold non-matching ones — the mask
      handles those, pruning only needs the one-sided guarantee.)

    Shared by the executor (which applies it) and the cost model / flow
    analyzer (which predict it), so the planner and the engine always see
    the same pruning.
    """
    zone_map_of = getattr(fact, "zone_map", None)
    if zone_map_of is None or not getattr(fact, "has_zone_maps", False):
        return None
    joins_by_table: Dict[str, object] = {
        join.table: join for join in joins  # type: ignore[attr-defined]
    }
    candidates: List[Tuple[ZoneMap, object]] = []
    misaligned = 0
    n_rows = len(fact)  # type: ignore[arg-type]
    for cp in predicates:
        table = cp.table  # type: ignore[attr-defined]
        if table in (FACT, fact_name):
            zone_map = zone_map_of(cp.column)  # type: ignore[attr-defined]
            if zone_map is None:
                continue
            test = predicate_zone_test(cp.predicate)  # type: ignore[attr-defined]
            if test is None:
                continue
        else:
            join = joins_by_table.get(table)
            if join is None:
                continue
            zone_map = zone_map_of(join.fact_fk)  # type: ignore[attr-defined]
            if zone_map is None:
                continue
            try:
                dimension = catalog.table(table)  # type: ignore[attr-defined]
                dim_mask = cp.predicate.mask(  # type: ignore[attr-defined]
                    dimension.column(cp.column)  # type: ignore[attr-defined]
                )
            except Exception:
                continue
            if not dim_mask.any():
                test = NeverZoneTest()
            else:
                keys = dimension.column(join.dim_key)[dim_mask]  # type: ignore[attr-defined]
                test = RangeZoneTest(keys.min(), keys.max())
        if zone_map.n_rows != n_rows:
            # A map built for a different row count (stale, truncated, or
            # saved under different geometry) cannot be trusted for this
            # scan: its zone indexes would not line up with fact rows.
            # Drop the test — pruning degrades, soundness does not.
            misaligned += 1
            continue
        candidates.append((zone_map, test))
    if not candidates:
        if misaligned:
            return ZonePruner(
                DEFAULT_ZONE_ROWS, n_rows, [], misaligned=misaligned
            )
        return None
    # All tests must share one zone geometry (the survival vector has one
    # zone size).  Pick the coarsest among the candidates and re-chunk
    # the finer maps up to it; maps whose size does not divide it are
    # dropped, counted — never silently mis-pruned.
    zone_rows = max(zone_map.zone_rows for zone_map, _ in candidates)
    tests: List[Tuple[ZoneMap, object]] = []
    for zone_map, test in candidates:
        rechunked = zone_map.rechunk(zone_rows)
        if rechunked is None:
            misaligned += 1
            continue
        tests.append((rechunked, test))
    if not tests and not misaligned:
        return None
    return ZonePruner(zone_rows, n_rows, tests, misaligned=misaligned)

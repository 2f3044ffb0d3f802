"""Group-by factorization and aggregation kernels.

The engine's group-by pipeline reduces a multi-column key to dense integer
group ids and folds each measure per group with :func:`aggregate` — the
one sum/count/min/max loop every scan, morsel merge, spill merge and cache
roll-up goes through.  :func:`fold_codes` is the group-by fold over
dictionary codes (a counting pass for small key spaces, one packed-key
stable sort, :func:`sort_groups`, for large ones); :func:`match_unique` is
the equality join over coded keys built on the same sort.  Two
factorizations of raw columns are provided:

* :func:`factorize_numpy` — the production kernel: per-column ``np.unique``
  encoding combined into a single integer key, factorised once more.  Fully
  vectorised; this is what makes pushed gets fast.
* :func:`factorize_python` — a dict-based row-at-a-time reference kernel.
  Semantically identical, used (a) as an oracle in tests and (b) by the
  kernel ablation benchmark to quantify what vectorisation buys.

Both return ``(group_ids, group_count, first_row_of_group)`` where
``first_row_of_group[g]`` is a representative row of group ``g``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.errors import EngineError


def encode_column(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense integer codes of one column plus its cardinality."""
    uniques, codes = np.unique(column, return_inverse=True)
    return codes.astype(np.int64, copy=False), len(uniques)


def dictionary_encode(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, dictionary)`` of a column: sorted distinct values, indexes.

    ``dictionary[codes]`` equals the column, as for a stored column's
    ``Table.dictionary``.  Object columns are hashed once per row and only
    their distinct values sorted — comparison-sorting every Python string
    costs several times the hash pass.
    """
    if column.dtype != object:
        dictionary, codes = np.unique(column, return_inverse=True)
        return narrow_codes(codes, len(dictionary)), dictionary
    mapping: Dict[object, int] = {}
    setdefault = mapping.setdefault
    first_seen = np.fromiter(
        (setdefault(value, len(mapping)) for value in column),
        dtype=np.int64,
        count=len(column),
    )
    distinct = np.fromiter(mapping, dtype=object, count=len(mapping))
    dictionary, rank = np.unique(distinct, return_inverse=True)
    return narrow_codes(rank[first_seen], len(dictionary)), dictionary


def sums_exactly(values: np.ndarray) -> bool:
    """Whether summing these values is exact in float64.

    Integer-valued floats add exactly while every intermediate sum stays
    below 2**53, so integral measures (quantities, counts, money in
    integral units) aggregate bit-identically in any association order.
    Fractional values do not — callers must fall back to the one
    canonical summation order (a cold scan) instead.
    """
    if len(values) == 0:
        return True
    floats = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(floats)):
        return False
    if np.any(floats != np.trunc(floats)):
        return False
    bound = float(np.abs(floats).max()) * len(floats)
    return bound < 2.0**53


def sort_groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable sort of non-negative integer keys into runs of equal keys.

    Returns ``(order, starts)``: ``keys[order]`` is ascending with equal
    keys in row order, and ``starts`` holds the sorted position where each
    run of equal keys begins — so ``order[starts]`` is every distinct
    key's first row, in key order.

    The row number is packed under the key, ``(key << bits) | row`` with
    ``bits`` the width of the largest row number, and the packed words are
    sorted once: they are all distinct, so any sort of them is stable by
    construction, and the order and the sorted keys are read back off the
    low and high bits.  Keys too wide to share 63 bits with a row number
    take ``argsort(kind="stable")`` instead — same result, slower.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bits = (n - 1).bit_length()
    if int(keys.max()).bit_length() + bits <= 63:
        packed = np.left_shift(keys, bits, dtype=np.int64)
        packed |= np.arange(n, dtype=np.int64)
        packed.sort()
        order = packed & ((1 << bits) - 1)
        sorted_keys = np.right_shift(packed, bits, out=packed)
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return order, np.flatnonzero(boundary)


def match_unique(probe: np.ndarray, build: np.ndarray) -> np.ndarray:
    """The ``build`` row holding each ``probe`` key, ``-1`` where none does.

    The equality join of two coded key columns: the build side is sorted
    once (:func:`sort_groups`) and every probe key is binary-searched in
    it.  Build keys must be unique — a repeated one raises, because a
    probe row would have more than one partner.
    """
    order, starts = sort_groups(build)
    if len(starts) < len(build):
        raise EngineError(
            "join key is not unique on the right side; "
            "use multi=True for fan-in partial joins"
        )
    if not len(build):
        return np.full(len(probe), -1, dtype=np.int64)
    sorted_keys = build[order]
    position = np.minimum(np.searchsorted(sorted_keys, probe), len(build) - 1)
    return np.where(sorted_keys[position] == probe, order[position], -1)


def narrow_codes(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """Dictionary codes in the narrowest integer type that holds them.

    Unsigned types only up to 16 bits: mixed with ``int64`` arithmetic
    they promote to ``int64``, never to float.  Fold them into an
    ``int64`` accumulator (``acc * cardinality + codes``), never multiply
    them by a Python int directly — that stays in the narrow type.
    """
    if cardinality <= 1 << 8:
        return codes.astype(np.uint8, copy=False)
    if cardinality <= 1 << 16:
        return codes.astype(np.uint16, copy=False)
    if cardinality <= 1 << 31:
        return codes.astype(np.int32, copy=False)
    return codes


def fold_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold pre-encoded ``(codes, cardinality)`` columns into dense group ids.

    This is the production group-by fold: per-column integer codes are
    combined into one lexicographic key, factorised once more.  Returns
    ``(group_ids, keys, first_row_of_group)`` where ``keys`` holds each
    group's folded key, ascending — group ids follow the combined-code
    sort order, i.e. the lexicographic order of the key columns' code
    order — and each group's first row is its earliest.  With no grouping
    columns everything is one group (complete aggregation).

    When the combined key space is small relative to the row count the
    factorisation is a counting pass (``np.bincount``), O(n + key_space);
    otherwise it is one stable sort of the folded key (:func:`sort_groups`).
    Both give the same sorted-key group order and first-occurrence
    representatives.
    """
    if not code_columns:
        group_ids = np.zeros(n_rows, dtype=np.int64)
        first = np.zeros(1 if n_rows else 0, dtype=np.int64)
        return group_ids, first, first
    combined = np.zeros(len(code_columns[0][0]), dtype=np.int64)
    key_space = 1
    for codes, cardinality in code_columns:
        combined = combined * cardinality + codes
        key_space *= max(1, int(cardinality))
    if combined.size and key_space <= max(1 << 16, 2 * combined.size):
        present = np.flatnonzero(np.bincount(combined, minlength=key_space))
        lookup = np.empty(key_space, dtype=np.int64)
        lookup[present] = np.arange(len(present), dtype=np.int64)
        group_ids = lookup[combined]
        # reversed assignment leaves each slot holding its first occurrence
        first = np.empty(len(present), dtype=np.int64)
        first[group_ids[::-1]] = np.arange(
            combined.size - 1, -1, -1, dtype=np.int64
        )
        return group_ids, present, first
    order, starts = sort_groups(combined)
    first = order[starts]
    run = np.zeros(len(order), dtype=np.int64)
    run[starts[1:]] = 1
    group_ids = np.empty(len(order), dtype=np.int64)
    group_ids[order] = np.cumsum(run, out=run)
    return group_ids, combined[first], first


def combine_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """:func:`fold_codes` for callers that need no keys.

    Returns ``(group_ids, group_count, first_row_of_group)``.
    """
    group_ids, keys, first = fold_codes(code_columns, n_rows)
    return group_ids, len(keys), first


def aggregate(
    group_ids: np.ndarray, group_count: int, measure: np.ndarray, op: str
) -> np.ndarray:
    """Aggregate one measure column per group (``measure`` unused by count)."""
    measure = np.asarray(measure, dtype=np.float64)
    if op == "sum":
        return np.bincount(group_ids, weights=measure, minlength=group_count)
    if op == "count":
        return np.bincount(group_ids, minlength=group_count).astype(np.float64)
    if op == "avg":
        totals = np.bincount(group_ids, weights=measure, minlength=group_count)
        counts = np.bincount(group_ids, minlength=group_count)
        with np.errstate(divide="ignore", invalid="ignore"):
            return totals / counts
    if op == "min":
        out = np.full(group_count, np.inf)
        np.minimum.at(out, group_ids, measure)
        return out
    if op == "max":
        out = np.full(group_count, -np.inf)
        np.maximum.at(out, group_ids, measure)
        return out
    raise EngineError(f"unsupported aggregation operator {op!r}")


def factorize_numpy(
    columns: Sequence[np.ndarray], n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Vectorised multi-column factorization.

    Encodes each column through :func:`encode_column` and delegates the fold
    to :func:`combine_codes` — the same kernel the engine executor feeds
    with dictionary codes, so the ablation benchmark measures the real
    production path.
    """
    return combine_codes([encode_column(column) for column in columns], n_rows)


def factorize_python(
    columns: Sequence[np.ndarray], n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Dict-based reference factorization (row at a time).

    Group ids are assigned by *sorted key order* so the output is
    exchangeable with :func:`factorize_numpy`.
    """
    if not columns:
        group_ids = np.zeros(n_rows, dtype=np.int64)
        first = np.zeros(1 if n_rows else 0, dtype=np.int64)
        return group_ids, (1 if n_rows else 0), first
    length = len(columns[0])
    keys: List[Tuple[object, ...]] = list(zip(*columns))
    first_seen: Dict[Tuple[object, ...], int] = {}
    for row, key in enumerate(keys):
        if key not in first_seen:
            first_seen[key] = row
    ordered = sorted(first_seen)
    slot_of = {key: slot for slot, key in enumerate(ordered)}
    group_ids = np.fromiter(
        (slot_of[key] for key in keys), dtype=np.int64, count=length
    )
    first = np.fromiter(
        (first_seen[key] for key in ordered), dtype=np.int64, count=len(ordered)
    )
    return group_ids, len(ordered), first

"""Group-by factorization and aggregation kernels.

The engine's group-by pipeline reduces a multi-column key to dense integer
group ids and folds each measure per group with :func:`aggregate` — the
one sum/count/min/max loop every scan, morsel merge, spill merge and cache
roll-up goes through.  Two factorizations are provided:

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


def fold_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold pre-encoded ``(codes, cardinality)`` columns into dense group ids.

    This is the production group-by fold: per-column integer codes are
    combined into one lexicographic key, factorised once more.  Returns
    ``(group_ids, keys, first_row_of_group)`` where ``keys`` holds each
    group's folded key, ascending — group ids follow the combined-code
    sort order, i.e. the lexicographic order of the key columns' code
    order.  With no grouping columns everything is one group (complete
    aggregation).

    When the combined key space is small relative to the row count the
    factorisation runs through a counting pass (``np.bincount``) instead of
    ``np.unique``'s sort — O(n + key_space) versus O(n log n), with the same
    sorted-key group order and first-occurrence representatives.
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
    uniques, first, group_ids = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return group_ids.astype(np.int64, copy=False), uniques, first


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
    keys: List[Tuple] = list(zip(*columns))
    first_seen: Dict[Tuple, int] = {}
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

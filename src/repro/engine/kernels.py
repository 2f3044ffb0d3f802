"""Group-by factorization and aggregation kernels.

The engine's group-by pipeline reduces a multi-column key to dense integer
group ids and folds each measure per group with :func:`aggregate` — the
one sum/count/min/max loop every scan, morsel merge, spill merge and cache
roll-up goes through, with :data:`REAGGREGATION_OPS` saying how partials
re-aggregate.  :func:`fold_codes` is the group-by fold over
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

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


def sort_groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort of non-negative ``int64`` keys into runs of equal keys.

    Sorts **in place**: ``keys`` is the caller's scratch buffer, and on
    return it holds the keys in ascending order (pass a copy to keep
    them).  Returns ``(order, run_start, keys)``: the original
    ``keys[order]`` is ascending with equal keys in row order, and the
    boolean ``run_start`` marks each sorted position where a run of equal
    keys begins — so ``order[run_start]`` is every distinct key's first
    row and ``keys[run_start]`` the distinct keys, in key order.

    The row number is packed under the key, ``(key << bits) | row`` with
    ``bits`` the width of the largest row number, and the packed words are
    sorted once: they are all distinct, so any sort of them is stable by
    construction, and the order and the sorted keys are read back off the
    low and high bits.  Keys too wide to share 63 bits with a row number
    take ``argsort(kind="stable")`` instead — same result, slower.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), keys
    bits = (n - 1).bit_length()
    if int(keys.max()).bit_length() + bits <= 63:
        order = np.arange(n, dtype=np.int64)
        np.left_shift(keys, bits, out=keys)
        keys |= order
        keys.sort()
        np.bitwise_and(keys, (1 << bits) - 1, out=order)
        np.right_shift(keys, bits, out=keys)
    else:
        order = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    return order, run_start, keys


def match_unique(probe: np.ndarray, build: np.ndarray) -> np.ndarray:
    """The ``build`` row holding each ``probe`` key, ``-1`` where none does.

    The equality join of two coded key columns: every probe key is
    binary-searched in the build side.  A strictly ascending build — the
    folded keys of a group-by result come out that way — is searched as
    it is; any other is sorted once (:func:`sort_groups`, on a copy).
    Build keys must be unique — a repeated one raises, because a probe
    row would have more than one partner.
    """
    if not len(build):
        return np.full(len(probe), -1, dtype=np.int64)
    order: Optional[np.ndarray] = None
    sorted_keys = build
    if not np.all(build[1:] > build[:-1]):
        order, run_start, sorted_keys = sort_groups(build.astype(np.int64))
        if not run_start.all():
            raise EngineError(
                "join key is not unique on the right side; "
                "use multi=True for fan-in partial joins"
            )
    position = np.minimum(np.searchsorted(sorted_keys, probe), len(build) - 1)
    found = sorted_keys[position] == probe
    return np.where(found, position if order is None else order[position], -1)


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


class Rollup(NamedTuple):
    """A part-of function on dictionary codes (a coded roll-up).

    ``coarse[lut[code]]`` is the parent of the fine member ``fine[code]``.
    Both dictionaries are sorted and duplicate-free; the engine builds
    them from one table's ``Table.dictionary_values``, the dictionaries
    its results carry.
    """

    fine: np.ndarray
    lut: np.ndarray  # fine code -> coarse code, narrow (see narrow_codes)
    coarse: np.ndarray

    @classmethod
    def of(
        cls,
        fine: np.ndarray,
        fine_codes: np.ndarray,
        coarse: np.ndarray,
        coarse_codes: np.ndarray,
    ) -> "Optional[Rollup]":
        """The roll-up one table's coded rows define: one integer scatter.

        ``None`` when some fine member has two parents among the rows —
        the part-of order is then not a function and no roll-up exists.
        """
        lut = np.zeros(len(fine), dtype=np.int64)
        lut[fine_codes] = coarse_codes
        if not np.array_equal(lut[fine_codes], coarse_codes):
            return None
        return cls(fine, narrow_codes(lut, len(coarse)), coarse)

    def lut_for(self, dictionary: np.ndarray) -> Optional[np.ndarray]:
        """The lookup table indexed by codes of ``dictionary``.

        The fine dictionary itself takes :attr:`lut` as it is; any other
        sorted dictionary is mapped onto it once, by binary search over
        its distinct members.  ``None`` when one of them is no fine
        member.  Raises ``TypeError`` for members that do not compare.
        """
        if dictionary is self.fine:
            return self.lut
        position = np.minimum(
            np.searchsorted(self.fine, dictionary), len(self.fine) - 1
        )
        if not np.array_equal(self.fine[position], dictionary):
            return None
        lut: np.ndarray = self.lut[position]
        return lut


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

    When the combined key space is at most four times the row count (or
    2**16) the factorisation is a counting pass — present keys marked in
    a ``bool`` array — O(n + key_space); otherwise it is one stable sort
    of the folded key (:func:`sort_groups`).  Both give the same
    sorted-key group order and first-occurrence representatives.  Four is
    where the counting pass, whose lookup table costs 8 bytes a key,
    stops beating the sort (measured sweep in docs/performance.md).

    Each fresh per-row array costs a pass and, at 10**5 rows, the page
    faults of memory the allocator has just handed back to the system,
    so the per-row work runs in one ``int64`` buffer owned here: the
    columns fold into it in place, :func:`sort_groups` packs, sorts and
    unpacks it in place, and the spent keys take the ranks.
    """
    if not code_columns:
        group_ids = np.zeros(n_rows, dtype=np.int64)
        first = np.zeros(1 if n_rows else 0, dtype=np.int64)
        return group_ids, first, first
    combined = np.array(code_columns[0][0], dtype=np.int64)
    key_space = max(1, int(code_columns[0][1]))
    for codes, cardinality in code_columns[1:]:
        combined *= cardinality
        combined += codes
        key_space *= max(1, int(cardinality))
    n = combined.size
    if n and key_space <= max(1 << 16, 4 * n):
        seen = np.zeros(key_space, dtype=bool)
        seen[combined] = True
        present = np.flatnonzero(seen)
        lookup = np.empty(key_space, dtype=np.int64)
        lookup[present] = np.arange(len(present), dtype=np.int64)
        group_ids = lookup[combined]
        # reversed assignment leaves each slot holding its first occurrence
        first = np.empty(len(present), dtype=np.int64)
        first[group_ids[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        return group_ids, present, first
    order, run_start, sorted_keys = sort_groups(combined)
    starts = np.flatnonzero(run_start)
    keys = sorted_keys[starts]
    first = order[starts]
    # a sorted position's group id is the number of runs begun before it
    run_start[:1] = False
    group_ids = np.empty(n, dtype=np.int64)
    group_ids[order] = np.cumsum(run_start, out=sorted_keys)
    return group_ids, keys, first


def combine_codes(
    code_columns: "Sequence[Tuple[np.ndarray, int]]", n_rows: int
) -> Tuple[np.ndarray, int, np.ndarray]:
    """:func:`fold_codes` for callers that need no keys.

    Returns ``(group_ids, group_count, first_row_of_group)``.
    """
    group_ids, keys, first = fold_codes(code_columns, n_rows)
    return group_ids, len(keys), first


REAGGREGATION_OPS = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}
"""How each distributive operator's partials re-aggregate (Gray et al.):
sum, min and max as themselves, count by summing the counts."""


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

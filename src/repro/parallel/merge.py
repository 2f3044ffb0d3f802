"""Deterministic, partition-order-stable merge of morsel partials.

The merge is where the bit-identity guarantee is discharged.  Morsel
results arrive **in morsel index order** (the pool's ``map`` preserves
task order regardless of completion order); their key arrays are
concatenated in that order and factorised once with the engine's own
group-by fold (:func:`~repro.engine.kernels.fold_codes`), whose sorted-key
group order reproduces exactly the group order a single pass over the
whole table produces.  Partials are then re-aggregated with the engine's
own :func:`~repro.engine.kernels.aggregate` kernel:

* ``sum`` / ``count`` — re-added.  Exact because the engine only routes a
  measure here after it passed the float-exactness gate
  (:func:`repro.engine.kernels.sums_exactly`): integral float64 values
  whose total magnitude stays below 2**53 add exactly in *any*
  association order, so per-morsel subtotals plus this reduction equal
  the row-order sum to the last bit.  Counts are exact integers.
* ``min`` / ``max`` — associative and commutative, hence
  order-insensitive.

One morsel needs no merge — and no gate: its partials are the row-order
aggregates themselves and pass through untouched.  ``avg`` never reaches
this module as a partial: the driver lowers it to a sum and a count
partial and divides the merged totals.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..engine.kernels import REAGGREGATION_OPS, aggregate, fold_codes
from .morsel import MorselResult


def merge_morsels(
    results: Sequence[MorselResult], ops: Sequence[str]
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Reduce per-morsel partials to global per-group aggregates.

    ``results`` must be in morsel index order; ``ops`` names the physical
    op of each partial slot (parallel to ``MorselTask.aggs``).  Returns
    the sorted distinct combined group keys and one merged array per op,
    aligned with the keys.
    """
    if not results:
        return np.empty(0, dtype=np.int64), [np.empty(0) for _ in ops]
    if len(results) == 1:
        return results[0].keys, list(results[0].partials)
    all_keys = np.concatenate([result.keys for result in results])
    key_space = int(all_keys.max()) + 1 if len(all_keys) else 1
    inverse, merged_keys, _ = fold_codes([(all_keys, key_space)], len(all_keys))
    return merged_keys, [
        aggregate(
            inverse,
            len(merged_keys),
            np.concatenate([result.partials[slot] for result in results]),
            REAGGREGATION_OPS[op],
        )
        for slot, op in enumerate(ops)
    ]


def decode_keys(
    merged_keys: np.ndarray, cardinalities: Sequence[int]
) -> List[np.ndarray]:
    """Unfold combined group keys back into per-column dictionary codes.

    Inverts the fold ``combined = (((c0) * card1 + c1) * card2 + c2)...``
    by peeling columns off the low end.  The decoded codes index each
    column's dictionary uniques, reconstructing the group coordinates —
    the dictionaries are global and a code is constant within a group.
    """
    if not cardinalities:
        return []
    codes: List[np.ndarray] = []
    remaining = np.asarray(merged_keys, dtype=np.int64)
    for cardinality in reversed(list(cardinalities)[1:]):
        remaining, code = np.divmod(remaining, cardinality)
        codes.append(code)
    codes.append(remaining)  # what is left is the leading column
    codes.reverse()
    return codes

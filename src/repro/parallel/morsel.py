"""Morsel tasks and the partial aggregator every fact pass runs.

A *morsel* is a selection of fact rows: the whole zone-pruned scan for a
serial pass, one contiguous ``[lo, hi)`` window of it for the parallel
and spill tiers.  The driver (the engine executor) gathers every per-row
input — foreign-key columns, fact-resident predicate columns, dictionary
codes, measures — into one :class:`MorselTask` per morsel;
:func:`run_morsel` then performs the whole scan pipeline on it: semi-join
position resolution, predicate masking, group-key folding, and partial
aggregation through the engine's one grouping kernel pair
(:func:`~repro.engine.kernels.fold_codes` /
:func:`~repro.engine.kernels.aggregate`), returning a
:class:`MorselResult` of *global* combined group keys with per-key
partials.

Everything in a task is either a NumPy array (a zero-copy view for plain
columns) or a small shared object (a key index, a pre-computed dimension
mask); tasks treat predicates and key indexes as opaque.

Determinism contract (see :mod:`repro.parallel.merge`): the combined
group keys a worker emits are *globally* comparable because every code
column is encoded against the full table's dictionary before slicing —
morsels never build private dictionaries.  A group's key is the
``combined * cardinality + codes`` fold of its per-column codes, the same
integer no matter which morsel(s) it appears in, and both the per-morsel
group order and the merged sorted-key order are that key's order.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# Safe only because ``repro/__init__`` reaches ``repro.engine`` before
# ``repro.parallel`` (the executor imports this package back).
from ..engine.kernels import aggregate, fold_codes


def morsel_ranges(n_rows: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Split ``n_rows`` into contiguous ``[lo, hi)`` ranges."""
    if n_rows <= 0:
        return []
    morsel_rows = max(int(morsel_rows), 1)
    return [
        (lo, min(lo + morsel_rows, n_rows)) for lo in range(0, n_rows, morsel_rows)
    ]


class JoinSpec(NamedTuple):
    """One semi-join leg of a morsel: resolve FK values to dim positions."""

    alias: str  # dimension alias, referenced by dim predicates / key specs
    index: object  # the dimension's KeyIndex (opaque; exposes positions_of)
    fk_values: np.ndarray  # this morsel's slice of the fact FK column


class FactPredicate(NamedTuple):
    """A predicate over a fact-resident column (pre-sliced)."""

    predicate: object  # opaque; exposes mask(values) -> bool array
    values: np.ndarray


class DimPredicate(NamedTuple):
    """A predicate over a dimension attribute, pre-evaluated per dim row.

    The (tiny) dimension-side mask is computed once by the driver and
    shared by every morsel; the worker just propagates it through the
    morsel's FK positions — the same semi-join the serial path performs.
    """

    alias: str
    dim_mask: np.ndarray


class KeySpec(NamedTuple):
    """One column of the group-by key, already dictionary-encoded.

    ``kind == "fact"``: ``codes`` is this morsel's slice of the fact
    column's global dictionary codes.  ``kind == "dim"``: ``codes`` is
    the *whole* dimension column's codes, gathered through the morsel's
    FK positions by the worker.
    """

    kind: str  # "fact" | "dim"
    alias: Optional[str]  # dimension alias when kind == "dim"
    codes: np.ndarray
    cardinality: int


class AggSpec(NamedTuple):
    """One physical partial aggregate: op in {sum, count, min, max}.

    ``values`` is the morsel's measure slice (``None`` for count).  The
    driver lowers logical aggregates onto these: ``avg`` becomes a sum
    partial plus a count partial, divided after the merge.
    """

    op: str
    values: Optional[np.ndarray]


class MorselTask(NamedTuple):
    index: int
    # The morsel's row window; only ``hi - lo`` (its row count) is read,
    # so the serial pass over several surviving ranges uses ``0, n``.
    lo: int
    hi: int
    joins: Tuple[JoinSpec, ...]
    fact_predicates: Tuple[FactPredicate, ...]
    dim_predicates: Tuple[DimPredicate, ...]
    keys: Tuple[KeySpec, ...]
    aggs: Tuple[AggSpec, ...]


class MorselResult(NamedTuple):
    index: int
    keys: np.ndarray  # sorted distinct combined group keys of this morsel
    partials: List[np.ndarray]  # one array per AggSpec, aligned with keys
    rows_in: int
    rows_matched: int
    seconds: float
    # The keys still unfolded, one code array per KeySpec: a lone morsel's
    # groups are final, and reading these spares the merge-side decode.
    codes: Sequence[np.ndarray] = ()


def semijoin(
    task: MorselTask,
) -> "Tuple[Dict[str, np.ndarray], Optional[np.ndarray]]":
    """Resolve FK positions and fold every predicate into one row mask.

    Dimension predicates were evaluated once per dimension row by the
    driver; here they are only propagated through the FK positions.
    """
    positions = {
        alias: index.positions_of(fk_values)
        for alias, index, fk_values in task.joins
    }
    mask: Optional[np.ndarray] = None
    for predicate, values in task.fact_predicates:
        part = predicate.mask(values)
        mask = part if mask is None else (mask & part)
    for alias, dim_mask in task.dim_predicates:
        part = dim_mask[positions[alias]]
        mask = part if mask is None else (mask & part)
    return positions, mask


def partial_aggregate(
    task: MorselTask,
    positions: "Dict[str, np.ndarray]",
    mask: Optional[np.ndarray],
) -> MorselResult:
    """Group the masked rows and aggregate every partial spec.

    Dimension-sourced key columns gather the (small) dimension's codes
    through the FK positions, so per-fact-row work stays integer-only.
    The mask becomes row numbers once: every per-row column is then a
    gather, where boolean indexing would branch on every row again.
    """
    rows_in = task.hi - task.lo
    rows = None if mask is None else np.flatnonzero(mask)
    n = rows_in if rows is None else len(rows)
    code_columns = []
    for kind, alias, codes, cardinality in task.keys:
        if kind == "fact":
            column_codes = codes if rows is None else codes[rows]
        else:
            pos = positions[alias]
            column_codes = codes[pos if rows is None else pos[rows]]
        code_columns.append((column_codes, cardinality))
    group_ids, keys, first = fold_codes(code_columns, n)

    partials: List[np.ndarray] = []
    for op, values in task.aggs:
        if values is None:
            values = np.empty(0)
        elif rows is not None:
            values = values[rows]
        partials.append(aggregate(group_ids, len(keys), values, op))
    return MorselResult(
        task.index, keys, partials, rows_in, n, 0.0,
        [column_codes[first] for column_codes, _ in code_columns],
    )


def run_morsel(task: MorselTask) -> MorselResult:
    """Execute one morsel: semi-join, mask, fold, partial-aggregate.

    Runs entirely on task-local arrays; emits no traces and touches no
    shared mutable state, so it is safe on pool threads.
    """
    start = time.perf_counter()
    result = partial_aggregate(task, *semijoin(task))
    return result._replace(seconds=time.perf_counter() - start)

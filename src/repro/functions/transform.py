"""Holistic transformations (Section 3.2, logical operator ``⊡``).

These "require a holistic scan of the entire cube and cannot produce the new
value on a per-cell basis": min-max normalisation, z-scoring, ranking, and
percentage-of-total.  They take one or more columns and return a column
whose every value may depend on all input values.

NaN handling: NaNs (from ``assess*`` outer joins) are ignored when computing
the holistic statistics and propagate to the output.
"""

from __future__ import annotations

import math

import numpy as np

from .registry import FunctionRegistry


def min_max_norm(a: np.ndarray) -> np.ndarray:
    """Min-max normalisation ``(a - min) / (max - min)`` (Listing 2).

    A constant column maps to all zeros (rather than dividing by zero),
    which keeps downstream range labelers well defined.
    """
    a = np.asarray(a, dtype=np.float64)
    low = np.nanmin(a) if a.size else np.nan
    high = np.nanmax(a) if a.size else np.nan
    span = high - low
    if not np.isfinite(span) or span == 0:
        out = np.zeros_like(a)
        out[np.isnan(a)] = np.nan
        return out
    return (a - low) / span


def signed_min_max_norm(a: np.ndarray) -> np.ndarray:
    """Min-max normalisation into ``[-1, 1]`` preserving the sign of 0.

    Example 3.3 labels "the min-max normalized difference" with ranges over
    ``[-1, 1]``; this variant divides by the largest absolute value so that
    a zero difference stays at 0 and the 5-star scale is meaningful.
    """
    a = np.asarray(a, dtype=np.float64)
    scale = np.nanmax(np.abs(a)) if a.size else np.nan
    if not np.isfinite(scale) or scale == 0:
        out = np.zeros_like(a)
        out[np.isnan(a)] = np.nan
        return out
    return a / scale


def min_max_norm_sym(a: np.ndarray) -> np.ndarray:
    """Min-max normalisation onto ``[-1, 1]``: ``2·(a - min)/(max - min) - 1``.

    This is the scaling Example 3.3 applies before the 5-star labeling: the
    smallest difference maps to -1 (one star) and the largest to +1 (five
    stars).
    """
    return 2.0 * min_max_norm(a) - 1.0


def zscore(a: np.ndarray) -> np.ndarray:
    """Standard score ``(a - mean) / std`` (population std).

    A zero standard deviation maps to all zeros.

    The mean and the variance are exactly rounded sums (``math.fsum``)
    divided by the count, so, as for ``percOfTotal``, neither depends on
    the order the cells arrive in: every plan must agree to the bit.
    NaNs are skipped; an infinite value, or a sum beyond the float range,
    leaves the standard deviation undefined, as it was under
    ``np.nanstd``.
    """
    a = np.asarray(a, dtype=np.float64)
    values = a[~np.isnan(a)]
    mean = std = np.nan
    if len(values) and np.isfinite(values).all():
        try:
            mean = math.fsum(values.tolist()) / len(values)
        except OverflowError:  # the exact sum leaves the float range
            pass
        else:
            deviations = values - mean
            squares = (deviations * deviations).tolist()
            std = math.sqrt(math.fsum(squares) / len(values))
    if not np.isfinite(std) or std == 0:
        out = np.zeros_like(a)
        out[np.isnan(a)] = np.nan
        return out
    return (a - mean) / std


def perc_of_total(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``percOfTotal`` of Example 4.3: per cell, ``a / sum(b)``.

    "operates on a tuple of two parameters a and b and computes, for each
    cell, the ratio between a and the sum of b over all cells."

    The total is exactly rounded (``math.fsum``), so it does not depend on
    the order the cells arrive in — NP, JOP and POP deliver the same cells
    in different orders and must agree to the bit.  NaNs are skipped; an
    infinite value or an overflowing sum gives ``np.nansum``'s total.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.isinf(b).any():
        total = float(np.nansum(b))  # ±inf, or nan for inf - inf
    else:
        try:
            total = math.fsum(b[~np.isnan(b)].tolist())
        except OverflowError:  # the exact sum leaves the float range
            total = float(np.nansum(b))
    if total == 0:
        out = np.full_like(a, np.nan)
        return out
    return a / total


def rank(a: np.ndarray) -> np.ndarray:
    """Dense descending rank: the largest value gets rank 1.

    Ties share a rank.  NaNs receive NaN ranks.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.full(a.shape, np.nan)
    valid = ~np.isnan(a)
    values = a[valid]
    if values.size == 0:
        return out
    distinct = np.unique(values)[::-1]
    positions = {value: i + 1 for i, value in enumerate(distinct)}
    out[valid] = np.fromiter((positions[v] for v in values), dtype=np.float64,
                             count=values.size)
    return out


def percentile_rank(a: np.ndarray) -> np.ndarray:
    """Fraction of non-NaN values ≤ each value, in ``(0, 1]``."""
    a = np.asarray(a, dtype=np.float64)
    out = np.full(a.shape, np.nan)
    valid = ~np.isnan(a)
    values = a[valid]
    if values.size == 0:
        return out
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    counts = np.searchsorted(sorted_values, values, side="right")
    out[valid] = counts / values.size
    return out


def identity(a: np.ndarray) -> np.ndarray:
    """Pass-through (cell-wise): lets a statement label the raw value."""
    return np.asarray(a, dtype=np.float64)


def register_all(registry: FunctionRegistry) -> None:
    """Register every transformation into a registry."""
    registry.register("minMaxNorm", "holistic", min_max_norm, arity=1,
                      doc="(a - min) / (max - min)")
    registry.register("signedMinMaxNorm", "holistic", signed_min_max_norm, arity=1,
                      doc="a / max(|a|), in [-1, 1]")
    registry.register("minMaxNormSym", "holistic", min_max_norm_sym, arity=1,
                      doc="2*(a - min)/(max - min) - 1, in [-1, 1]")
    registry.register("zscore", "holistic", zscore, arity=1,
                      doc="(a - mean) / std")
    registry.register("percOfTotal", "holistic", perc_of_total, arity=2,
                      doc="a / sum(b)")
    registry.register("rank", "holistic", rank, arity=1,
                      doc="dense descending rank, best = 1")
    registry.register("percentileRank", "holistic", percentile_rank, arity=1,
                      doc="fraction of values <= a")
    registry.register("identity", "cell", identity, arity=1, doc="pass-through")

"""Abstract domains of the workload analyzer.

The flow analysis never executes a statement, so every runtime gate it
wants to predict must be re-derived from *catalog statistics* — compact
abstractions of stored columns — instead of the concrete values the
executor sees.  Three domains cover the gates:

* :class:`ColumnAbstract` — the float-exactness domain.  A measure
  column is abstracted to ``(finite, integral, max_abs, rows)``; that
  quadruple decides :func:`repro.engine.kernels.sums_exactly` for the
  full column *and* bounds it for every masked subset, so one abstraction
  soundly answers the parallel, fused and spill exactness gates.

* :class:`Interval` — cardinality/cost bounds.  Result cardinalities
  are bracketed by ``[0, min(fact_rows, ∏ level cardinalities)]``;
  arithmetic on intervals stays sound under the usual rules.

* :class:`StatsProvider` — the catalog reader that builds and caches the
  abstractions (per engine, per table/column), including the dictionary
  cardinalities the fused key-space overflow check multiplies.

Soundness convention: every predicate of these domains is *definite* —
``sum_exact() is True`` means the concrete gate provably passes; any
doubt (non-numeric column, missing table) must surface as ``False`` /
``UNKNOWN`` at the caller, never as an optimistic claim.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

import numpy as np

_EXACT_SUM_BOUND = 2.0 ** 53
"""Integer-valued float64 additions are exact while every intermediate
sum stays strictly below 2**53 — the same constant as
:func:`repro.engine.kernels.sums_exactly`."""


class Exactness(enum.Enum):
    """Three-valued verdict of the float-exactness domain."""

    EXACT = "exact"
    INEXACT = "inexact"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class ColumnAbstract:
    """The exactness abstraction of one stored numeric column."""

    __slots__ = ("finite", "integral", "max_abs", "rows")

    def __init__(
        self, finite: bool, integral: bool, max_abs: float, rows: int
    ) -> None:
        self.finite = finite
        self.integral = integral
        self.max_abs = max_abs
        self.rows = rows

    @classmethod
    def of(cls, values: np.ndarray) -> "ColumnAbstract":
        """Abstract a concrete column (one catalog scan, then cached)."""
        floats = np.asarray(values, dtype=np.float64)
        if len(floats) == 0:
            return cls(True, True, 0.0, 0)
        finite = bool(np.all(np.isfinite(floats)))
        integral = finite and not bool(np.any(floats != np.trunc(floats)))
        max_abs = float(np.abs(floats).max()) if finite else float("inf")
        return cls(finite, integral, max_abs, len(floats))

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def sum_exact(self) -> bool:
        """Statically proves ``sums_exactly(column)`` — and therefore
        ``sums_exactly(column[mask])`` for **every** row mask, since a
        subset can only shrink both ``max_abs`` and ``len``."""
        if self.rows == 0:
            return True
        return (
            self.finite
            and self.integral
            and self.max_abs * self.rows < _EXACT_SUM_BOUND
        )

    def verdict(self) -> Exactness:
        """The full-column gate as a three-valued verdict."""
        return Exactness.EXACT if self.sum_exact() else Exactness.INEXACT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnAbstract(finite={self.finite}, integral={self.integral}, "
            f"max_abs={self.max_abs}, rows={self.rows})"
        )


class Interval:
    """A sound ``[lo, hi]`` bound on a non-negative quantity."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = float(lo)
        self.hi = float(hi)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def scale(self, factor: float) -> "Interval":
        return Interval(self.lo * factor, self.hi * factor)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def cap(self, ceiling: float) -> "Interval":
        return Interval(min(self.lo, ceiling), min(self.hi, ceiling))

    def to_json(self) -> Dict[str, float]:
        return {"lo": self.lo, "hi": self.hi}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:g}, {self.hi:g}]"


class StatsProvider:
    """Catalog-statistics reader shared by one analysis run.

    Everything is cached per ``(table, column)``: the exactness
    abstraction of measure columns, dictionary cardinalities of level
    columns (the very numbers the executor's key-space overflow check
    multiplies), and whether a level's member domain encodes cleanly
    (uniform member type — mixed types make ``encode_column`` raise at
    runtime, so derivations over them stay UNKNOWN).
    """

    def __init__(self, engine: object) -> None:
        self.engine = engine
        self._columns: Dict[Tuple[str, str], Optional[ColumnAbstract]] = {}
        self._cardinalities: Dict[Tuple[str, str], Optional[int]] = {}
        self._encodable: Dict[Tuple[str, str], bool] = {}
        self._zone_maps: Dict[Tuple[str, str], Optional[object]] = {}

    # ------------------------------------------------------------------
    def _table(self, table_name: str) -> Optional[object]:
        try:
            return self.engine.catalog.table(table_name)  # type: ignore[attr-defined]
        except Exception:
            return None

    def column_abstract(
        self, table_name: str, column: str
    ) -> Optional[ColumnAbstract]:
        """The exactness abstraction, or ``None`` when unavailable."""
        key = (table_name, column)
        if key not in self._columns:
            abstract: Optional[ColumnAbstract] = None
            table = self._table(table_name)
            if table is not None:
                try:
                    abstract = ColumnAbstract.of(table.column(column))  # type: ignore[attr-defined]
                except Exception:
                    abstract = None
            self._columns[key] = abstract
        return self._columns[key]

    def cardinality(self, table_name: str, column: str) -> Optional[int]:
        """Dictionary cardinality of a stored column (``None`` unknown)."""
        key = (table_name, column)
        if key not in self._cardinalities:
            cardinality: Optional[int] = None
            table = self._table(table_name)
            if table is not None:
                try:
                    _, cardinality = table.dictionary(column)  # type: ignore[attr-defined]
                except Exception:
                    cardinality = None
            self._cardinalities[key] = cardinality
        return self._cardinalities[key]

    def encodable(self, table_name: str, column: str) -> bool:
        """Whether the column's members definitely encode (sort) cleanly."""
        key = (table_name, column)
        if key not in self._encodable:
            ok = False
            table = self._table(table_name)
            if table is not None:
                try:
                    np.unique(table.column(column))  # type: ignore[attr-defined]
                    ok = True
                except Exception:
                    ok = False
            self._encodable[key] = ok
        return self._encodable[key]

    def fact_rows(self, table_name: str) -> Optional[int]:
        table = self._table(table_name)
        if table is None:
            return None
        try:
            return len(table)  # type: ignore[arg-type]
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Zone-map statistics (the v2 column store's per-zone min/max)
    # ------------------------------------------------------------------
    def zone_map(self, table_name: str, column: str) -> Optional[object]:
        """The column's persisted zone map, or ``None`` when absent.

        Zone maps arrive with v2 column stores (or explicit
        ``Table.ensure_zone_maps``); they give the analyzer distinct-count
        and value-range bounds without scanning any stored data.
        """
        key = (table_name, column)
        if key not in self._zone_maps:
            zone_map: Optional[object] = None
            table = self._table(table_name)
            if table is not None:
                try:
                    zone_map = table.zone_map(column)  # type: ignore[attr-defined]
                except Exception:
                    zone_map = None
            self._zone_maps[key] = zone_map
        return self._zone_maps[key]

    def distinct_bound(self, table_name: str, column: str) -> Optional[int]:
        """A sound upper bound on the column's distinct count from its
        zone map (sum of per-zone distinct counts), without a scan."""
        zone_map = self.zone_map(table_name, column)
        if zone_map is None:
            return None
        try:
            return int(zone_map.distinct_bound_total())  # type: ignore[attr-defined]
        except Exception:
            return None

    def value_range(
        self, table_name: str, column: str
    ) -> Optional[Tuple[object, object]]:
        """The column's global ``(min, max)`` from its zone map."""
        zone_map = self.zone_map(table_name, column)
        if zone_map is None:
            return None
        try:
            lo, hi = zone_map.value_range()  # type: ignore[attr-defined]
        except Exception:
            return None
        if lo is None or hi is None:
            return None
        return lo, hi

    def predicate_feasible(
        self, table_name: str, column: str, predicate: object
    ) -> Optional[bool]:
        """Whether any stored row can satisfy the predicate.

        ``False`` is definite (the zone-map value range excludes every
        predicate member — the executor would prune the whole scan);
        ``True``/``None`` make no claim.  Sound for the same reason zone
        pruning is: a value outside ``[min, max]`` occurs in no zone.
        """
        bounds = self.value_range(table_name, column)
        if bounds is None:
            return None
        lo, hi = bounds
        try:
            op_name = str(getattr(getattr(predicate, "op", None), "name", ""))
            values = tuple(getattr(predicate, "values", ()))
            if op_name in ("EQ", "IN"):
                feasible = any(
                    bool(lo <= value) and bool(hi >= value) for value in values
                )
            elif op_name == "RANGE":
                feasible = bool(hi >= values[0]) and bool(lo <= values[1])
            else:
                return None
        except (TypeError, ValueError, IndexError):
            return None
        return True if feasible else False

"""Assessment results (Section 4.1, result contract).

For each cell of the target cube the result includes:

(i)   its coordinate,
(ii)  the value of the assessed measure ``m``,
(iii) the value of the benchmark measure ``m_B``,
(iv)  the value resulting from the comparison ``m_Δ``, and
(v)   the corresponding label ``m_λ``.

:class:`AssessResult` wraps the final result cube (whose schema is
``(H, ⟨m, m_B, m_Δ, m_λ⟩)``) and exposes the contract columns by role,
independently of their concrete names.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from .cube import Cube
from .groupby import Coordinate


class AssessedCell:
    """One row of an assessment result."""

    __slots__ = ("coordinate", "value", "benchmark", "comparison", "label")

    def __init__(
        self,
        coordinate: Coordinate,
        value: float,
        benchmark: float,
        comparison: float,
        label: Optional[str],
    ):
        self.coordinate = coordinate
        self.value = value
        self.benchmark = benchmark
        self.comparison = comparison
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssessedCell({self.coordinate!r}, m={self.value!r}, "
            f"m_B={self.benchmark!r}, m_Δ={self.comparison!r}, label={self.label!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssessedCell):
            return NotImplemented
        return (
            self.coordinate == other.coordinate
            and _float_eq(self.value, other.value)
            and _float_eq(self.benchmark, other.benchmark)
            and _float_eq(self.comparison, other.comparison)
            and self.label == other.label
        )


def _float_eq(a, b) -> bool:
    if a is None or b is None:
        return a is b
    try:
        if np.isnan(a) and np.isnan(b):
            return True
    except TypeError:
        pass
    return a == b


class AssessResult:
    """The outcome of executing an assess statement.

    Wraps the result cube together with the *roles* of its columns: which
    column is the assessed measure, which the benchmark measure, which the
    comparison, which the label.  Also carries execution metadata (the plan
    used and its per-step timing breakdown) for the experiment harness.
    """

    def __init__(
        self,
        cube: Cube,
        measure: str,
        benchmark_measure: str,
        comparison_measure: str,
        label_measure: str,
        plan_name: str = "",
        timings: Optional[Dict[str, float]] = None,
    ):
        self.cube = cube
        self.measure = measure
        self.benchmark_measure = benchmark_measure
        self.comparison_measure = comparison_measure
        self.label_measure = label_measure
        self.plan_name = plan_name
        self.timings: Dict[str, float] = dict(timings or {})

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cube)

    def __iter__(self) -> Iterator[AssessedCell]:
        return self._cells_at(range(len(self)))

    def _cells_at(self, rows: Iterable[int]) -> Iterator[AssessedCell]:
        """The cells stored at the given rows, in the given sequence."""
        values = self.cube.measure(self.measure)
        benchmarks = self.cube.measure(self.benchmark_measure)
        comparisons = self.cube.measure(self.comparison_measure)
        labels = self.cube.measure(self.label_measure)
        for row in rows:
            yield AssessedCell(
                self.cube.coordinate_at(row),
                _scalar(values[row]),
                _scalar(benchmarks[row]),
                _scalar(comparisons[row]),
                labels[row],
            )

    def order(self) -> np.ndarray:
        """The row permutation that puts the cells in canonical order.

        Canonical order is lexicographic by the ``repr`` of the members,
        level by level (so ``10`` sorts before ``9`` and every ``int``
        before every ``str``), ties keeping storage order.  It is what
        :meth:`cells`, :meth:`to_csv`, :meth:`to_table` and the server's
        wire format all emit, computed without touching a cell: one
        ``repr`` per distinct member, then ``np.lexsort`` over the ranks.
        """
        levels = self.cube.group_by.levels
        if not levels:
            return np.arange(len(self), dtype=np.intp)
        return np.lexsort(
            [_repr_ranks(self.cube.coords[level]) for level in reversed(levels)]
        )

    def cells(self) -> List[AssessedCell]:
        """All assessed cells in canonical order (see :meth:`order`)."""
        return list(self._cells_at(self.order().tolist()))

    def label_of(self, coordinate: Coordinate) -> Optional[str]:
        """The label assigned to one coordinate."""
        row = self.cube.coordinate_index()[tuple(coordinate)]
        return self.cube.measure(self.label_measure)[row]

    def label_counts(self) -> Dict[str, int]:
        """Histogram of labels over all cells (``None`` for unlabeled)."""
        return dict(Counter(self.cube.measure(self.label_measure)))

    def total_time(self) -> float:
        """Total measured execution time across all plan steps (seconds)."""
        return float(sum(self.timings.values()))

    def highlights(self, k: int = 3) -> List[AssessedCell]:
        """The ``k`` most interesting cells of the assessment.

        The IAM the paper builds on returns "annotations of interesting
        subsets of data" alongside query results; here interestingness
        combines (a) how extreme a cell's comparison value is within the
        result's own distribution (absolute z-score) and (b) how rare its
        label is (minority labels are more informative).  Unlabeled cells
        are excluded.
        """
        comparisons = np.asarray(
            self.cube.measure(self.comparison_measure), dtype=np.float64
        )
        labels = self.cube.measure(self.label_measure)
        finite = comparisons[np.isfinite(comparisons)]
        mean = float(np.mean(finite)) if finite.size else 0.0
        std = float(np.std(finite)) if finite.size else 0.0
        counts = Counter(label for label in labels if label is not None)
        total_labeled = sum(counts.values())

        scored = []
        for cell, comparison, label in zip(self, comparisons, labels):
            if label is None or not np.isfinite(comparison):
                continue
            extremity = abs(comparison - mean) / std if std > 0 else 0.0
            rarity = 1.0 - counts[label] / total_labeled if total_labeled else 0.0
            scored.append((extremity + rarity, cell))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        return [cell for _, cell in scored[:k]]

    def to_csv(self, path: str) -> str:
        """Export the assessment to a CSV file (levels + contract columns).

        Unlabeled cells export an empty label field; NaN benchmark and
        comparison values export as empty fields too.
        """
        import csv

        headers = list(self.cube.group_by.levels) + [
            self.measure,
            self.benchmark_measure,
            self.comparison_measure,
            self.label_measure,
        ]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(headers)
            for cell in self.cells():
                writer.writerow(
                    [str(member) for member in cell.coordinate]
                    + [_csv_value(cell.value), _csv_value(cell.benchmark),
                       _csv_value(cell.comparison),
                       "" if cell.label is None else cell.label]
                )
        return path

    # ------------------------------------------------------------------
    def to_table(self, limit: Optional[int] = None) -> str:
        """Render the result as a fixed-width text table (for examples/CLI)."""
        headers = list(self.cube.group_by.levels) + [
            self.measure,
            self.benchmark_measure,
            self.comparison_measure,
            self.label_measure,
        ]
        rows: List[List[str]] = []
        for cell in self._cells_at(self.order()[:limit].tolist()):
            row = [str(member) for member in cell.coordinate]
            row.append(_fmt(cell.value))
            row.append(_fmt(cell.benchmark))
            row.append(_fmt(cell.comparison))
            row.append(str(cell.label))
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssessResult(cells={len(self)}, plan={self.plan_name!r}, "
            f"labels={self.label_counts()!r})"
        )


def _repr_ranks(column: np.ndarray) -> np.ndarray:
    """Per row, a rank that orders the column's members by their ``repr``.

    Equal ``repr``s share a rank.  Members that compare equal share one
    dictionary slot, as they share one cell in
    :meth:`Cube.coordinate_index`.
    """
    members = column.tolist()
    distinct = list(dict.fromkeys(members))
    texts = list(map(repr, distinct))
    rank = {text: i for i, text in enumerate(sorted(texts))}
    rank_of = dict(zip(distinct, map(rank.__getitem__, texts)))
    return np.fromiter(
        map(rank_of.__getitem__, members), dtype=np.intp, count=len(members)
    )


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value != value:  # NaN
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _scalar(value):
    if value is None:
        return None
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != value:  # NaN
            return "null"
        if abs(value) < 1e15 and value == int(value):  # inf has no int()
            return str(int(value))
        return f"{value:.4f}"
    return str(value)

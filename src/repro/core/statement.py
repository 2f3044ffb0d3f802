"""The validated assess statement model (Section 4.1).

An :class:`AssessStatement` is the semantic form of::

    with C0 [ for P ] by G
    assess|assess* m [ against <benchmark> ]
    [ using <function> ] labels λ

The four ``against`` forms map to the four benchmark specifications of
Section 3.1 (plus the omitted-``against`` zero benchmark and the
ancestor-benchmark extension from the paper's future-work list).  Statements
are produced either by the parser (:mod:`repro.parser`) or programmatically,
and consumed by the planner (:mod:`repro.algebra.planner`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from .errors import ValidationError
from .expression import Expression, default_using
from .groupby import GroupBySet
from .hierarchy import Member
from .labels import LabelingSpec
from .query import Predicate
from .rules import (
    Finding,
    ancestor_findings,
    for_level_findings,
    past_findings,
    past_window_findings,
    raise_first,
    sibling_findings,
    slices,
    temporal_level,
)
from .schema import CubeSchema

CONSTANT_MEASURE = "constant"
"""Name given to the synthetic measure of constant benchmarks (``m_const``)."""


class BenchmarkSpec:
    """Base class for ``against`` clause alternatives."""

    kind = "abstract"

    def benchmark_measure(self, target_measure: str) -> str:
        """The benchmark measure name ``m_B`` (Section 4.1 result contract)."""
        raise NotImplementedError

    def render(self) -> str:
        """Render back to ``against …`` surface syntax ('' when omitted)."""
        raise NotImplementedError


class ZeroBenchmark(BenchmarkSpec):
    """The dummy zero benchmark used when ``against`` is omitted."""

    kind = "zero"

    def benchmark_measure(self, target_measure: str) -> str:
        return CONSTANT_MEASURE

    def render(self) -> str:
        return ""

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZeroBenchmark)

    def __hash__(self) -> int:
        return hash("ZeroBenchmark")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ZeroBenchmark()"


class ConstantBenchmark(BenchmarkSpec):
    """``against v`` — a KPI-style fixed target value."""

    kind = "constant"

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def benchmark_measure(self, target_measure: str) -> str:
        return CONSTANT_MEASURE

    def render(self) -> str:
        if self.value == int(self.value):
            return f"against {int(self.value)}"
        return f"against {self.value!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantBenchmark) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ConstantBenchmark", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantBenchmark({self.value})"


class ExternalBenchmark(BenchmarkSpec):
    """``against B.m_b`` — an external cube's measure, reconciled with the
    target schema (Section 3.1)."""

    kind = "external"

    __slots__ = ("cube", "measure_name")

    def __init__(self, cube: str, measure_name: str):
        self.cube = cube
        self.measure_name = measure_name

    def benchmark_measure(self, target_measure: str) -> str:
        return self.measure_name

    def render(self) -> str:
        return f"against {self.cube}.{self.measure_name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExternalBenchmark) and (
            other.cube,
            other.measure_name,
        ) == (self.cube, self.measure_name)

    def __hash__(self) -> int:
        return hash(("ExternalBenchmark", self.cube, self.measure_name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExternalBenchmark({self.cube}.{self.measure_name})"


class SiblingBenchmark(BenchmarkSpec):
    """``against l_s = u_sib`` — compare a slice against a sibling slice."""

    kind = "sibling"

    __slots__ = ("level", "sibling")

    def __init__(self, level: str, sibling: Member):
        self.level = level
        self.sibling = sibling

    def benchmark_measure(self, target_measure: str) -> str:
        return target_measure

    def render(self) -> str:
        return f"against {self.level} = '{self.sibling}'"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SiblingBenchmark) and (other.level, other.sibling) == (
            self.level,
            self.sibling,
        )

    def __hash__(self) -> int:
        return hash(("SiblingBenchmark", self.level, self.sibling))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SiblingBenchmark({self.level} = {self.sibling!r})"


class PastBenchmark(BenchmarkSpec):
    """``against past k`` — predict the measure from the k previous time
    slices (Section 3.1, last bullet)."""

    kind = "past"

    __slots__ = ("k", "method")

    def __init__(self, k: int, method: str = "linearRegression"):
        raise_first(past_window_findings(k))
        self.k = int(k)
        self.method = method

    def benchmark_measure(self, target_measure: str) -> str:
        return target_measure

    def render(self) -> str:
        return f"against past {self.k}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PastBenchmark) and (other.k, other.method) == (
            self.k,
            self.method,
        )

    def __hash__(self) -> int:
        return hash(("PastBenchmark", self.k, self.method))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PastBenchmark(k={self.k}, method={self.method!r})"


class AncestorBenchmark(BenchmarkSpec):
    """Extension (paper §8 future work): assess a member against an ancestor.

    ``against ancestor type`` assesses e.g. milk sales against the sales of
    milk's whole product type.  The benchmark aggregates the target's slice
    level up to ``ancestor_level`` and compares every cell with its
    ancestor's value.
    """

    kind = "ancestor"

    __slots__ = ("level", "ancestor_level")

    def __init__(self, level: str, ancestor_level: str):
        self.level = level
        self.ancestor_level = ancestor_level

    def benchmark_measure(self, target_measure: str) -> str:
        return target_measure

    def render(self) -> str:
        return f"against ancestor {self.ancestor_level}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AncestorBenchmark) and (
            other.level,
            other.ancestor_level,
        ) == (self.level, self.ancestor_level)

    def __hash__(self) -> int:
        return hash(("AncestorBenchmark", self.level, self.ancestor_level))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AncestorBenchmark({self.level} vs {self.ancestor_level})"


class AssessStatement:
    """A fully validated assess statement, ready for planning.

    The constructor applies the rules of Sections 3.1 and 4.1 that need no
    engine (:mod:`repro.core.rules`) and raises the first broken one as a
    :class:`ValidationError`: the assessed measure belongs to the schema,
    every ``for`` predicate constrains a known level, and a sibling, past
    or ancestor benchmark finds the grouped, sliced level it needs.  The
    planner applies the two engine-dependent rules (external joinability,
    level properties).
    """

    def __init__(
        self,
        source: str,
        schema: CubeSchema,
        group_by: GroupBySet,
        measure: str,
        predicates: Sequence[Predicate] = (),
        benchmark: Optional[BenchmarkSpec] = None,
        using: Optional[Expression] = None,
        labels: Optional[LabelingSpec] = None,
        star: bool = False,
    ):
        if labels is None:
            raise ValidationError("the labels clause is mandatory")
        schema.measure(measure)
        self.source = source
        self.schema = schema
        self.group_by = group_by
        self.measure = measure
        self.predicates: Tuple[Predicate, ...] = tuple(predicates)
        self.benchmark: BenchmarkSpec = benchmark if benchmark is not None else ZeroBenchmark()
        self.labels = labels
        self.star = bool(star)
        raise_first(self._findings())
        if using is None:
            using = default_using(measure, self.benchmark_measure)
        self.using: Expression = _expand_implicit_totals(using, measure)

    # ------------------------------------------------------------------
    @property
    def benchmark_measure(self) -> str:
        """The benchmark measure name ``m_B`` exposed in the result."""
        return self.benchmark.benchmark_measure(self.measure)

    def slice_predicate(self, level: str) -> Predicate:
        """The first ``for`` predicate on ``level`` (the constructor's rules
        guarantee one on a sibling or past benchmark's level)."""
        return next(p for p in self.predicates if p.level == level)

    def _findings(self) -> Iterator[Finding]:
        for predicate in self.predicates:
            yield from for_level_findings(self.schema, predicate.level)
        benchmark = self.benchmark
        levels = self.group_by.levels
        if isinstance(benchmark, SiblingBenchmark):
            yield from sibling_findings(
                levels, slices(self.predicates), benchmark.level, benchmark.sibling
            )
        elif isinstance(benchmark, PastBenchmark):
            yield from past_findings(self.schema, levels, slices(self.predicates))
        elif isinstance(benchmark, AncestorBenchmark):
            yield from ancestor_findings(
                self.schema, levels, benchmark.level, benchmark.ancestor_level
            )

    @property
    def temporal_level(self) -> Optional[str]:
        """The grouped temporal level (the one a past benchmark slides)."""
        return temporal_level(self.schema, self.group_by.levels)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render back to the SQL-like surface syntax."""
        parts = [f"with {self.source}"]
        if self.predicates:
            rendered = ", ".join(_render_predicate(p) for p in self.predicates)
            parts.append(f"for {rendered}")
        parts.append(f"by {', '.join(self.group_by.levels)}")
        keyword = "assess*" if self.star else "assess"
        against = self.benchmark.render()
        line = f"{keyword} {self.measure}"
        if against:
            line = f"{line} {against}"
        parts.append(line)
        parts.append(f"using {self.using.render()}")
        parts.append(f"labels {self.labels.render()}")
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AssessStatement({self.render()!r})"


def _expand_implicit_totals(expression: Expression, measure: str) -> Expression:
    """Desugar one-argument ``percOfTotal(x)`` into ``percOfTotal(x, m)``.

    The paper's surface syntax (Example 4.1) writes ``percOfTotal`` with a
    single argument, while its logical plan (Example 4.5) passes the target
    measure as the implicit total denominator; this rewrite reconciles the
    two.
    """
    from .expression import BinaryOp, FunctionCall, MeasureRef

    def walk(node: Expression) -> Expression:
        if isinstance(node, FunctionCall):
            args = tuple(walk(arg) for arg in node.args)
            if node.name.lower() == "percoftotal" and len(args) == 1:
                args = (args[0], MeasureRef(measure))
            return FunctionCall(node.name, args)
        if isinstance(node, BinaryOp):
            return BinaryOp(node.op, walk(node.left), walk(node.right))
        return node

    return walk(expression)


def _render_predicate(predicate: Predicate) -> str:
    from .query import PredicateOp

    if predicate.op is PredicateOp.EQ:
        return f"{predicate.level} = '{predicate.values[0]}'"
    if predicate.op is PredicateOp.IN:
        rendered = ", ".join(f"'{v}'" for v in predicate.values)
        return f"{predicate.level} in ({rendered})"
    low, high = predicate.values
    return f"{predicate.level} between '{low}' and '{high}'"

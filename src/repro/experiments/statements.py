"""The four reference intentions of the experimental evaluation (Section 6).

The paper tests "four assess statements of different types, henceforth
referred to as Constant, External, Sibling, and Past".  It does not print
their text, so we define equivalents over the SSB cube chosen so that (as
in Table 2) the target-cube cardinality scales linearly with the fact
table:

* **Constant** groups by (date, customer) — both scale with the cube — and
  checks per-day-per-customer revenue against a KPI;
* **External** groups by (month, part) and compares against the BUDGET
  external cube (parts scale with the cube);
* **Sibling** slices supplier region ASIA and compares each part's revenue
  against the AMERICA slice;
* **Past** slices one month and compares each customer's revenue against a
  linear-regression forecast of the previous four months.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..datagen.sales import sales_engine
from ..datagen.ssb import build_budget_table, ssb_engine, ssb_engine_from_catalog
from ..olap.engine import MultidimensionalEngine

INTENTIONS: Tuple[str, ...] = ("Constant", "External", "Sibling", "Past")

BUDGET_LEVELS: Tuple[str, str] = ("month", "part")

STATEMENTS: Dict[str, str] = {
    "Constant": """
        with SSB by date, customer
        assess revenue against 50000
        using ratio(revenue, 50000)
        labels {[0, 0.5): low, [0.5, 1.5]: expected, (1.5, inf): high}
    """,
    "External": """
        with SSB by month, part
        assess revenue against BUDGET.expected_revenue
        using normalizedDifference(revenue, benchmark.expected_revenue)
        labels {[-inf, -0.1): underBudget, [-0.1, 0.1]: onTrack,
                (0.1, inf): overBudget}
    """,
    "Sibling": """
        with SSB for s_region = 'ASIA' by part, s_region
        assess revenue against s_region = 'AMERICA'
        using percOfTotal(difference(revenue, benchmark.revenue))
        labels {[-inf, -0.0001): bad, [-0.0001, 0.0001]: ok, (0.0001, inf): good}
    """,
    "Past": """
        with SSB for month = '1998-06' by month, customer
        assess revenue against past 4
        using ratio(revenue, benchmark.revenue)
        labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}
    """,
}


def statement_text(intention: str) -> str:
    """The reference statement for an intention, stripped for display."""
    return "\n".join(
        line.strip() for line in STATEMENTS[intention].strip().splitlines()
    )


def prepare_engine(lineorder_rows: int, seed: int = 7) -> MultidimensionalEngine:
    """An SSB engine carrying the BUDGET cube at the External group-by."""
    engine = ssb_engine(lineorder_rows=lineorder_rows, seed=seed, with_budget=False)
    build_budget_table(engine, levels=BUDGET_LEVELS)
    return engine


# Demo cube -> (fact rows, generator seed) when the caller gives none.
DEMO_DEFAULTS: Dict[str, Tuple[int, int]] = {"sales": (20_000, 42), "ssb": (60_000, 7)}


def demo_engine(
    cube: str, rows: Optional[int] = None, *, seed: Optional[int] = None,
    store: Optional[str] = None, mmap: bool = True,
) -> MultidimensionalEngine:
    """The engine behind every demo cube the CLI and the server build.

    ``store`` loads a saved column store (memory-mapped unless ``mmap`` is
    false) and ignores the rest; otherwise ``cube`` names a generated demo
    cube, ``sales`` or ``ssb`` (with the BUDGET cube, so all four
    intentions answer), sized and seeded by :data:`DEMO_DEFAULTS` unless
    ``rows``/``seed`` are given.
    """
    if store is not None:
        from ..engine.persist import load_catalog

        return ssb_engine_from_catalog(load_catalog(store, mmap=mmap))
    if cube not in DEMO_DEFAULTS:
        raise ValueError(f"unknown demo cube {cube!r} (choose 'sales' or 'ssb')")
    default_rows, default_seed = DEMO_DEFAULTS[cube]
    rows = rows or default_rows
    seed = default_seed if seed is None else seed
    if cube == "ssb":
        return prepare_engine(rows, seed=seed)
    return sales_engine(n_rows=rows, seed=seed)

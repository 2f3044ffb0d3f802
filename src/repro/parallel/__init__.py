"""Morsel-driven parallel execution with a deterministic merge layer.

Public surface:

* :class:`ParallelConfig` — degree / morsel size / eligibility.
* :func:`morsel_ranges`, :func:`run_morsel` — task partitioning + worker.
* :func:`merge_morsels`, :func:`decode_keys` — the order-stable merge.

The engine integration lives in :mod:`repro.engine.executor`
(``EngineExecutor.parallel``); the degree is the engine's
``parallelism`` setting (docs/performance.md, "Configuration").
Results are bit-identical to serial execution — measures that
cannot guarantee that (fractional sums, by the
:func:`repro.engine.kernels.sums_exactly` gate) transparently run as one
morsel instead.  See docs/performance.md, "Execution pipeline".
"""

from .config import DEFAULT_MORSEL_ROWS, ParallelConfig
from .merge import decode_keys, merge_morsels
from .morsel import (
    AggSpec,
    DimPredicate,
    FactPredicate,
    JoinSpec,
    KeySpec,
    MorselResult,
    MorselTask,
    morsel_ranges,
    run_morsel,
)

__all__ = [
    "AggSpec",
    "DEFAULT_MORSEL_ROWS",
    "DimPredicate",
    "FactPredicate",
    "JoinSpec",
    "KeySpec",
    "MorselResult",
    "MorselTask",
    "ParallelConfig",
    "decode_keys",
    "merge_morsels",
    "morsel_ranges",
    "run_morsel",
]

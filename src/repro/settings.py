"""Engine settings: one value, one environment reader, one precedence rule.

A :class:`Settings` value holds everything that changes *how* an engine
runs a statement, never what it answers.  Each
:class:`~repro.olap.engine.MultidimensionalEngine` owns one; its
executors, the cost model and the flow analyzer read it.
:meth:`Settings.from_env` is the only reader of the ``REPRO_*``
variables (table: docs/performance.md, "Configuration").

The precedence rule: **the environment configures only an engine that
code has not configured.**  An engine starts from ``Settings.from_env()``;
its first explicit setting (``engine.configure``, which a session's
``parallelism=`` / ``morsel_rows=`` / ``memory_budget=`` and setters
forward to) replaces the environment's values, and fields it leaves
unset take the built-in defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from .obs.profiler import DEFAULT_INTERVAL
from .parallel.config import DEFAULT_MORSEL_ROWS


@dataclass(frozen=True)
class Settings:
    """How an engine executes: its tiers, pruning and telemetry."""

    parallelism: int = 1  # morsel-parallel worker threads; 1 = serial
    morsel_rows: int = DEFAULT_MORSEL_ROWS  # rows per morsel of a sliced scan
    min_rows: Optional[int] = None  # parallel floor; None = one morsel
    memory_budget: Optional[int] = None  # grouping-state bytes; None = unbounded
    zone_pruning: bool = True  # skip fact zones the predicates rule out
    telemetry_dir: Optional[str] = None  # sessions' query log; None = off
    profile_interval: Optional[float] = None  # profiler seconds; None = off

    def __post_init__(self) -> None:
        # None and out-of-range values normalise to the defaults.
        budget = self.memory_budget
        normal = {
            "parallelism": max(int(self.parallelism or 1), 1),
            "morsel_rows": max(int(self.morsel_rows or DEFAULT_MORSEL_ROWS), 1),
            "min_rows": None if self.min_rows is None else max(int(self.min_rows), 0),
            "memory_budget": int(budget) if budget and int(budget) > 0 else None,
        }
        for name, value in normal.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "Settings":
        """The settings the ``REPRO_*`` variables of ``environ`` (default
        ``os.environ``) ask for.  A value that does not parse is ignored,
        so a stray variable cannot break engine construction."""
        env = os.environ if environ is None else environ
        return cls(
            parallelism=_positive(env, "REPRO_PARALLELISM") or 1,
            morsel_rows=_positive(env, "REPRO_MORSEL_ROWS") or DEFAULT_MORSEL_ROWS,
            memory_budget=_positive(env, "REPRO_MEMORY_BYTES"),
            telemetry_dir=env.get("REPRO_TELEMETRY_DIR", "").strip() or None,
            profile_interval=_profile_interval(
                env.get("REPRO_TELEMETRY_PROFILE", "")
            ),
        )


def _positive(env: Mapping[str, str], name: str) -> Optional[int]:
    """A positive integer variable; unset, non-numeric or ≤ 0 is ``None``."""
    try:
        value = int(env.get(name, "").strip())
    except ValueError:
        return None
    return value if value > 0 else None


def _profile_interval(value: str) -> Optional[float]:
    """``REPRO_TELEMETRY_PROFILE``: unset/0/off → None, on/1 → the default
    interval, a number → that many milliseconds (anything else → on)."""
    value = value.strip().lower()
    if value in ("", "0", "off", "false", "no"):
        return None
    if value in ("1", "on", "true", "yes"):
        return DEFAULT_INTERVAL
    try:
        millis = float(value)
    except ValueError:
        return DEFAULT_INTERVAL
    return max(millis / 1000.0, 1e-4)

"""Parallel execution configuration and worker pools.

A :class:`ParallelConfig` bundles everything the engine needs to run a
fact pass morsel-driven: the parallelism *degree* (worker count), the
*morsel size* (rows per work unit), and the *eligibility floor*
``min_rows`` below which the engine does not bother parallelizing (the
dispatch and merge overhead would dominate a small scan).

The config owns a lazily-created thread pool shared by every query of
the session, so enabling parallelism costs one pool construction per
session, not one per statement.  :meth:`map_ordered` is the only
dispatch primitive the engine uses: it evaluates a function over the
morsel tasks and returns the results **in task order**, which is what
makes the downstream merge deterministic (see
:mod:`repro.parallel.merge` and docs/performance.md, "Parallel
execution").
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

DEFAULT_MORSEL_ROWS = 65_536
"""Rows per morsel: big enough that NumPy kernel time dominates the
per-morsel dispatch overhead, small enough that a 600k-row scan yields
~10 morsels for the scheduler to balance."""

T = TypeVar("T")
R = TypeVar("R")


class ParallelConfig:
    """How (and whether) the engine parallelizes fact passes.

    An engine builds one from its :class:`~repro.settings.Settings`
    (degree = ``parallelism``) and shares it, with its pool, among all of
    its executors.
    """

    __slots__ = ("degree", "morsel_rows", "min_rows", "_pool")

    def __init__(
        self,
        degree: int,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        min_rows: Optional[int] = None,
    ):
        self.degree = max(int(degree), 1)
        self.morsel_rows = max(int(morsel_rows), 1)
        # Below the floor a scan stays serial.  The default demands at
        # least one full morsel so tiny cubes (tests, demos) keep the
        # exact serial code path with zero behavioural change.
        self.min_rows = self.morsel_rows if min_rows is None else max(int(min_rows), 0)
        self._pool = None

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this config can ever parallelize (degree above one)."""
        return self.degree > 1

    def eligible(self, n_rows: int) -> bool:
        """Whether a scan of ``n_rows`` fact rows should go parallel."""
        return (
            self.enabled
            and n_rows >= self.min_rows
            and n_rows > self.morsel_rows  # at least two morsels
        )

    # ------------------------------------------------------------------
    def pool(self):
        """The (lazily created) worker pool of this config."""
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.degree,
                thread_name_prefix="repro-morsel",
            )
        return self._pool

    def map_ordered(
        self, function: Callable[[T], R], tasks: Sequence[T]
    ) -> List[R]:
        """Evaluate ``function`` over ``tasks``, results in task order.

        Task order — not completion order — is the determinism contract
        the merge layer relies on: whatever the scheduler does, morsel
        ``i``'s partials always land in slot ``i``.
        """
        if len(tasks) == 1:  # degenerate dispatch: skip the pool entirely
            return [function(tasks[0])]
        return list(self.pool().map(function, tasks))

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelConfig(degree={self.degree}, morsel_rows={self.morsel_rows}, "
            f"min_rows={self.min_rows})"
        )

"""Tenants: isolated engines, session pools, and admission control.

Each tenant owns the full single-user stack — catalog, engine,
semantic cache (with its own cell budget), parallel config, memory
budget, telemetry bundle — plus a fixed pool of
:class:`~repro.api.AssessSession` objects.  The pool bounds the
tenant's concurrent executions; the admission queue bounds how many
requests may *wait* for a session.  Beyond that bound requests are
rejected immediately (HTTP 429 upstream), and a request whose deadline
lapses while queued fails with :class:`DeadlineExceeded` (504).

Because tenants share no catalog, cache, or metrics registry, tenant
A's warm fingerprints can never serve tenant B — the concurrency suite
asserts the counters prove it.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List

from ..api import AssessSession
from ..core.deadline import Deadline, DeadlineExceeded
from ..experiments.statements import demo_engine
from .config import AdmissionConfig, TenantConfig


class AdmissionRejected(Exception):
    """The tenant's wait queue is full — retry later (429)."""

    def __init__(self, tenant_id: str, retry_after_s: float):
        super().__init__(
            f"tenant {tenant_id!r} is at capacity "
            f"(retry after {retry_after_s:g}s)"
        )
        self.tenant_id = tenant_id
        self.retry_after_s = retry_after_s


class Tenant:
    """One tenant: engine + session pool + admission bookkeeping."""

    def __init__(self, config: TenantConfig, admission: AdmissionConfig):
        self.config = config
        self.admission = admission
        self.tenant_id = config.tenant_id
        self.engine = demo_engine(
            config.cube, config.rows, seed=config.seed, store=config.store
        )
        if config.cache_cells is not None:
            self.engine.result_cache.cell_budget = config.cache_cells
        self.telemetry = None
        if config.telemetry_dir is not None:
            from ..obs.telemetry import Telemetry

            self.telemetry = Telemetry(config.telemetry_dir)
        self.pool_size = config.pool_size
        self._pool: "queue.Queue[AssessSession]" = queue.Queue()
        self._sessions: List[AssessSession] = []
        for _ in range(self.pool_size):
            session = AssessSession(
                self.engine,
                parallelism=config.parallelism,
                memory_budget=config.memory_budget,
                telemetry=self.telemetry,
            )
            self._sessions.append(session)
            self._pool.put(session)
        self._lock = threading.Lock()
        self._waiting = 0
        self._counters: Dict[str, int] = {
            "admitted": 0,
            "completed": 0,
            "errors": 0,
            "rejected_queue_full": 0,
            "rejected_deadline": 0,
        }

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def acquire(self, deadline: Deadline) -> AssessSession:
        """Check a session out of the pool, honoring queue bound + deadline.

        A free session admits immediately.  Otherwise the request joins
        the bounded wait queue: beyond ``admission.max_queue`` waiters
        it is rejected outright (:class:`AdmissionRejected` → 429), and
        a queued request whose deadline lapses before a session frees
        up fails with :class:`DeadlineExceeded` (504).
        """
        try:
            session = self._pool.get_nowait()
        except queue.Empty:
            session = self._acquire_queued(deadline)
        with self._lock:
            self._counters["admitted"] += 1
        return session

    def _acquire_queued(self, deadline: Deadline) -> AssessSession:
        with self._lock:
            if self._waiting >= self.admission.max_queue:
                self._counters["rejected_queue_full"] += 1
                raise AdmissionRejected(
                    self.tenant_id, self.admission.retry_after_s
                )
            self._waiting += 1
        try:
            timeout = deadline.remaining()
            if timeout <= 0.0:
                with self._lock:
                    self._counters["rejected_deadline"] += 1
                raise DeadlineExceeded(
                    f"deadline spent before tenant {self.tenant_id!r} "
                    "had a free session"
                )
            try:
                return self._pool.get(timeout=timeout)
            except queue.Empty:
                with self._lock:
                    self._counters["rejected_deadline"] += 1
                raise DeadlineExceeded(
                    f"no session free within {deadline.seconds:g}s "
                    f"for tenant {self.tenant_id!r}"
                ) from None
        finally:
            with self._lock:
                self._waiting -= 1

    def release(self, session: AssessSession, ok: bool = True) -> None:
        """Return a session to the pool (always — sessions are stateless
        between requests; the engine-level cache is the shared state)."""
        with self._lock:
            self._counters["completed" if ok else "errors"] += 1
        self._pool.put(session)

    def available(self) -> int:
        """Sessions currently free (approximate under concurrency)."""
        return self._pool.qsize()

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._waiting

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def admission_stats(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self._counters)
        stats["max_queue"] = self.admission.max_queue
        stats["waiting"] = self.waiting
        return stats

    def stats(self) -> Dict[str, object]:
        """The ``/v1/tenants/<id>/stats`` document body."""
        sessions = self._sessions
        document: Dict[str, object] = {
            "tenant": self.tenant_id,
            "cube": self.config.cube if self.config.store is None
            else self.config.store,
            "pool": {
                "size": self.pool_size,
                "available": self.available(),
                "in_use": self.pool_size - self.available(),
            },
            "admission": self.admission_stats(),
            "cache": sessions[0].cache_stats(),
            "counters": dict(
                sorted(self.engine.metrics.snapshot()["counters"].items())
            ),
            "parallelism": sessions[0].parallelism,
            "memory_budget": self.engine.settings.memory_budget,
        }
        if self.telemetry is not None:
            document["telemetry"] = self._telemetry_stats()
        return document

    def _telemetry_stats(self) -> Dict[str, object]:
        """Query-log aggregates + watchdog advisories for this tenant.

        One pass over the log: records are counted and their session
        labels collected as ``aggregate_history`` consumes them, and no
        latencies are kept (baseline-free advisories never read them),
        so memory follows the fingerprints, never the records.
        """
        from ..obs.qlog import QueryLogError, iter_records
        from ..obs.watchdog import aggregate_history, watch

        telemetry = self.telemetry
        assert telemetry is not None
        records = 0
        sessions = set()

        def tally(stream):
            nonlocal records
            for record in stream:
                records += 1
                sessions.add(str(record.get("session", "")))
                yield record

        try:
            history = aggregate_history(
                tally(iter_records(telemetry.directory)), keep_latencies=False
            )
        except QueryLogError:
            history = {}
        advisories = watch(history, baseline=None)
        return {
            "directory": str(telemetry.directory),
            "records": records,
            "fingerprints": len(history),
            "sessions": sorted(sessions),
            "advisories": [
                {
                    "code": advisory.code,
                    "fingerprint": advisory.fingerprint,
                    "message": advisory.message,
                }
                for advisory in advisories
            ],
        }

    def close(self) -> None:
        """Flush telemetry (profiler stacks included) on server shutdown."""
        if self.telemetry is not None:
            self.telemetry.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tenant({self.tenant_id!r}, pool={self.pool_size}, "
            f"available={self.available()})"
        )

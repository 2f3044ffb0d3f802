"""Session telemetry: the bundle a session writes its history through.

A :class:`Telemetry` object owns the three per-session pieces of the
persistent telemetry tier and is what :class:`repro.api.AssessSession`
drives when constructed with ``telemetry=`` (or when its engine's
``telemetry_dir`` setting is set — docs/performance.md, "Configuration"):

* the durable **query log** (:class:`repro.obs.qlog.QueryLog`) — one
  JSONL record per executed statement;
* the in-memory **time-series hub**
  (:class:`repro.obs.timeseries.TelemetryHub`) — log-bucketed latency
  histograms (``query.seconds``, ``phase.<step>.seconds``) and recent
  rows-out points, exported by
  :func:`repro.obs.export.to_prometheus`;
* optionally the **sampling profiler**
  (:class:`repro.obs.profiler.SamplingProfiler`), enabled by the
  ``profile_interval`` setting (or ``profile_interval=``), whose
  collapsed stacks land in ``profile-<session>.collapsed`` next to the
  query log on close.

Recording is strictly additive — it never changes what executes — and
every hook in the session is guarded by ``if telemetry is None`` so a
session without telemetry pays one attribute load per statement
(benchmarked in ``benchmarks/bench_telemetry_overhead.py``).
"""

from __future__ import annotations

import atexit
import os
import threading
from pathlib import Path
from typing import Dict, Optional

from .qlog import QueryLog, build_record, counters_delta
from .timeseries import TelemetryHub


class Telemetry:
    """Everything one session needs to persist its workload history."""

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = None,
        keep: Optional[int] = None,
        profile_interval: Optional[float] = None,
        session_id: Optional[str] = None,
    ):
        kwargs = {}
        if max_bytes is not None:
            kwargs["max_bytes"] = max_bytes
        if keep is not None:
            kwargs["keep"] = keep
        self.directory = Path(directory)
        self.log = QueryLog(self.directory, **kwargs)
        self.hub = TelemetryHub()
        self.session_id = session_id or os.urandom(6).hex()
        self._seq = 0
        self._registered_sessions = 0
        self._lock = threading.Lock()
        self.profiler = None
        if profile_interval is not None:
            from .profiler import SamplingProfiler

            self.profiler = SamplingProfiler(interval=profile_interval)
            self.profiler.start()
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, telemetry, settings) -> "Optional[Telemetry]":
        """Coerce a session's ``telemetry=`` argument.

        ``None`` falls back to the engine's :class:`~repro.settings.Settings`
        (a bundle in ``telemetry_dir``, profiled at ``profile_interval``,
        or none); a path-like starts a bundle in that directory; a
        :class:`Telemetry` passes through (so several sessions can share
        one log and hub).
        """
        if telemetry is None:
            if settings.telemetry_dir is None:
                return None
            return cls(
                settings.telemetry_dir,
                profile_interval=settings.profile_interval,
            )
        if isinstance(telemetry, Telemetry):
            return telemetry
        return cls(telemetry)

    # ------------------------------------------------------------------
    def register_session(self) -> str:
        """A unique session label for one user of this (shared) bundle.

        The first registrant keeps the bundle's bare ``session_id`` (the
        common single-session case records exactly as before); every
        further registrant gets ``<session_id>-<n>``.  Sessions sharing
        a bundle — e.g. a server tenant's pool — pass the label back via
        ``record_statement(session_label=...)`` so their query-log
        records stay attributable.
        """
        with self._lock:
            self._registered_sessions += 1
            n = self._registered_sessions
        if n == 1:
            return self.session_id
        return f"{self.session_id}-{n}"

    def record_statement(
        self,
        statement,
        *,
        plan_name: str,
        status: str,
        total_s: float,
        phases: Optional[Dict[str, float]] = None,
        rows_out: int = 0,
        cells_out: int = 0,
        counters_before: Optional[Dict[str, int]] = None,
        counters_after: Optional[Dict[str, int]] = None,
        error: Optional[str] = None,
        batch: Optional[str] = None,
        parallelism: int = 1,
        memory_budget: Optional[int] = None,
        session_label: Optional[str] = None,
    ) -> Dict[str, object]:
        """Build, persist, and time-series one statement record."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        counters = counters_delta(counters_before or {}, counters_after or {})
        record = build_record(
            statement,
            session_id=session_label or self.session_id,
            seq=seq,
            plan_name=plan_name,
            status=status,
            total_s=total_s,
            phases=phases,
            rows_out=rows_out,
            cells_out=cells_out,
            counters=counters,
            error=error,
            batch=batch,
            parallelism=parallelism,
            memory_budget=memory_budget,
            profiled=self.profiler is not None,
        )
        self.log.append(record)
        ts = float(record["ts"])
        if status == "ok":
            self.hub.observe_latency("query.seconds", total_s, ts=ts)
            for step, seconds in (phases or {}).items():
                self.hub.observe_latency(
                    f"phase.{step}.seconds", seconds, ts=ts
                )
            self.hub.record_point("query.rows_out", rows_out, ts=ts)
        else:
            self.hub.record_point("query.errors", 1.0, ts=ts)
        return record

    # ------------------------------------------------------------------
    def profile_path(self) -> Path:
        return self.directory / f"profile-{self.session_id}.collapsed"

    def close(self) -> None:
        """Stop the profiler (writing its stacks) and close the log."""
        if self._closed:
            return
        self._closed = True
        if self.profiler is not None:
            self.profiler.stop()
            if self.profiler.samples:
                try:
                    self.profiler.write(self.profile_path())
                except OSError:  # pragma: no cover - dir vanished
                    pass
        self.log.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry({str(self.directory)!r}, "
            f"session={self.session_id!r}, seq={self._seq})"
        )

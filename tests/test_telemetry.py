"""Persistent telemetry: query log, time series, profiler, watchdog."""

import json
import threading

import numpy as np
import pytest

from repro.api import AssessSession
from repro.batch.session import results_identical
from repro.obs.qlog import (
    QueryLog,
    QueryLogError,
    build_record,
    counters_delta,
    iter_records,
    statement_fingerprint,
    validate_record,
)
from repro.obs.timeseries import LogHistogram, RingBuffer, TelemetryHub
from repro.obs.profiler import SamplingProfiler, profiling
from repro.obs.rss import peak_rss_bytes, peak_rss_kb
from repro.obs.telemetry import Telemetry
from repro.obs.watchdog import (
    aggregate_history,
    load_baseline,
    load_history,
    watch,
    write_baseline,
)


SIBLING = """
with SALES for type = 'Fresh Fruit', country = 'Italy' by product, country
assess quantity against country = 'France'
using percOfTotal(difference(quantity, benchmark.quantity))
labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf): good}
"""

SIBLING_REORDERED = """
with SALES for country = 'Italy', type = 'Fresh Fruit' by country, product
assess quantity against country = 'France'
using percOfTotal(difference(quantity, benchmark.quantity))
labels {[-inf, -0.2): bad, [-0.2, 0.2]: ok, (0.2, inf): good}
"""

MONTHLY = "with SALES by month assess storeSales labels quartiles"


def _fake_record(fingerprint, total_s, *, status="ok", counters=None,
                 seq=1, ts=1000.0, **extra):
    """A schema-valid record without needing a parsed statement."""
    record = {
        "v": 1, "ts": ts, "session": "test-session", "seq": seq,
        "fingerprint": fingerprint, "cube": "SALES", "measure": "quantity",
        "group_by": ["product", "country"], "benchmark": "",
        "plan": "POP", "status": status, "phases": {"get": total_s},
        "total_s": total_s, "rows_in": 100, "rows_out": 4, "cells_out": 8,
        "counters": dict(counters or {}), "peak_rss_kb": 1024,
    }
    if status == "error":
        record["error"] = "PlanError: boom"
    record.update(extra)
    return record


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_under_reordering(self, sales_session):
        a = sales_session.parse(SIBLING)
        b = sales_session.parse(SIBLING_REORDERED)
        assert statement_fingerprint(a) == statement_fingerprint(b)

    def test_distinct_statements_differ(self, sales_session):
        a = sales_session.parse(SIBLING)
        b = sales_session.parse(MONTHLY)
        assert statement_fingerprint(a) != statement_fingerprint(b)

    def test_shape(self, sales_session):
        fingerprint = statement_fingerprint(sales_session.parse(MONTHLY))
        assert len(fingerprint) == 16
        int(fingerprint, 16)  # hex


# ----------------------------------------------------------------------
# Query log: schema round-trip, rotation, concurrency
# ----------------------------------------------------------------------
class TestQueryLog:
    def test_round_trip_and_validate(self, tmp_path, sales_session):
        log = QueryLog(tmp_path)
        statement = sales_session.parse(SIBLING)
        record = build_record(
            statement, session_id="s1", seq=1, plan_name="POP",
            status="ok", total_s=0.01,
            phases={"get": 0.008, "label": 0.001},
            rows_out=4, cells_out=8,
            counters={"engine.rows_scanned": 100, "engine.scans": 1},
        )
        validate_record(record)
        log.append(record)
        log.close()
        read_back = list(iter_records(tmp_path, strict=True))
        assert len(read_back) == 1
        assert read_back[0] == json.loads(
            json.dumps(record)  # float round-trip, like the file
        )
        assert read_back[0]["rows_in"] == 100
        assert read_back[0]["fingerprint"] == statement_fingerprint(statement)

    def test_validate_rejects_malformed(self):
        with pytest.raises(QueryLogError):
            validate_record([])
        with pytest.raises(QueryLogError):
            validate_record({"v": 99})
        good = _fake_record("f" * 16, 0.01)
        validate_record(good)
        for field in ("ts", "fingerprint", "counters", "phases"):
            bad = dict(good)
            del bad[field]
            with pytest.raises(QueryLogError):
                validate_record(bad)
        bad = dict(good, status="maybe")
        with pytest.raises(QueryLogError):
            validate_record(bad)
        bad = dict(good, status="error")  # error status without message
        with pytest.raises(QueryLogError):
            validate_record(bad)
        bad = dict(good, phases={"get": -1.0})
        with pytest.raises(QueryLogError):
            validate_record(bad)
        bad = dict(good, counters={"x": 1.5})
        with pytest.raises(QueryLogError):
            validate_record(bad)

    def test_rotation_keeps_last_segments(self, tmp_path):
        log = QueryLog(tmp_path, max_bytes=512, keep=3)
        for seq in range(40):
            log.append(_fake_record("a" * 16, 0.001, seq=seq))
        log.close()
        segments = sorted(tmp_path.glob("queries-*.jsonl"))
        assert 1 < len(segments) <= 3
        # Survivors are the highest-numbered segments and all parse.
        for record in iter_records(tmp_path, strict=True):
            validate_record(record)
        last = list(iter_records(tmp_path))[-1]
        assert last["seq"] == 39

    def test_reader_skips_torn_record(self, tmp_path):
        log = QueryLog(tmp_path)
        log.append(_fake_record("a" * 16, 0.001, seq=1))
        log.append(_fake_record("a" * 16, 0.001, seq=2))
        log.close()
        segment = next(tmp_path.glob("queries-*.jsonl"))
        with open(segment, "a") as handle:
            handle.write('{"v": 1, "truncated')  # crashed writer
        assert [r["seq"] for r in iter_records(tmp_path)] == [1, 2]
        with pytest.raises(QueryLogError):
            list(iter_records(tmp_path, strict=True))

    def test_concurrent_writers_no_torn_records(self, tmp_path):
        """Many threads, separate QueryLog instances, one directory."""
        threads_n, per_thread = 8, 50
        barrier = threading.Barrier(threads_n)

        def writer(thread_index):
            log = QueryLog(tmp_path)
            barrier.wait()
            for seq in range(per_thread):
                log.append(_fake_record(
                    f"{thread_index:016x}", 0.001, seq=seq,
                    session=f"session-{thread_index}",
                ))
            log.close()

        workers = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads_n)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        records = list(iter_records(tmp_path, strict=True))
        assert len(records) == threads_n * per_thread
        for record in records:
            validate_record(record)

    def test_counters_delta(self):
        before = {"a": 5, "b": 2}
        after = {"a": 8, "b": 2, "c": 1}
        assert counters_delta(before, after) == {"a": 3, "c": 1}


# ----------------------------------------------------------------------
# Time series: ring buffer + log-bucketed histogram vs numpy oracle
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_wraps_and_orders(self):
        ring = RingBuffer(capacity=4)
        for value in range(10):
            ring.push(float(value), ts=float(value))
        assert len(ring) == 4
        assert ring.values() == [6.0, 7.0, 8.0, 9.0]
        assert ring.last() == (9.0, 9.0)

    def test_empty(self):
        assert RingBuffer(4).last() is None
        assert RingBuffer(4).values() == []


class TestLogHistogram:
    #: The grid's growth is 2**0.25 (~19% bucket width); linear
    #: interpolation inside the bucket keeps the estimate within the
    #: bucket, so relative error is bounded by the bucket width.
    TOLERANCE = 2 ** 0.25 - 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_percentiles_vs_numpy(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=5000)
        histogram = LogHistogram()
        for sample in samples:
            histogram.observe(float(sample))
        for q in (0.50, 0.95, 0.99):
            oracle = float(np.percentile(samples, 100 * q))
            estimate = histogram.quantile(q)
            assert estimate == pytest.approx(oracle, rel=self.TOLERANCE)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        histogram = LogHistogram()
        samples = rng.uniform(1e-4, 0.5, size=1000)
        for sample in samples:
            histogram.observe(float(sample))
        summary = histogram.percentiles()
        assert summary["min"] <= summary["p50"] <= summary["p95"]
        assert summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["count"] == 1000
        assert summary["sum"] == pytest.approx(float(samples.sum()))

    def test_empty_and_degenerate(self):
        histogram = LogHistogram()
        assert histogram.quantile(0.5) == 0.0
        histogram.observe(0.01)
        assert histogram.quantile(0.5) == pytest.approx(0.01, rel=0.2)
        histogram.observe(-5.0)  # clamped to zero, not a crash
        assert histogram.count == 2

    def test_cumulative_buckets_prometheus_shape(self):
        histogram = LogHistogram()
        for value in (0.001, 0.002, 0.004, 10_000.0):  # one overflow
            histogram.observe(value)
        pairs = histogram.cumulative_buckets()
        uppers = [upper for upper, _ in pairs]
        counts = [count for _, count in pairs]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert uppers[-1] == float("inf")
        assert counts[-1] == 4


class TestTelemetryHub:
    def test_observe_and_snapshot(self):
        hub = TelemetryHub(capacity=8)
        for value in (0.001, 0.002, 0.003):
            hub.observe_latency("query.seconds", value, ts=1.0)
        hub.record_point("query.rows_out", 42.0, ts=2.0)
        snapshot = hub.snapshot()
        assert snapshot["histograms"]["query.seconds"]["count"] == 3
        assert snapshot["series"]["query.rows_out"]["last"] == 42.0
        assert hub.percentiles("unseen")["count"] == 0

    def test_thread_safety(self):
        hub = TelemetryHub()

        def worker():
            for _ in range(500):
                hub.observe_latency("query.seconds", 0.001)

        workers = [threading.Thread(target=worker) for _ in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert hub.histogram("query.seconds").count == 2000


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_collects_samples_and_collapses(self):
        with profiling(interval=0.001) as profiler:
            total = 0
            for i in range(400_000):
                total += i * i
        assert total > 0
        assert profiler.samples > 0
        text = profiler.collapsed()
        assert text
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or ":" in stack
        assert profiler.hot_frames(3)

    def test_results_bit_identical_with_profiler_on(self, sales_session):
        baseline = sales_session.assess(SIBLING)
        with profiling(interval=0.001):
            profiled = sales_session.assess(SIBLING)
        assert results_identical(baseline, profiled)

    def test_start_stop_lifecycle(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()
        assert profiler.running
        profiler.stop()
        assert not profiler.running
        profiler.stop()  # idempotent

    def test_write(self, tmp_path):
        with profiling(interval=0.001) as profiler:
            sum(i * i for i in range(200_000))
        path = tmp_path / "stacks.collapsed"
        profiler.write(path)
        assert path.read_text().strip() == profiler.collapsed().strip()


# ----------------------------------------------------------------------
# The session-level record hook
# ----------------------------------------------------------------------
class TestSessionTelemetry:
    def test_assess_writes_schema_valid_records(self, sales, tmp_path):
        session = AssessSession(sales, telemetry=tmp_path)
        first = session.assess(SIBLING)
        session.assess(SIBLING)
        session.assess(MONTHLY)
        session.telemetry.close()
        records = list(iter_records(tmp_path, strict=True))
        assert len(records) == 3
        for record in records:
            validate_record(record)
        assert records[0]["status"] == "ok"
        assert records[0]["rows_out"] == len(first)
        assert records[0]["plan"] in ("NP", "JOP", "POP")
        assert records[0]["fingerprint"] == records[1]["fingerprint"]
        assert records[0]["fingerprint"] != records[2]["fingerprint"]
        # The second identical statement hits the result cache.
        assert records[1]["counters"].get("cache.hits", 0) >= 1

    def test_error_records_execution_failures(self, sales, tmp_path):
        session = AssessSession(sales, telemetry=tmp_path)
        with pytest.raises(Exception):
            session.assess(MONTHLY, plan="POP")  # infeasible plan
        session.telemetry.close()
        records = list(iter_records(tmp_path, strict=True))
        assert len(records) == 1
        assert records[0]["status"] == "error"
        assert "PlanError" in records[0]["error"]

    def test_batch_records_are_tagged(self, sales, tmp_path):
        session = AssessSession(sales, telemetry=tmp_path)
        session.execute_many([SIBLING, MONTHLY])
        session.telemetry.close()
        records = list(iter_records(tmp_path, strict=True))
        assert len(records) == 2
        batches = {record["batch"] for record in records}
        assert len(batches) == 1
        assert all("-" in batch for batch in batches)

    def test_results_identical_with_telemetry(self, sales, tmp_path):
        plain = AssessSession(sales)
        recorded = AssessSession(sales, telemetry=tmp_path)
        assert results_identical(
            plain.assess(SIBLING), recorded.assess(SIBLING)
        )
        recorded.telemetry.close()

    def test_hub_feeds_and_shared_telemetry(self, sales, tmp_path):
        bundle = Telemetry(tmp_path)
        one = AssessSession(sales, telemetry=bundle)
        two = AssessSession(sales, telemetry=bundle)
        one.assess(MONTHLY)
        two.assess(MONTHLY)
        bundle.close()
        assert bundle.hub.histogram("query.seconds").count == 2
        records = list(iter_records(tmp_path, strict=True))
        assert [record["seq"] for record in records] == [1, 2]

    def test_shared_bundle_sessions_get_distinct_labels(self, sales, tmp_path):
        # Regression: sessions sharing one bundle used to all record
        # the bundle's session_id, making per-session attribution (a
        # server tenant's pool) impossible.  The first registrant keeps
        # the bare id; later ones get a ``-<n>`` suffix.
        bundle = Telemetry(tmp_path)
        one = AssessSession(sales, telemetry=bundle)
        two = AssessSession(sales, telemetry=bundle)
        three = AssessSession(sales, telemetry=bundle)
        assert one.telemetry_label == bundle.session_id
        assert two.telemetry_label == f"{bundle.session_id}-2"
        assert three.telemetry_label == f"{bundle.session_id}-3"
        one.assess(MONTHLY)
        two.assess(MONTHLY)
        three.assess(MONTHLY)
        bundle.close()
        records = list(iter_records(tmp_path, strict=True))
        assert [record["session"] for record in records] == [
            bundle.session_id,
            f"{bundle.session_id}-2",
            f"{bundle.session_id}-3",
        ]
        # Bundle-level sequencing is unchanged: one shared counter.
        assert [record["seq"] for record in records] == [1, 2, 3]

    def test_single_session_label_is_bare_session_id(self, sales, tmp_path):
        session = AssessSession(sales, telemetry=str(tmp_path))
        assert session.telemetry_label == session.telemetry.session_id
        session.assess(MONTHLY)
        session.telemetry.close()
        (record,) = list(iter_records(tmp_path, strict=True))
        assert record["session"] == session.telemetry.session_id

    def test_shared_bundle_batch_records_carry_session_label(
        self, sales, tmp_path
    ):
        bundle = Telemetry(tmp_path)
        AssessSession(sales, telemetry=bundle)  # claims the bare label
        second = AssessSession(sales, telemetry=bundle)
        second.execute_many([MONTHLY, SIBLING])
        bundle.close()
        records = list(iter_records(tmp_path, strict=True))
        assert len(records) == 2
        label = f"{bundle.session_id}-2"
        assert all(record["session"] == label for record in records)
        batches = {record["batch"] for record in records}
        assert len(batches) == 1
        assert batches.pop().startswith(f"{label}-")

    def test_disabled_by_default(self, sales_session, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        assert sales_session.telemetry is None
        fresh = AssessSession(sales_session.engine)
        assert fresh.telemetry is None

    def test_env_enables(self, tmp_path, monkeypatch):
        from repro.datagen import sales_engine

        # The environment is read when an engine is built.
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        session = AssessSession(sales_engine(n_rows=2_000))
        assert session.telemetry is not None
        session.assess(MONTHLY)
        session.telemetry.close()
        assert list(iter_records(tmp_path, strict=True))


# ----------------------------------------------------------------------
# Watchdog: aggregation, baseline, advisories
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_aggregates_exact_percentiles(self):
        latencies = [0.001 * (i + 1) for i in range(100)]
        records = [
            _fake_record("a" * 16, latency, seq=i)
            for i, latency in enumerate(latencies)
        ]
        history = aggregate_history(records)
        stats = history["a" * 16]
        assert stats.runs == 100
        for q, attr in ((50, "p50"), (95, "p95"), (99, "p99")):
            assert getattr(stats, attr) == pytest.approx(
                float(np.percentile(latencies, q))
            )

    def test_baseline_round_trip(self, tmp_path):
        records = [_fake_record("a" * 16, 0.01, seq=i) for i in range(5)]
        history = aggregate_history(records)
        path = tmp_path / "baseline.json"
        document = write_baseline(history, path)
        assert document["fingerprints"]["a" * 16]["runs"] == 5
        loaded = load_baseline(path)
        assert loaded["a" * 16]["p95_s"] == pytest.approx(0.01)
        assert load_baseline(tmp_path / "missing.json") is None

    def test_injected_slowdown_trips_assess410(self, tmp_path):
        fast = [_fake_record("a" * 16, 0.01, seq=i) for i in range(10)]
        baseline = load_baseline(
            write_baseline_path := tmp_path / "baseline.json"
        )
        write_baseline(aggregate_history(fast), write_baseline_path)
        baseline = load_baseline(write_baseline_path)
        slow = [
            _fake_record("a" * 16, 0.1, seq=i)  # injected 10x slowdown
            for i in range(10)
        ]
        advisories = watch(aggregate_history(slow), baseline)
        codes = {advisory.code for advisory in advisories}
        assert "ASSESS410" in codes
        rendered = advisories[0].render()
        assert "ASSESS410" in rendered and "warning" in rendered

    def test_no_advisory_at_parity(self, tmp_path):
        records = [_fake_record("a" * 16, 0.01, seq=i) for i in range(10)]
        path = tmp_path / "baseline.json"
        write_baseline(aggregate_history(records), path)
        assert watch(aggregate_history(records), load_baseline(path)) == []

    def test_cache_miss_storm_assess411(self, tmp_path):
        hits = [
            _fake_record("a" * 16, 0.01, seq=i,
                         counters={"cache.hits": 1})
            for i in range(10)
        ]
        path = tmp_path / "baseline.json"
        write_baseline(aggregate_history(hits), path)
        misses = [
            _fake_record("a" * 16, 0.01, seq=i,
                         counters={"cache.misses": 1})
            for i in range(10)
        ]
        advisories = watch(aggregate_history(misses), load_baseline(path))
        assert "ASSESS411" in {advisory.code for advisory in advisories}

    def test_spill_pressure_assess412(self):
        records = [
            _fake_record("a" * 16, 0.01, seq=i,
                         counters={"engine.spill.spills": 2})
            for i in range(4)
        ]
        advisories = watch(aggregate_history(records), None)
        assert "ASSESS412" in {advisory.code for advisory in advisories}

    def test_parallel_fallback_storm_assess413(self):
        records = [
            _fake_record("a" * 16, 0.01, seq=i, parallelism=2,
                         counters={"engine.parallel.morsels": 4,
                                   "engine.parallel.fallbacks": 1})
            for i in range(4)
        ]
        advisories = watch(aggregate_history(records), None)
        assert "ASSESS413" in {advisory.code for advisory in advisories}

    def test_load_history_reads_directory(self, tmp_path):
        log = QueryLog(tmp_path)
        for seq in range(3):
            log.append(_fake_record("a" * 16, 0.01, seq=seq))
        log.close()
        history = load_history(tmp_path)
        assert history["a" * 16].runs == 3


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_counters_and_hub_histograms(self):
        from repro.obs.export import to_prometheus
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("engine.scans", 3)
        hub = TelemetryHub()
        for value in (0.001, 0.002, 0.004):
            hub.observe_latency("query.seconds", value)
        hub.record_point("query.rows_out", 42.0)
        text = to_prometheus(registry, hub)
        assert "# TYPE repro_engine_scans_total counter" in text
        assert "repro_engine_scans_total 3" in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_query_seconds_count 3" in text
        assert "repro_query_seconds_p95" in text
        assert "repro_query_rows_out 42" in text
        assert text.endswith("\n")

    def test_global_registry_default(self):
        from repro.obs.export import to_prometheus
        from repro.obs.metrics import METRICS

        METRICS.inc("telemetry.test_counter")
        assert "repro_telemetry_test_counter_total 1" in to_prometheus()


# ----------------------------------------------------------------------
# The history CLI + schema validator tool
# ----------------------------------------------------------------------
class TestHistoryCli:
    def _populate(self, sales, directory):
        session = AssessSession(sales, telemetry=directory)
        for _ in range(3):
            session.assess(SIBLING)
            session.assess(MONTHLY)
        session.telemetry.close()

    def test_history_renders_and_exits_zero(self, sales, tmp_path, capsys):
        from repro.cli import main

        self._populate(sales, tmp_path)
        assert main(["history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "6 records" in out
        assert "SALES.quantity" in out and "SALES.storeSales" in out
        assert "no advisories" in out

    def test_write_baseline_then_watch(self, sales, tmp_path, capsys):
        from repro.cli import main

        self._populate(sales, tmp_path)
        assert main(["history", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "baseline.json").exists()
        assert main(["history", str(tmp_path), "--strict"]) == 0
        capsys.readouterr()

    def test_strict_fails_on_injected_slowdown(self, sales, tmp_path,
                                               capsys):
        from repro.cli import main

        self._populate(sales, tmp_path)
        assert main(["history", str(tmp_path), "--write-baseline"]) == 0
        # Inject a 10x slowdown for every fingerprint.
        slowed = []
        for record in iter_records(tmp_path):
            if record["status"] == "ok":
                slow = dict(record, total_s=record["total_s"] * 10)
                slowed.append(slow)
        log = QueryLog(tmp_path)
        for record in slowed:
            log.append(record)
        log.close()
        assert main(["history", str(tmp_path), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "ASSESS410" in out

    def test_json_and_prometheus_modes(self, sales, tmp_path, capsys):
        from repro.cli import main

        self._populate(sales, tmp_path)
        assert main(["history", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 6
        assert len(payload["fingerprints"]) == 2
        for stats in payload["fingerprints"].values():
            assert stats["runs"] == 3
            assert stats["p95_s"] >= stats["p50_s"] >= 0
        assert main(["history", str(tmp_path), "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "repro_query_seconds_bucket" in text
        assert "repro_cache_hits_total" in text

    def test_missing_directory_is_usage_error(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        assert main(["history"]) == 2
        assert main(["history", "/nonexistent/telemetry"]) == 2
        capsys.readouterr()

    def test_check_qlog_schema_tool(self, sales, tmp_path):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_schema",
            Path(__file__).resolve().parent.parent
            / "tools" / "check_schema.py",
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        self._populate(sales, tmp_path)
        assert tool.main(["qlog", str(tmp_path)]) == 0
        # A schema violation must fail the check.
        log = QueryLog(tmp_path)
        log.append({"v": 99, "not": "a record"})
        log.close()
        assert tool.main(["qlog", str(tmp_path)]) == 1


# ----------------------------------------------------------------------
# RSS normalization
# ----------------------------------------------------------------------
class TestRss:
    def test_positive_and_consistent(self):
        kb = peak_rss_kb()
        by = peak_rss_bytes()
        assert isinstance(kb, int) and isinstance(by, int)
        assert kb > 0 and by > 0
        assert kb == by // 1024

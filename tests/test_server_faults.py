"""Fault injection: deadlines, saturation, and mid-request shutdown.

Most failure modes are driven through the server's ``before_execute``
hook (called on the execution worker, so a sleeping hook simulates a
slow tenant without touching engine code):

* a slow execution trips the per-request deadline — the client gets a
  504 envelope *and* the session rejoins the pool clean (the very next
  request succeeds on it);
* a slow *scan* (every morsel slowed) is cancelled: the worker stops at
  the next morsel checkpoint after the deadline, so its session is back
  in the pool within one morsel and the query log records the error;
* pool + queue saturation answers 429 with a ``Retry-After`` header
  matching the admission config;
* a shutdown issued mid-request drains: the in-flight query completes
  with 200, late arrivals get 503, and the tenant's query log holds
  only whole records (``iter_records(strict=True)`` parses every line).
"""

from __future__ import annotations

import threading
import time

from repro.obs.qlog import iter_records, validate_record
from repro.server import AdmissionConfig, ReproServer, ServerConfig, TenantConfig

from .server_utils import SALES_STATEMENT, post_json

ROWS = 1_500


def _server(tmp_path=None, *, pool_size=1, max_queue=0, deadline_s=30.0,
            retry_after_s=0.25, shutdown_grace_s=10.0, memory_budget=None,
            parallelism=None):
    telemetry_dir = str(tmp_path / "qlog") if tmp_path is not None else None
    config = ServerConfig(
        host="127.0.0.1", port=0,
        admission=AdmissionConfig(
            max_queue=max_queue, deadline_s=deadline_s,
            retry_after_s=retry_after_s, shutdown_grace_s=shutdown_grace_s,
        ),
        tenants=[TenantConfig(
            "demo", cube="sales", rows=ROWS, pool_size=pool_size,
            telemetry_dir=telemetry_dir, memory_budget=memory_budget,
            parallelism=parallelism,
        )],
    )
    return ReproServer(config).start()


def test_slow_execution_trips_deadline_and_pool_stays_clean():
    server = _server(pool_size=1)
    try:
        blocker = threading.Event()

        def slow(tenant_id):
            blocker.wait(timeout=20.0)

        server.before_execute = slow
        start = time.monotonic()
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT,
             "deadline_s": 0.5},
            timeout=30.0,
        )
        elapsed = time.monotonic() - start
        assert status == 504
        assert document["error"]["code"] == "deadline_exceeded"
        assert "0.5" in document["error"]["message"]
        # The 504 came back on the deadline, not on the slow worker.
        assert elapsed < 5.0

        # Free the worker; the session must rejoin the pool clean and
        # serve the next request (pool_size=1, so it IS that session).
        blocker.set()
        server.before_execute = None
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.tenants["demo"].available() == 1:
                break
            time.sleep(0.05)
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
        )
        assert status == 200
        assert document["rows"] > 0

        admission = server.tenants["demo"].admission_stats()
        assert admission["errors"] == 1  # the aborted slow execution
        assert admission["completed"] >= 1
    finally:
        server.shutdown(grace_s=10.0)


def test_timed_out_scan_stops_at_the_next_morsel(tmp_path, monkeypatch):
    # A 1-byte budget routes the get through the spill tier, which scans
    # ROWS / morsel_rows morsels one at a time on the worker thread
    # (parallelism=1 keeps them off a pool); each is slowed to
    # morsel_sleep_s, so the whole scan far outlives the deadline.  The
    # worker must stop at its next morsel checkpoint.
    from repro.engine import executor

    morsel_rows, morsel_sleep_s, deadline_s = 100, 0.2, 0.5
    aggregate = executor._partial_aggregate
    ran = []

    def slow_morsel(*args):
        ran.append(time.monotonic())
        time.sleep(morsel_sleep_s)
        return aggregate(*args)

    monkeypatch.setattr(executor, "_partial_aggregate", slow_morsel)
    server = _server(tmp_path, pool_size=1, memory_budget=1, parallelism=1)
    tenant = server.tenants["demo"]
    tenant.engine.configure(morsel_rows=morsel_rows)
    try:
        start = time.monotonic()
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "deadline_s": deadline_s,
             "statement": "with SALES by month assess quantity labels quartiles"},
            timeout=30.0,
        )
        assert status == 504
        assert document["error"]["code"] == "deadline_exceeded"
        while tenant.available() < tenant.pool_size and time.monotonic() < start + 10:
            time.sleep(0.005)
        released = time.monotonic()
        assert tenant.available() == tenant.pool_size
        # Back in the pool within one morsel of the deadline (plus
        # scheduling slack), long before the scan would have finished.
        assert released - (start + deadline_s) < morsel_sleep_s + 0.15
        assert 0 < len(ran) < -(-ROWS // morsel_rows)
        assert tenant.admission_stats()["errors"] == 1
    finally:
        server.shutdown(grace_s=10.0)
    records = list(iter_records(tmp_path / "qlog", strict=True))
    assert [record["status"] for record in records] == ["error"]
    assert records[0]["error"].startswith("DeadlineExceeded")


def test_queue_saturation_returns_429_with_retry_after():
    server = _server(pool_size=1, max_queue=0, retry_after_s=0.25)
    try:
        blocker = threading.Event()
        server.before_execute = lambda tenant_id: blocker.wait(timeout=20.0)

        background = {}

        def occupy():
            background["response"] = post_json(
                f"{server.url}/v1/query",
                {"tenant": "demo", "statement": SALES_STATEMENT},
                timeout=60.0,
            )

        thread = threading.Thread(target=occupy)
        thread.start()
        # Wait until the one pooled session is checked out.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.tenants["demo"].available() == 0:
                break
            time.sleep(0.02)
        assert server.tenants["demo"].available() == 0

        status, document, headers = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
        )
        assert status == 429
        assert document["error"]["code"] == "overloaded"
        assert document["error"]["retry_after_s"] == 0.25
        assert headers["Retry-After"] == "0.25"

        blocker.set()
        thread.join(timeout=60.0)
        assert background["response"][0] == 200

        admission = server.tenants["demo"].admission_stats()
        assert admission["rejected_queue_full"] == 1
    finally:
        server.shutdown(grace_s=10.0)


def test_deadline_while_queued_returns_504():
    # max_queue=2 admits a waiter; the waiter's own deadline lapses
    # before the single session frees up.
    server = _server(pool_size=1, max_queue=2)
    try:
        blocker = threading.Event()
        server.before_execute = lambda tenant_id: blocker.wait(timeout=20.0)

        def occupy():
            post_json(
                f"{server.url}/v1/query",
                {"tenant": "demo", "statement": SALES_STATEMENT},
                timeout=60.0,
            )

        thread = threading.Thread(target=occupy)
        thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.tenants["demo"].available() == 0:
                break
            time.sleep(0.02)

        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT,
             "deadline_s": 0.4},
            timeout=30.0,
        )
        assert status == 504
        assert document["error"]["code"] == "deadline_exceeded"
        blocker.set()
        thread.join(timeout=60.0)
        assert server.tenants["demo"].admission_stats()["rejected_deadline"] == 1
    finally:
        server.shutdown(grace_s=10.0)


def test_mid_request_shutdown_drains_without_torn_qlog(tmp_path):
    server = _server(tmp_path, pool_size=2, max_queue=8)
    qlog_dir = tmp_path / "qlog"
    gate = threading.Event()
    started = threading.Event()

    def slowish(tenant_id):
        started.set()
        gate.wait(timeout=20.0)

    server.before_execute = slowish

    in_flight = {}

    def client():
        in_flight["response"] = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
            timeout=60.0,
        )

    thread = threading.Thread(target=client)
    thread.start()
    assert started.wait(timeout=10.0)

    # Shut down while that query executes; release it shortly after the
    # drain begins so the grace window sees it through.
    releaser = threading.Timer(0.3, gate.set)
    releaser.start()
    drained = server.shutdown(grace_s=15.0)
    assert drained, "shutdown failed to drain the in-flight query"
    thread.join(timeout=60.0)
    releaser.cancel()

    # The in-flight query completed normally...
    assert in_flight["response"][0] == 200
    assert in_flight["response"][1]["rows"] > 0

    # ...and a late arrival is refused while draining (the socket may
    # instead be closed already, which is equally acceptable).
    try:
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
            timeout=5.0,
        )
    except OSError:
        pass
    else:
        assert status == 503
        assert document["error"]["code"] == "shutting_down"

    # The query log holds only whole, schema-valid records: strict
    # parsing raises on any torn line.
    records = list(iter_records(qlog_dir, strict=True))
    assert len(records) == 1
    for record in records:
        validate_record(record)  # raises QueryLogError on violation
    assert records[0]["status"] == "ok"


def test_draining_server_rejects_new_requests_with_503():
    server = _server(pool_size=1)
    gate = threading.Event()
    started = threading.Event()

    def hold(tenant_id):
        started.set()
        gate.wait(timeout=20.0)

    server.before_execute = hold
    background = {}

    def client():
        background["response"] = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
            timeout=60.0,
        )

    thread = threading.Thread(target=client)
    thread.start()
    assert started.wait(timeout=10.0)

    shutdown_result = {}

    def stop():
        shutdown_result["drained"] = server.shutdown(grace_s=15.0)

    stopper = threading.Thread(target=stop)
    stopper.start()
    # Draining flips synchronously under the state lock; poll health
    # semantics via a new request instead (health itself still serves).
    deadline = time.monotonic() + 5.0
    refused = None
    while time.monotonic() < deadline:
        try:
            status, document, _ = post_json(
                f"{server.url}/v1/query",
                {"tenant": "demo", "statement": SALES_STATEMENT},
                timeout=5.0,
            )
        except OSError:
            break
        if status == 503:
            refused = document
            break
        time.sleep(0.05)
    gate.set()
    stopper.join(timeout=60.0)
    thread.join(timeout=60.0)
    assert shutdown_result["drained"]
    assert background["response"][0] == 200
    if refused is not None:
        assert refused["error"]["code"] == "shutting_down"


def test_error_envelope_for_engine_failure():
    # A statement that parses and lints clean but explodes at runtime
    # must come back as a 500 envelope, not a hung or torn response.
    server = _server(pool_size=1)
    try:
        def boom(tenant_id):
            raise RuntimeError("injected engine failure")

        server.before_execute = boom
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
        )
        assert status == 500
        assert document["error"]["code"] == "internal"
        assert "injected engine failure" in document["error"]["message"]
        server.before_execute = None
        # The pool recovered.
        status, document, _ = post_json(
            f"{server.url}/v1/query",
            {"tenant": "demo", "statement": SALES_STATEMENT},
        )
        assert status == 200
    finally:
        server.shutdown(grace_s=10.0)


def test_pooled_sessions_get_distinct_qlog_labels(tmp_path):
    # The PR's telemetry fix: two pooled sessions sharing one bundle
    # must write attributable (distinct) session labels.
    server = _server(tmp_path, pool_size=2, max_queue=8)
    qlog_dir = tmp_path / "qlog"
    try:
        gate = threading.Event()
        both_started = threading.Barrier(3, timeout=20.0)

        def hold(tenant_id):
            both_started.wait()
            gate.wait(timeout=20.0)

        server.before_execute = hold
        threads = [
            threading.Thread(target=post_json, args=(
                f"{server.url}/v1/query",
                {"tenant": "demo", "statement": SALES_STATEMENT},
            ), kwargs={"timeout": 60.0})
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        both_started.wait()  # both sessions are checked out concurrently
        gate.set()
        for thread in threads:
            thread.join(timeout=60.0)
        server.before_execute = None

        records = list(iter_records(qlog_dir, strict=True))
        assert len(records) == 2
        labels = {record["session"] for record in records}
        assert len(labels) == 2, (
            f"pooled sessions wrote colliding labels: {labels}"
        )
        stem = min(labels, key=len)
        assert all(label.startswith(stem) for label in labels)
    finally:
        server.shutdown(grace_s=10.0)

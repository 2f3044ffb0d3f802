"""The serving transport: one write per response, and what rides on it.

* **One write.**  Every response — results, health, Prometheus text,
  error envelopes, ``Retry-After`` 429s and the stdlib's own protocol
  errors — leaves the handler as a single ``wfile.write`` of status
  line, headers and body.  A header flush followed by a separate body
  write makes a keep-alive client wait out Nagle × delayed ACK
  (~40 ms) on every small answer; the latency test pins that floor.
* **Streaming stats.**  ``/v1/tenants/<id>/stats`` folds the query log
  in one pass: its memory follows the fingerprints, not the records,
  and its numbers equal the old materialise-everything computation.
* **Encoding failures are 500s.**  A document ``json`` cannot encode is
  answered with the ``internal`` envelope and counted as a 500; the
  keep-alive connection survives it.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import tracemalloc
import types

from repro.obs.qlog import QueryLog, iter_records
from repro.obs.watchdog import aggregate_history, watch
from repro.server import Tenant, TenantConfig

from .server_utils import SALES_STATEMENT, running_server


def _count_writes(server):
    """Record every ``wfile.write`` of the server's handlers."""
    writes = []
    base = server.httpd.RequestHandlerClass

    class Counting(base):
        def setup(self):
            super().setup()
            write = self.wfile.write

            def counted(data):
                writes.append(bytes(data))
                return write(data)

            self.wfile.write = counted

    server.httpd.RequestHandlerClass = Counting
    return writes


def _request(server, method, path, payload=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def _raw_exchange(server, request: bytes) -> bytes:
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:  # send_error closes the connection
                return b"".join(chunks)
            chunks.append(chunk)


def _assert_one_write(writes, status, body):
    assert len(writes) == 1, [w[:40] for w in writes]
    assert writes[0].startswith(f"HTTP/1.1 {status} ".encode())
    assert writes[0].endswith(b"\r\n\r\n" + body)


def test_every_response_is_one_write():
    tenants = [TenantConfig("demo", cube="sales", rows=2_000, pool_size=1)]
    with running_server(tenants, max_queue=0, retry_after_s=0.25) as server:
        writes = _count_writes(server)
        query = {"tenant": "demo", "statement": SALES_STATEMENT}

        for method, path, payload, expected in (
            ("POST", "/v1/query", query, 200),
            ("GET", "/v1/health", None, 200),
            ("GET", "/v1/metrics", None, 200),
            ("GET", "/v1/nope", None, 404),
        ):
            writes.clear()
            status, body, _ = _request(server, method, path, payload)
            assert status == expected
            _assert_one_write(writes, status, body)

        # 429 with Retry-After: the one session is held by a blocked query.
        blocker = threading.Event()
        server.before_execute = lambda tenant_id: blocker.wait(timeout=20.0)
        holder = threading.Thread(
            target=_request, args=(server, "POST", "/v1/query", query)
        )
        holder.start()
        try:
            tenant = server.tenants["demo"]
            deadline = time.monotonic() + 10.0
            while tenant.available() and time.monotonic() < deadline:
                time.sleep(0.01)
            writes.clear()
            status, body, headers = _request(server, "POST", "/v1/query", query)
            rejected = list(writes)  # before the held query answers too
        finally:
            blocker.set()
            holder.join(timeout=30.0)
        assert status == 429 and headers["Retry-After"] == "0.25"
        _assert_one_write(rejected, status, body)

        # The stdlib's own protocol errors come back as the JSON envelope.
        for request, status, code in (
            (b"GET / HTTP/2.0\r\n\r\n", 505, "http_version_not_supported"),
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        ):
            writes.clear()
            raw = _raw_exchange(server, request)
            head, body = raw.split(b"\r\n\r\n", 1)
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert b"Connection: close" in head
            error = json.loads(body)["error"]
            assert (error["status"], error["code"]) == (status, code)
            _assert_one_write(writes, status, body)


def test_keep_alive_small_answers_pay_no_ack_stall():
    with running_server() as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        body = json.dumps({"tenant": "demo", "statement": SALES_STATEMENT})
        latencies = []
        try:
            for index in range(31):
                start = time.perf_counter()
                connection.request("POST", "/v1/query", body=body)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                if index:  # the first request warms the cache
                    latencies.append(time.perf_counter() - start)
        finally:
            connection.close()
    assert statistics.median(latencies) < 0.020, sorted(latencies)


def _write_log(directory, records, fingerprints=20, sessions=2):
    log = QueryLog(directory)
    for seq in range(records):
        log.append({
            "v": 1, "ts": 1.7e9 + seq, "session": f"s-{seq % sessions}",
            "seq": seq, "fingerprint": f"{seq % fingerprints:016x}",
            "cube": "SALES", "measure": "storeSales", "group_by": ["month"],
            "benchmark": "none", "plan": "NP",
            "status": "error" if seq % 50 == 0 else "ok",
            "phases": {"get": 0.001, "compare": 0.0002, "label": 0.0003},
            "total_s": 0.002 + (seq % 7) * 1e-4,
            "rows_in": 2000, "rows_out": 12, "cells_out": 48,
            "counters": {
                "cache.hits": 1, "cache.misses": 0, "engine.scans": 0,
                "engine.rows_scanned": 0, "engine.spill.spills": seq % 3,
                "obs.qlog_records": 1, "wire.cells": 48,
            },
            "peak_rss_kb": 80_000, "parallelism": 1,
        })
    log.close()


def _listed_stats(directory):
    """The list-materialising computation the endpoint used to run."""
    records = list(iter_records(directory))
    history = aggregate_history(records)
    return {
        "records": len(records),
        "fingerprints": len(history),
        "sessions": sorted({str(r.get("session", "")) for r in records}),
        "advisories": [
            {"code": a.code, "fingerprint": a.fingerprint, "message": a.message}
            for a in watch(history, baseline=None)
        ],
    }


def test_stats_stream_the_query_log(tmp_path):
    peaks = {}
    for records in (1_000, 8_000):
        directory = tmp_path / f"log-{records}"
        _write_log(directory, records)
        stub = types.SimpleNamespace(
            telemetry=types.SimpleNamespace(directory=directory)
        )
        tracemalloc.start()
        try:
            stats = Tenant._telemetry_stats(stub)
            peaks[records] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = _listed_stats(directory)
        assert stats["advisories"], "the synthetic log should raise ASSESS412"
        for key, value in expected.items():
            assert stats[key] == value, key
    assert peaks[8_000] < 2 * peaks[1_000], peaks


def test_unencodable_document_is_a_counted_500(monkeypatch):
    from repro.server import app as app_module

    with running_server() as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        body = json.dumps({"tenant": "demo", "statement": SALES_STATEMENT})
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    app_module, "serialize_result", lambda *args: {"cells": {1, 2}}
                )
                connection.request("POST", "/v1/query", body=body)
                response = connection.getresponse()
                error = json.loads(response.read())["error"]
            assert response.status == 500
            assert error["code"] == "internal"
            assert "not JSON serializable" in error["message"]

            connection.request("POST", "/v1/query", body=body)  # same socket
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["rows"] > 0
        finally:
            connection.close()
        # Counted before the same connection served the next request.
        assert server._responses.get(500) == 1

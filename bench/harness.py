"""Set-up, closed-loop load generation and the server subprocess.

Everything here runs in the *worker* process that ``run.py`` spawns once
per set-up.  Every loop is closed: a client sends its next statement
only after the previous reply was read and verified.  Verification and
cache clearing happen between operations with the clock stopped, so
``ops_per_s`` is operations per second the clients spent *waiting on
the program*, summed over clients.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import verify
from workloads import Op, Workload

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
TENANT = "ssb"
OP_TIMEOUT_S = 10.0
"""An operation slower than this is a failure and misses every latency figure."""
SERVER_START_TIMEOUT_S = 60.0

clock = time.perf_counter


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """What one timed phase observed, before and after verification."""

    latencies: List[float] = field(default_factory=list)
    """Seconds per *correct* timed operation, all clients pooled."""
    attempted: int = 0
    failed: int = 0
    busy_s: Dict[int, float] = field(default_factory=dict)
    """Per client: seconds spent inside timed operations."""
    correct_by_client: Dict[int, int] = field(default_factory=dict)
    cells: Dict[str, int] = field(default_factory=dict)
    """Result cells per distinct statement (last seen)."""
    counters: Dict[str, int] = field(default_factory=dict)
    """Engine/cache/batch counter deltas summed over timed operations."""
    decode_s: float = 0.0
    """The benchmark's own between-op work (parse, digest, compare)."""
    errors: List[str] = field(default_factory=list)

    def record(self, client: int, latency: float, ok: bool) -> None:
        self.attempted += 1
        self.busy_s[client] = self.busy_s.get(client, 0.0) + latency
        if ok and latency <= OP_TIMEOUT_S:
            self.latencies.append(latency)
            self.correct_by_client[client] = self.correct_by_client.get(client, 0) + 1
        else:
            self.failed += 1

    def fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.latencies)

    def p95_ms(self) -> float:
        ordered = sorted(self.latencies)
        return 1000.0 * ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    def ops_per_s(self) -> float:
        return sum(
            self.correct_by_client.get(client, 0) / busy
            for client, busy in self.busy_s.items()
            if busy > 0
        )


def counter_delta(before: Dict[str, int], after: Dict[str, int], into: Dict[str, int]) -> None:
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            into[name] = into.get(name, 0) + delta


# ----------------------------------------------------------------------
# In-process set-up and loops
# ----------------------------------------------------------------------
def setup_session(rows: int, seed: int):
    """The dataset, engine and session; returns (session, timing breakdown)."""
    start = clock()
    from repro import AssessSession
    from repro.experiments.statements import prepare_engine

    imported = clock()
    engine = prepare_engine(rows, seed=seed)
    generated = clock()
    session = AssessSession(engine)
    return session, {
        "setup.import_s": imported - start,
        "setup.datagen_s": generated - imported,
        "setup.session_s": clock() - generated,
    }


def execute(session, workload: Workload, op: Op) -> list:
    """Run one operation through the public API; returns its results."""
    if workload.kind == "batch":
        return list(session.execute_many(list(op.statements)).results)
    return [session.assess(op.statements[0])]


def warm_up_inprocess(session, workload: Workload) -> None:
    """One untimed round: lazy imports, allocator and (if kept) the cache."""
    for op in next(workload.rounds()):
        execute(session, workload, op)
    if workload.clear is not None:
        session.clear_cache()


def run_inprocess(
    session,
    workload: Workload,
    seconds: float,
    min_ops: int,
    run_op: Callable = execute,
) -> Tuple[Samples, List[Tuple[float, bool, Tuple[str, ...], tuple]]]:
    """Whole rounds until ``seconds`` of wall time and ``min_ops`` are spent.

    Returns the samples plus, per operation, ``(latency, timed,
    statements, digests)`` — digests are compared with the NP references
    only *after* the phase (:func:`settle_inprocess`), so the reference
    executions cannot raise the measured process's peak RSS.
    """
    samples = Samples()
    observed: List[Tuple[float, bool, Tuple[str, ...], tuple]] = []
    metrics = session.engine.metrics
    deadline = clock() + seconds
    timed_ops = 0
    for ops in workload.rounds():
        if workload.clear == "round":
            session.clear_cache()
        for op in ops:
            if workload.clear == "op":
                session.clear_cache()
            before = metrics.snapshot()["counters"]
            start = clock()
            try:
                results = run_op(session, workload, op)
                latency = clock() - start
            except Exception as error:  # noqa: BLE001 - a failed op, counted
                latency = clock() - start
                samples.fail(f"{type(error).__name__}: {error}")
                results = None
            after = metrics.snapshot()["counters"]
            digests: tuple = ()
            if results is not None:
                decode_start = clock()
                digests = tuple(verify.digest(result) for result in results)
                samples.decode_s += clock() - decode_start
                for text, result in zip(op.statements, results):
                    samples.cells[text] = len(result)
            if op.timed:
                timed_ops += 1
                counter_delta(before, after, samples.counters)
            observed.append((latency, op.timed, op.statements, digests))
        if clock() >= deadline and timed_ops >= min_ops:
            break
    return samples, observed


def settle_inprocess(samples: Samples, observed, expected: Dict[str, tuple]) -> None:
    """Compare every observed digest with its NP reference and count."""
    for latency, timed, statements, digests in observed:
        ok = len(digests) == len(statements) and all(
            digest == expected[text] for text, digest in zip(statements, digests)
        )
        if not ok and digests:
            samples.fail("digest mismatch for\n" + statements[0])
        if timed:
            samples.record(0, latency, ok)
        elif not ok:  # an untimed anchor still has to be right
            samples.attempted += 1
            samples.failed += 1


# ----------------------------------------------------------------------
# Server subprocess and HTTP clients
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """``python -m repro serve --config <generated>`` as a subprocess.

    A subprocess, not a thread: client and server must not share a GIL.
    Telemetry is on, as in production, into a scratch directory that is
    removed on :meth:`stop`.
    """

    def __init__(self, rows: int, seed: int, pool_size: int = 2):
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="server-", dir=OUT_DIR))
        self.port = _free_port()
        config = {
            "host": "127.0.0.1",
            "port": self.port,
            "tenants": {TENANT: {
                "cube": "ssb", "rows": rows, "seed": seed,
                "pool_size": pool_size,
                "telemetry_dir": str(self.workdir / "telemetry"),
            }},
        }
        config_path = self.workdir / "server.json"
        config_path.write_text(json.dumps(config))
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--config", str(config_path)],
            env=environment, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.peak_rss_mb = 0.0
        self._stopped = False

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)

    def wait_healthy(self) -> None:
        give_up = clock() + SERVER_START_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode} "
                    "before becoming healthy"
                )
            connection = self.connect()
            try:
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if clock() > give_up:
                raise RuntimeError("server did not become healthy in time")
            time.sleep(0.01)

    def stats(self) -> Dict[str, object]:
        connection = self.connect()
        try:
            connection.request("GET", f"/v1/tenants/{TENANT}/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (graceful drain), wait, kill if needed; record peak RSS."""
        if self._stopped:
            return
        self._stopped = True
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # The server is this worker's only child, so the children's
        # high-water mark is the server's.
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = peak_kb / 1024.0
        shutil.rmtree(self.workdir, ignore_errors=True)


def post_query(connection: http.client.HTTPConnection, text: str) -> Tuple[int, bytes]:
    """One ``POST /v1/query``; returns once the last body byte is read."""
    body = json.dumps({"tenant": TENANT, "statement": text}).encode("utf-8")
    connection.request(
        "POST", "/v1/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def warm_up_served(server: Server, workload: Workload) -> None:
    connection = server.connect()
    try:
        for text in workload.statements():
            status, body = post_query(connection, text)
            if status != 200:
                raise RuntimeError(f"warm-up got HTTP {status}: {body[:200]!r}")
    finally:
        connection.close()


def run_served(
    server: Server,
    workload: Workload,
    expected: Dict[str, Dict[str, object]],
    seconds: float,
    min_ops: int,
) -> Samples:
    """``workload.clients`` keep-alive connections, one thread each."""
    samples = Samples()
    lock = threading.Lock()
    deadline = clock() + seconds
    floor = -(-min_ops // workload.clients)

    def client(index: int) -> None:
        connection = server.connect()
        done = broken = 0
        try:
            for ops in workload.rounds(index):
                for op in ops:
                    text = op.statements[0]
                    start = clock()
                    try:
                        status, body = post_query(connection, text)
                        broken = 0
                    except (OSError, http.client.HTTPException) as error:
                        status, body = 0, repr(error).encode()
                        broken += 1
                        connection.close()
                        connection = server.connect()
                    latency = clock() - start
                    decode_start = clock()
                    try:
                        served = json.loads(body) if status == 200 else None
                    except ValueError:
                        served = None
                    ok = verify.tree_matches(served, expected[text])
                    decode_s = clock() - decode_start
                    with lock:
                        samples.decode_s += decode_s
                        if ok:
                            samples.cells[text] = int(served.get("rows", -1))
                        else:
                            samples.fail(
                                f"HTTP {status}, {body[:120]!r} for\n{text}"
                            )
                        samples.record(index, latency, ok)
                    done += 1
                # Three transport errors in a row: the server is gone.
                if broken >= 3 or (clock() >= deadline and done >= floor):
                    break
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def served_counters(stats: Dict[str, object]) -> Dict[str, int]:
    """The stats document flattened to the counters the ledger reads."""
    flat = dict(stats.get("counters", {}))
    admission = stats.get("admission", {})
    flat["server.admitted"] = admission.get("admitted", 0)
    flat["server.rejected_429"] = admission.get("rejected_queue_full", 0)
    flat["server.timeouts_504"] = admission.get("rejected_deadline", 0)
    flat["obs.qlog_records"] = stats.get("telemetry", {}).get("records", 0)
    return flat

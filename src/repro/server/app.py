"""The HTTP serving layer: routing, envelopes, deadlines, shutdown.

:class:`ReproServer` wraps a stdlib ``ThreadingHTTPServer`` (one
thread per connection, no new dependencies) around a tenant map.  The
request life cycle for ``POST /v1/query``:

1. **drain gate** — a draining server answers 503 immediately;
2. **routing + body** — malformed JSON or an unknown tenant never
   touches a session (400/404);
3. **admission** — a pooled session is checked out under the bounded
   queue (429 + ``Retry-After`` on saturation, 504 if the deadline
   lapses while queued);
4. **lint** — the statement runs through the static analyzer; error
   diagnostics (ASSESSxxx) come back as a 422 envelope, and otherwise
   the statement the analyzer bound is the one that runs, so the text
   is parsed once;
5. **execution** — runs on a worker thread so the per-request deadline
   is enforced as a hard response timeout (504); the worker gets the
   deadline too, stops at its next plan-operator or morsel checkpoint,
   and returns the session to the pool either way, so a timed-out
   request can never leak or corrupt a pooled session;
6. **response** — the serialized result (``repro.server.wire``), bit-
   identical to direct :class:`~repro.api.AssessSession` execution, in
   one ``wfile.write``: a header flush then a body write stalls
   keep-alive clients on Nagle × delayed ACK.

Error envelope (every non-200)::

    {"schema_version": 2,
     "error": {"status": 422, "code": "lint_failed",
               "message": "...", "diagnostics": [...]}}

Graceful shutdown (:meth:`ReproServer.shutdown`) flips the drain gate,
waits for in-flight requests *and* their workers to finish, stops the
listener, and closes every tenant's telemetry bundle — which is why
the fault suite can assert a mid-request shutdown leaves no torn
query-log records.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import AnalysisContext, analyze_text
from ..core.deadline import Deadline, DeadlineExceeded
from ..core.statement import AssessStatement
from .config import VALID_PLANS, ServerConfig
from .tenant import AdmissionRejected, Tenant
from .wire import (
    SCHEMA_VERSION,
    serialize_batch,
    serialize_result,
)

MAX_BODY_BYTES = 4 * 1024 * 1024


def _encode(document: Dict[str, object]) -> bytes:
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


class _HTTPServer(ThreadingHTTPServer):
    # The stdlib listen backlog is 5; a 16-client burst overflows it
    # and dropped SYNs surface as connection resets / 1s retransmit
    # stalls.  Admission control is the bounded queue — the TCP layer
    # must not be the (silent, lossy) one.
    request_queue_size = 128


class RequestError(Exception):
    """A request that maps to a non-200 JSON envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        diagnostics: Optional[List[Dict[str, object]]] = None,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.diagnostics = diagnostics
        self.retry_after_s = retry_after_s

    def envelope(self) -> Dict[str, object]:
        error: Dict[str, object] = {
            "status": self.status,
            "code": self.code,
            "message": self.message,
        }
        if self.diagnostics is not None:
            error["diagnostics"] = self.diagnostics
        if self.retry_after_s is not None:
            error["retry_after_s"] = self.retry_after_s
        return {"schema_version": SCHEMA_VERSION, "error": error}


class LintFailure(RequestError):
    """A statement the static analyzer rejected (ASSESSxxx errors)."""

    def __init__(self, bag, statement_index: Optional[int] = None):
        diagnostics = [d.to_json() for d in bag.sorted()]
        codes = sorted({
            d["code"] for d in diagnostics if str(d["severity"]) == "error"
        })
        where = (
            "statement" if statement_index is None
            else f"statement {statement_index}"
        )
        super().__init__(
            422, "lint_failed",
            f"{where} failed static analysis ({', '.join(codes)})",
            diagnostics=diagnostics,
        )


class ReproServer:
    """A multi-tenant assess server over one :class:`ServerConfig`."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.tenants: Dict[str, Tenant] = {
            tenant_id: Tenant(tenant_config, config.admission)
            for tenant_id, tenant_config in config.tenants.items()
        }
        self.started_at = time.time()
        # Fault-injection hook (test/bench only): called inside the
        # execution worker, before the statement runs — a sleeping hook
        # simulates a slow tenant without touching engine code.
        self.before_execute = None
        self._state_lock = threading.Lock()
        self._drained = threading.Condition(self._state_lock)
        self._in_flight = 0
        self._executing = 0
        self._draining = False
        self._requests_total = 0
        self._responses: Dict[int, int] = {}
        handler = _make_handler(self)
        self.httpd = _HTTPServer((config.host, config.port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._serving = False

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve in a background thread (the test/bench entry point)."""
        self._serving = True
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._serving = True
        self.httpd.serve_forever()

    def shutdown(self, grace_s: Optional[float] = None) -> bool:
        """Drain in-flight queries, stop the listener, close tenants.

        New requests are answered 503 the moment draining starts.
        Returns ``True`` when every in-flight request and execution
        worker finished within the grace period.
        """
        if grace_s is None:
            grace_s = self.config.admission.shutdown_grace_s
        with self._drained:
            self._draining = True
            drained = self._drained.wait_for(
                lambda: self._in_flight == 0 and self._executing == 0,
                timeout=grace_s,
            )
        if self._serving:
            # httpd.shutdown() blocks on the serve loop acknowledging;
            # with no loop ever started (--check) it would hang forever.
            self.httpd.shutdown()
            self._serving = False
        self.httpd.server_close()
        for tenant in self.tenants.values():
            tenant.close()
        return drained

    # ------------------------------------------------------------------
    # Request bookkeeping (handler-thread side)
    # ------------------------------------------------------------------
    def _enter_request(self) -> None:
        with self._state_lock:
            if self._draining:
                raise RequestError(
                    503, "shutting_down", "server is draining; not accepting "
                    "new requests",
                )
            self._in_flight += 1
            self._requests_total += 1

    def _exit_request(self, status: int) -> None:
        with self._drained:
            self._in_flight -= 1
            self._responses[status] = self._responses.get(status, 0) + 1
            self._drained.notify_all()

    # ------------------------------------------------------------------
    # Deadline-bounded execution
    # ------------------------------------------------------------------
    def _resolve_deadline(self, payload: Dict[str, object]) -> Deadline:
        admission = self.config.admission
        requested = payload.get("deadline_s")
        if requested is None:
            return Deadline(admission.deadline_s)
        if not isinstance(requested, (int, float)) or isinstance(requested, bool) \
                or requested <= 0:
            raise RequestError(
                400, "bad_request", "'deadline_s' must be a positive number"
            )
        return Deadline(min(float(requested), admission.deadline_s))

    def _execute(self, tenant: Tenant, deadline: Deadline, work):
        """Run ``work(session)`` on a worker thread under the deadline.

        The worker owns the session: it returns it to the pool in its
        ``finally``, so a 504ed request's session rejoins the pool clean
        once ``work`` stops at its next deadline checkpoint.  The worker also
        counts toward the drain gate — shutdown waits for it, which
        keeps telemetry appends ahead of ``tenant.close()``.
        """
        session = tenant.acquire(deadline)
        with self._state_lock:
            self._executing += 1
        box: Dict[str, object] = {}
        done = threading.Event()

        def run() -> None:
            ok = False
            try:
                if self.before_execute is not None:
                    self.before_execute(tenant.tenant_id)
                deadline.check("admission")
                box["value"] = work(session)
                ok = True
            except BaseException as error:  # noqa: BLE001 - re-raised below
                box["error"] = error
            finally:
                tenant.release(session, ok=ok)
                with self._drained:
                    self._executing -= 1
                    self._drained.notify_all()
                done.set()

        worker = threading.Thread(target=run, name="repro-exec", daemon=True)
        worker.start()
        if not done.wait(timeout=deadline.remaining() + 0.001):
            raise DeadlineExceeded(
                f"execution exceeded the {deadline.seconds:g}s deadline "
                f"(tenant {tenant.tenant_id!r})"
            )
        error = box.get("error")
        if error is not None:
            raise error  # type: ignore[misc]
        return box["value"]

    # ------------------------------------------------------------------
    # Shared request plumbing
    # ------------------------------------------------------------------
    def _tenant(self, payload: Dict[str, object]) -> Tenant:
        tenant_id = payload.get("tenant")
        if not isinstance(tenant_id, str) or not tenant_id:
            raise RequestError(
                400, "bad_request", "'tenant' must be a non-empty string"
            )
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise RequestError(
                404, "unknown_tenant",
                f"unknown tenant {tenant_id!r} "
                f"(configured: {', '.join(sorted(self.tenants))})",
            )
        return tenant

    @staticmethod
    def _plan(payload: Dict[str, object]) -> str:
        plan = payload.get("plan", "best")
        if plan not in VALID_PLANS:
            raise RequestError(
                400, "bad_request",
                f"'plan' must be one of {list(VALID_PLANS)}, got {plan!r}",
            )
        return str(plan)

    @staticmethod
    def _statement(payload: Dict[str, object], key: str = "statement") -> str:
        statement = payload.get(key)
        if not isinstance(statement, str) or not statement.strip():
            raise RequestError(
                400, "bad_request", f"'{key}' must be a non-empty string"
            )
        return statement

    @staticmethod
    def _page(payload: Dict[str, object], key: str) -> Optional[int]:
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 0
        ):
            raise RequestError(
                400, "bad_request", f"'{key}' must be a non-negative integer"
            )
        return value

    @staticmethod
    def _lint(session, statement: str, index: Optional[int] = None) -> AssessStatement:
        """The statement the analyzer bound, the one the request then runs,
        so each statement is parsed once (``session.analyze`` makes the
        same call)."""
        bound, bag = analyze_text(statement, AnalysisContext.for_session(session))
        if bag.has_errors:
            raise LintFailure(bag, statement_index=index)
        return bound

    # ------------------------------------------------------------------
    # Endpoint bodies (return (status, document) or (status, text, mime))
    # ------------------------------------------------------------------
    def handle_query(self, payload: Dict[str, object]) -> Dict[str, object]:
        tenant = self._tenant(payload)
        plan = self._plan(payload)
        statement = self._statement(payload)
        offset = self._page(payload, "offset") or 0
        limit = self._page(payload, "limit")
        deadline = self._resolve_deadline(payload)
        start = time.perf_counter()

        def work(session):
            bound = self._lint(session, statement)
            deadline.check("planning")
            result = session.assess(bound, plan=plan, deadline=deadline)
            return serialize_result(result, offset, limit)

        document = self._execute(tenant, deadline, work)
        document.update(
            schema_version=SCHEMA_VERSION,
            tenant=tenant.tenant_id,
            elapsed_s=round(time.perf_counter() - start, 9),
        )
        return document

    def handle_batch(self, payload: Dict[str, object]) -> Dict[str, object]:
        tenant = self._tenant(payload)
        plan = self._plan(payload)
        statements = payload.get("statements")
        if (
            not isinstance(statements, list)
            or not statements
            or not all(isinstance(s, str) and s.strip() for s in statements)
        ):
            raise RequestError(
                400, "bad_request",
                "'statements' must be a non-empty array of statement strings",
            )
        deadline = self._resolve_deadline(payload)
        start = time.perf_counter()

        def work(session):
            bound = [
                self._lint(session, statement, index=index)
                for index, statement in enumerate(statements)
            ]
            deadline.check("planning")
            batch = session.execute_many(bound, plan=plan, deadline=deadline)
            return serialize_batch(batch)

        document = self._execute(tenant, deadline, work)
        document.update(
            schema_version=SCHEMA_VERSION,
            tenant=tenant.tenant_id,
            elapsed_s=round(time.perf_counter() - start, 9),
        )
        return document

    def handle_explain(self, payload: Dict[str, object]) -> Dict[str, object]:
        tenant = self._tenant(payload)
        plan = self._plan(payload)
        if plan == "auto":
            raise RequestError(
                400, "bad_request", "explain does not support plan 'auto'; "
                "pick NP, JOP, POP, or best",
            )
        statement = self._statement(payload)
        deadline = self._resolve_deadline(payload)

        def work(session):
            bound = self._lint(session, statement)
            deadline.check("planning")
            return {
                "plans": list(session.feasible_plans(bound)),
                "explain": session.explain(bound, plan=plan),
            }

        document = self._execute(tenant, deadline, work)
        document.update(
            schema_version=SCHEMA_VERSION, tenant=tenant.tenant_id, plan=plan
        )
        return document

    def handle_health(self) -> Dict[str, object]:
        with self._state_lock:
            draining = self._draining
            in_flight = self._in_flight
            requests_total = self._requests_total
        return {
            "schema_version": SCHEMA_VERSION,
            "status": "draining" if draining else "ok",
            "tenants": sorted(self.tenants),
            "uptime_s": round(time.time() - self.started_at, 3),
            "in_flight": in_flight,
            "requests_total": requests_total,
        }

    def handle_metrics(self) -> str:
        """Prometheus text: the process roll-up plus per-tenant families."""
        from ..obs.export import to_prometheus

        parts = [to_prometheus()]
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            hub = (
                tenant.telemetry.hub if tenant.telemetry is not None else None
            )
            parts.append(to_prometheus(
                tenant.engine.metrics, hub=hub,
                namespace=f"repro_tenant_{tenant_id}",
            ))
        return "".join(part for part in parts if part)

    def handle_tenant_stats(self, tenant_id: str) -> Dict[str, object]:
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise RequestError(
                404, "unknown_tenant", f"unknown tenant {tenant_id!r}"
            )
        document = tenant.stats()
        document["schema_version"] = SCHEMA_VERSION
        return document

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReproServer({self.url}, tenants={sorted(self.tenants)})"


# ----------------------------------------------------------------------
# The stdlib handler: routing and envelope writing only
# ----------------------------------------------------------------------
def _make_handler(app: ReproServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-assess/1"

        # Quiet by default: the serving loop must not spam test output.
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        # -- plumbing ---------------------------------------------------
        def _send(
            self, status: int, body: bytes, mime: Optional[str] = None,
            headers: Sequence[Tuple[str, str]] = (),
        ) -> None:
            """Status line, headers and body in one ``wfile.write``."""
            head = [
                f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                f"Content-Type: {mime or 'application/json'}",
                f"Content-Length: {len(body)}",
                *(f"{name}: {value}" for name, value in headers),
            ]
            self.wfile.write(
                "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body
            )

        def _send_error_envelope(
            self, error: RequestError, headers: Sequence[Tuple[str, str]] = ()
        ) -> None:
            if error.retry_after_s is not None:
                headers = [*headers, ("Retry-After", f"{error.retry_after_s:g}")]
            self._send(error.status, _encode(error.envelope()), headers=headers)

        def send_error(self, code, message=None, explain=None):
            """The stdlib's protocol errors (malformed request line, 414,
            431, 501, 505) as the JSON envelope; the connection closes."""
            self.close_connection = True
            status = HTTPStatus(code)
            self._send_error_envelope(
                RequestError(code, status.name.lower(), message or status.phrase),
                [("Connection", "close")],
            )

        def _read_payload(self) -> Dict[str, object]:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise RequestError(
                    400, "bad_request", "invalid Content-Length"
                ) from None
            if length <= 0:
                raise RequestError(
                    400, "bad_request", "request body is required"
                )
            if length > MAX_BODY_BYTES:
                raise RequestError(
                    413, "payload_too_large",
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                )
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise RequestError(
                    400, "bad_json", "request body is not valid JSON"
                ) from None
            if not isinstance(payload, dict):
                raise RequestError(
                    400, "bad_request", "request body must be a JSON object"
                )
            return payload

        # -- routing ----------------------------------------------------
        def _route(self, method: str) -> Tuple[int, object, Optional[str]]:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if method == "GET":
                if path == "/v1/health":
                    return 200, app.handle_health(), None
                if path == "/v1/metrics":
                    return 200, app.handle_metrics(), "text/plain; version=0.0.4"
                if path.startswith("/v1/tenants/") and path.endswith("/stats"):
                    tenant_id = path[len("/v1/tenants/"):-len("/stats")]
                    return 200, app.handle_tenant_stats(tenant_id), None
                if path in ("/v1/query", "/v1/batch", "/v1/explain"):
                    raise RequestError(
                        405, "method_not_allowed", f"{path} requires POST"
                    )
                raise RequestError(404, "not_found", f"unknown path {path!r}")
            if method == "POST":
                if path == "/v1/query":
                    return 200, app.handle_query(self._read_payload()), None
                if path == "/v1/batch":
                    return 200, app.handle_batch(self._read_payload()), None
                if path == "/v1/explain":
                    return 200, app.handle_explain(self._read_payload()), None
                if path in ("/v1/health", "/v1/metrics") or (
                    path.startswith("/v1/tenants/") and path.endswith("/stats")
                ):
                    raise RequestError(
                        405, "method_not_allowed", f"{path} requires GET"
                    )
                raise RequestError(404, "not_found", f"unknown path {path!r}")
            raise RequestError(
                405, "method_not_allowed", f"unsupported method {method}"
            )

        def _handle(self, method: str) -> None:
            status = 500
            try:
                app._enter_request()
            except RequestError as error:
                # Draining: answer without touching the in-flight gate.
                self._send_error_envelope(error)
                return
            try:
                try:
                    status, document, mime = self._route(method)
                    # Encoded here so an unencodable document is a 500.
                    body = _encode(document) if mime is None else str(document).encode("utf-8")
                except RequestError:
                    raise
                except AdmissionRejected as error:
                    raise RequestError(
                        429, "overloaded", str(error),
                        retry_after_s=error.retry_after_s,
                    ) from None
                except DeadlineExceeded as error:
                    raise RequestError(
                        504, "deadline_exceeded", str(error)
                    ) from None
                except Exception as error:  # noqa: BLE001 - envelope + 500
                    raise RequestError(
                        500, "internal",
                        f"{type(error).__name__}: {error}",
                    ) from error
                self._send(status, body, mime)
            except RequestError as error:
                status = error.status
                self._send_error_envelope(error)
            finally:
                app._exit_request(status)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("POST")

        def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("PUT")

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("DELETE")

    return Handler


# ----------------------------------------------------------------------
# CLI entry point: ``python -m repro.cli serve``
# ----------------------------------------------------------------------
def serve_main(argv=None) -> int:
    """``python -m repro.cli serve [argv]``: parsed by the CLI's command
    table, run by :func:`serve`."""
    from ..cli import main

    return main(["serve", *(sys.argv[1:] if argv is None else argv)])


def serve(args) -> int:
    """The ``serve`` subcommand: stand up the multi-tenant HTTP server.

    Either ``--config PATH`` (JSON; TOML on Python 3.11+) or the quick
    flags (``--tenants a,b --cube ssb --rows N``) describe the tenants;
    ``--check`` builds everything, prints the endpoint map, and exits
    without binding a socket loop (the CI smoke uses it).  SIGINT
    triggers the graceful drain.
    """
    from .config import (
        AdmissionConfig,
        ServerConfigError,
        TenantConfig,
        load_config,
    )

    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            admission_kwargs = {}
            if args.max_queue is not None:
                admission_kwargs["max_queue"] = args.max_queue
            if args.deadline is not None:
                admission_kwargs["deadline_s"] = args.deadline
            tenants = []
            for tenant_id in args.tenants.split(","):
                tenant_id = tenant_id.strip()
                if not tenant_id:
                    continue
                telemetry_dir = None
                if args.telemetry_dir is not None:
                    telemetry_dir = f"{args.telemetry_dir}/{tenant_id}"
                tenants.append(TenantConfig(
                    tenant_id,
                    cube=args.cube,
                    rows=args.rows,
                    store=args.store,
                    pool_size=args.pool_size,
                    parallelism=args.parallelism,
                    memory_budget=args.memory_bytes,
                    telemetry_dir=telemetry_dir,
                ))
            config = ServerConfig(
                host=args.host if args.host is not None else "127.0.0.1",
                port=args.port if args.port is not None else 8787,
                admission=AdmissionConfig(**admission_kwargs),
                tenants=tenants,
            )
        if args.config is not None and args.host is not None:
            config.host = args.host
        if args.config is not None and args.port is not None:
            config.port = args.port
        server = ReproServer(config)
    except ServerConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"repro assess server listening on {server.url}")
    for tenant_id in sorted(server.tenants):
        tenant = server.tenants[tenant_id]
        print(f"  tenant {tenant_id}: cube {tenant.config.store or tenant.config.cube}, "
              f"pool {tenant.pool_size}, "
              f"max queue {config.admission.max_queue}, "
              f"deadline {config.admission.deadline_s:g}s")
    print(f"  POST {server.url}/v1/query | /v1/batch | /v1/explain")
    print(f"  GET  {server.url}/v1/health | /v1/metrics | "
          f"/v1/tenants/<id>/stats")
    if args.check:
        server.shutdown(grace_s=0.0)
        print("--check: configuration and tenants OK, exiting")
        return 0
    try:
        server.serve_forever()  # pragma: no cover - interactive loop
    except KeyboardInterrupt:  # pragma: no cover - interactive loop
        print("draining in-flight queries ...", file=sys.stderr)
        server.shutdown()
    return 0

"""The multi-tenant assess server: HTTP/JSON serving over the engine.

``repro serve`` stands up a zero-dependency HTTP server (stdlib
``http.server``) in the spirit of Cubes' Slicer: each *tenant* owns an
isolated catalog, engine, semantic cache, and a pool of
:class:`~repro.api.AssessSession` objects, so concurrent analysts get
the full stack — semantic cache, batched fusion, parallel morsels,
spill tier, telemetry — without sharing state across tenants.

Endpoints (all JSON, schema version 1 — see ``docs/server.md``):

* ``POST /v1/query``   — one assess statement
* ``POST /v1/batch``   — a statement batch with fused shared scans
* ``POST /v1/explain`` — the plan tree + pushed SQL, no execution
* ``GET  /v1/health``  — liveness, tenants, in-flight count
* ``GET  /v1/metrics`` — Prometheus text (global + per tenant)
* ``GET  /v1/tenants/<id>/stats`` — pool, admission, cache, watchdog

Admission control: requests wait in a bounded per-tenant queue for a
pooled session; saturation answers ``429`` with ``Retry-After``, and a
per-request deadline (``deadline_s``) is enforced while queued, before
each plan operator and morsel, and as a hard response timeout (``504``).
Shutdown drains in-flight queries before closing tenant telemetry.
"""

from ..core.deadline import Deadline, DeadlineExceeded
from .app import ReproServer, serve_main
from .config import (
    AdmissionConfig,
    ServerConfig,
    ServerConfigError,
    TenantConfig,
    load_config,
)
from .tenant import AdmissionRejected, Tenant
from .wire import SCHEMA_VERSION, serialize_batch, serialize_result

__all__ = [
    "AdmissionConfig",
    "AdmissionRejected",
    "Deadline",
    "DeadlineExceeded",
    "ReproServer",
    "SCHEMA_VERSION",
    "ServerConfig",
    "ServerConfigError",
    "Tenant",
    "TenantConfig",
    "load_config",
    "serialize_batch",
    "serialize_result",
    "serve_main",
]

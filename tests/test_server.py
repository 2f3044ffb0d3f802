"""Contract suite for the multi-tenant assess server.

Every endpoint's 200 body and every error envelope is checked against
the schema-v2 contract — structurally via the response specs of
``repro.server.wire`` (the ones ``tools/check_schema.py server --live``
checks in the CI smoke) and behaviorally via golden field assertions.
One live server per module (session reuse keeps the battery fast);
tests only read, so sharing is safe.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.api import AssessSession
from repro.contract import violations
from repro.core.labels import Interval, LabelRule, RangeLabeling
from repro.datagen import sales_engine
from repro.server import (
    ServerConfig,
    ServerConfigError,
    TenantConfig,
    load_config,
)
from repro.server.wire import RESPONSES, SCHEMA_VERSION

from .server_utils import (
    SALES_STATEMENT,
    SALES_STATEMENT_2,
    SSB_STATEMENT,
    get_json,
    http_get,
    http_post,
    post_json,
    running_server,
)

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)
from check_schema import INF_STATEMENT, validate_metrics_text  # noqa: E402


@pytest.fixture(scope="module")
def server():
    tenants = [
        TenantConfig("acme", cube="sales", rows=2_000),
        TenantConfig("globex", cube="ssb", rows=4_000),
    ]
    with running_server(tenants=tenants) as live:
        yield live


# ----------------------------------------------------------------------
# 200 bodies
# ----------------------------------------------------------------------
def test_query_contract(server):
    status, document, _ = post_json(
        f"{server.url}/v1/query",
        {"tenant": "acme", "statement": SALES_STATEMENT},
    )
    assert status == 200
    assert violations(document, RESPONSES["query"]) == []
    assert document["schema_version"] == SCHEMA_VERSION
    assert document["tenant"] == "acme"
    assert document["levels"] == ["month"]
    assert "cells" not in document
    assert document["rows"] == document["returned"] > 0
    assert document["offset"] == 0
    assert set(document["coordinates"]) == {"month"}
    for column in (document["coordinates"]["month"], document["value"],
                   document["benchmark"], document["comparison"],
                   document["label"]):
        assert len(column) == document["rows"]
    assert sum(document["label_counts"].values()) == document["rows"]


def test_query_paging_slices_the_canonical_order(server):
    url = f"{server.url}/v1/query"
    request = {"tenant": "acme", "statement": SALES_STATEMENT}
    _, whole, _ = post_json(url, request)
    status, page, _ = post_json(url, {**request, "offset": 3, "limit": 4})
    assert status == 200
    assert violations(page, RESPONSES["query"]) == []
    assert (page["rows"], page["offset"], page["returned"]) == (whole["rows"], 3, 4)
    assert page["label_counts"] == whole["label_counts"]
    for key in ("value", "benchmark", "comparison", "label"):
        assert page[key] == whole[key][3:7]
    assert page["coordinates"]["month"] == whole["coordinates"]["month"][3:7]
    # Past the end: an empty page, still a valid document.
    _, beyond, _ = post_json(url, {**request, "offset": whole["rows"] + 5})
    assert violations(beyond, RESPONSES["query"]) == []
    assert beyond["returned"] == 0 and beyond["value"] == []


def test_infinite_comparison_is_served_as_null(server):
    # ratio() against a zero benchmark is inf in every cell; json.dumps
    # (allow_nan=False) used to turn that into a 500 'internal'.
    direct = AssessSession(sales_engine(n_rows=2_000, seed=42)).assess(INF_STATEMENT)
    assert all(cell.comparison == float("inf") for cell in direct)
    status, document, _ = post_json(
        f"{server.url}/v1/query",
        {"tenant": "acme", "statement": INF_STATEMENT},
    )
    assert status == 200
    assert violations(document, RESPONSES["query"]) == []
    assert document["comparison"] == [None] * document["rows"]
    assert document["value"] == [cell.value for cell in direct.cells()]
    assert document["label"] == [cell.label for cell in direct.cells()]


def test_query_explicit_plan(server):
    status, document, _ = post_json(
        f"{server.url}/v1/query",
        {"tenant": "acme", "statement": SALES_STATEMENT, "plan": "NP"},
    )
    assert status == 200
    assert document["plan"] == "NP"


def test_batch_contract(server):
    status, document, _ = post_json(
        f"{server.url}/v1/batch",
        {"tenant": "globex",
         "statements": [SSB_STATEMENT, SSB_STATEMENT]},
    )
    assert status == 200
    assert violations(document, RESPONSES["batch"]) == []
    assert len(document["results"]) == 2
    assert len(document["seconds"]) == 2
    # Identical statements in one batch share work: same cells, labels,
    # and plan (timings are per-execution measurements and may differ).
    first, second = document["results"]
    assert {k: v for k, v in first.items() if k != "timings"} \
        == {k: v for k, v in second.items() if k != "timings"}
    assert "engine_scans" in document["sharing"]


def test_explain_contract(server):
    status, document, _ = post_json(
        f"{server.url}/v1/explain",
        {"tenant": "acme", "statement": SALES_STATEMENT, "plan": "NP"},
    )
    assert status == 200
    assert violations(document, RESPONSES["explain"]) == []
    assert document["plan"] == "NP"
    assert "NP" in document["plans"]


def test_health_contract(server):
    status, document = get_json(f"{server.url}/v1/health")
    assert status == 200
    assert violations(document, RESPONSES["health"]) == []
    assert document["status"] == "ok"
    assert document["tenants"] == ["acme", "globex"]


def test_metrics_contract(server):
    # Warm the metrics with one query first.
    post_json(f"{server.url}/v1/query",
              {"tenant": "acme", "statement": SALES_STATEMENT})
    status, body, headers = http_get(f"{server.url}/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert validate_metrics_text(text) == []
    # Per-tenant namespaces are present and distinct.
    assert "repro_tenant_acme_" in text
    assert "repro_tenant_globex_" in text


def test_tenant_stats_contract(server):
    post_json(f"{server.url}/v1/query",
              {"tenant": "acme", "statement": SALES_STATEMENT})
    status, document = get_json(f"{server.url}/v1/tenants/acme/stats")
    assert status == 200
    assert violations(document, RESPONSES["stats"]) == []
    assert document["tenant"] == "acme"
    assert document["cube"] == "sales"
    assert document["pool"]["size"] == 2
    assert document["admission"]["admitted"] >= 1
    assert document["admission"]["completed"] >= 1


# ----------------------------------------------------------------------
# Error envelopes
# ----------------------------------------------------------------------
def _error(body, status):
    document = json.loads(body)
    assert violations(document, RESPONSES["error"]) == []
    assert document["error"]["status"] == status
    return document["error"]


def test_malformed_json_envelope(server):
    status, body, _ = http_post(f"{server.url}/v1/query", raw=b"{not json")
    assert status == 400
    assert _error(body, status)["code"] == "bad_json"


def test_missing_body_envelope(server):
    status, body, _ = http_post(f"{server.url}/v1/query", raw=b"")
    assert status == 400
    assert _error(body, status)["code"] == "bad_request"


def test_unknown_tenant_envelope(server):
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "ghost", "statement": SALES_STATEMENT},
    )
    assert status == 404
    error = _error(body, status)
    assert error["code"] == "unknown_tenant"
    assert "ghost" in error["message"]


def test_lint_failure_envelope_carries_assess_codes(server):
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "acme",
                 "statement": "with NOPE by month assess storeSales labels quartiles"},
    )
    assert status == 422
    error = _error(body, status)
    assert error["code"] == "lint_failed"
    codes = {d["code"] for d in error["diagnostics"]}
    assert codes and all(code.startswith("ASSESS") for code in codes)
    assert any(code in error["message"] for code in codes)


def test_non_decimal_digit_is_a_lint_failure(server):
    # '²'.isdigit() is true: the tokenizer once made it a NUMBER, float()
    # raised, and the request came back 500 internal.
    statement = "with SALES by month assess storeSales against 10² labels quartiles"
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "acme", "statement": statement},
    )
    assert status == 422
    error = _error(body, status)
    assert error["code"] == "lint_failed"
    (diagnostic,) = error["diagnostics"]
    assert diagnostic["code"] == "ASSESS001"
    assert diagnostic["message"] == "unexpected character '²'"
    offset = statement.index("²")
    assert (diagnostic["span"]["start"], diagnostic["span"]["end"]) == (offset, offset + 1)


@pytest.fixture
def parse_count(monkeypatch):
    """The texts parsed (``parse_raw``) while the test runs."""
    from repro.parser.parser import _Parser

    parsed = []
    original = _Parser.parse_raw

    def counting(parser):
        parsed.append(parser.text)
        return original(parser)

    monkeypatch.setattr(_Parser, "parse_raw", counting)
    return parsed


def test_each_statement_is_parsed_once(server, parse_count):
    status, _, _ = post_json(
        f"{server.url}/v1/query", {"tenant": "acme", "statement": SALES_STATEMENT}
    )
    assert status == 200
    assert parse_count == [SALES_STATEMENT]
    del parse_count[:]
    statements = [SALES_STATEMENT, SALES_STATEMENT_2, SALES_STATEMENT]
    status, _, _ = post_json(
        f"{server.url}/v1/batch", {"tenant": "acme", "statements": statements}
    )
    assert status == 200
    assert parse_count == statements
    del parse_count[:]
    status, _, _ = post_json(
        f"{server.url}/v1/explain",
        {"tenant": "acme", "statement": SALES_STATEMENT, "plan": "NP"},
    )
    assert status == 200
    assert parse_count == [SALES_STATEMENT]


def test_session_labeling_resolves_on_the_lint_bound_statement(server):
    # A named spec is substituted at plan time, on the statement the
    # analyzer bound (which knows the name from the session).
    spec = RangeLabeling([
        LabelRule(Interval(float("-inf"), 0.0, False, False), "negative"),
        LabelRule(Interval(0.0, float("inf"), True, False), "nonnegative"),
    ])
    for session in server.tenants["acme"]._sessions:
        session.define_labeling_spec("signs", spec)
    status, document, _ = post_json(
        f"{server.url}/v1/query",
        {"tenant": "acme",
         "statement": "with SALES by month assess storeSales labels signs"},
    )
    assert status == 200
    assert set(document["label"]) == {"nonnegative"}


def test_lint_failure_in_batch_names_statement(server):
    status, body, _ = http_post(
        f"{server.url}/v1/batch",
        payload={"tenant": "acme",
                 "statements": [
                     SALES_STATEMENT,
                     "with NOPE by month assess storeSales labels quartiles",
                 ]},
    )
    assert status == 422
    error = _error(body, status)
    assert error["code"] == "lint_failed"
    assert "statement 1" in error["message"]


def test_bad_plan_envelope(server):
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "acme", "statement": SALES_STATEMENT,
                 "plan": "WAT"},
    )
    assert status == 400
    assert _error(body, status)["code"] == "bad_request"


def test_bad_deadline_envelope(server):
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "acme", "statement": SALES_STATEMENT,
                 "deadline_s": -1},
    )
    assert status == 400
    assert _error(body, status)["code"] == "bad_request"


@pytest.mark.parametrize("field, value", [
    ("limit", -1), ("offset", -1), ("limit", 2.5), ("offset", "3"),
    ("limit", True),
])
def test_bad_page_envelope(server, field, value):
    status, body, _ = http_post(
        f"{server.url}/v1/query",
        payload={"tenant": "acme", "statement": SALES_STATEMENT, field: value},
    )
    assert status == 400
    assert _error(body, status)["code"] == "bad_request"


def test_wrong_method_envelope(server):
    status, body, _ = http_get(f"{server.url}/v1/query")
    assert status == 405
    assert _error(body, status)["code"] == "method_not_allowed"
    status, body, _ = http_post(f"{server.url}/v1/health", raw=b"{}")
    assert status == 405
    assert _error(body, status)["code"] == "method_not_allowed"


def test_unknown_path_envelope(server):
    status, body, _ = http_get(f"{server.url}/v1/nope")
    assert status == 404
    assert _error(body, status)["code"] == "not_found"


def test_unknown_tenant_stats_envelope(server):
    status, body, _ = http_get(f"{server.url}/v1/tenants/ghost/stats")
    assert status == 404
    assert _error(body, status)["code"] == "unknown_tenant"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_load_config_json_roundtrip(tmp_path):
    document = {
        "host": "127.0.0.1",
        "port": 0,
        "admission": {"max_queue": 3, "deadline_s": 7.5},
        "tenants": {
            "a": {"cube": "sales", "rows": 1000, "pool_size": 1},
            "b": {"cube": "ssb", "rows": 2000, "cache_cells": 50_000},
        },
    }
    path = tmp_path / "server.json"
    path.write_text(json.dumps(document))
    config = load_config(path)
    assert sorted(config.tenants) == ["a", "b"]
    assert config.admission.max_queue == 3
    assert config.admission.deadline_s == 7.5
    assert config.tenants["b"].cache_cells == 50_000


def test_load_config_toml(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    assert tomllib is not None
    path = tmp_path / "server.toml"
    path.write_text(
        'host = "127.0.0.1"\nport = 0\n'
        "[admission]\nmax_queue = 2\n"
        '[tenants.acme]\ncube = "sales"\nrows = 1000\n'
    )
    config = load_config(path)
    assert config.admission.max_queue == 2
    assert config.tenants["acme"].rows == 1000


@pytest.mark.parametrize("document, fragment", [
    ({}, "tenants"),
    ({"tenants": {}}, "tenants"),
    ({"tenants": {"a": {"cube": "nope"}}}, "cube"),
    ({"tenants": {"a": {"cube": "sales", "pool_size": 0}}}, "pool_size"),
    ({"tenants": {"a": {"cube": "sales", "wat": 1}}}, "unknown"),
    ({"tenants": {"a": {"cube": "sales"}}, "admission": {"max_queue": -1}},
     "max_queue"),
    ({"tenants": {"a": {"cube": "sales"}}, "port": 99999}, "port"),
    ({"tenants": {"bad id": {"cube": "sales"}}}, "bad id"),
])
def test_config_rejects(document, fragment):
    with pytest.raises(ServerConfigError) as excinfo:
        ServerConfig.from_dict(document)
    assert fragment in str(excinfo.value)


def test_duplicate_tenant_rejected():
    with pytest.raises(ServerConfigError, match="duplicate"):
        ServerConfig(tenants=[
            TenantConfig("a", cube="sales"),
            TenantConfig("a", cube="ssb"),
        ])


def test_check_mode_never_serves(capsys):
    from repro.server import serve_main

    code = serve_main([
        "--cube", "sales", "--rows", "1000", "--tenants", "a,b",
        "--port", "0", "--check",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tenant a" in out and "tenant b" in out
    assert "/v1/query" in out


def test_serve_main_rejects_bad_config(tmp_path, capsys):
    from repro.server import serve_main

    path = tmp_path / "bad.json"
    path.write_text("{\"tenants\": {}}")
    assert serve_main(["--config", str(path), "--check"]) == 2
    assert "tenants" in capsys.readouterr().err


def test_server_requires_deadline_cap(server):
    # A request deadline beyond the admission cap is clamped, not honored.
    status, document, _ = post_json(
        f"{server.url}/v1/query",
        {"tenant": "acme", "statement": SALES_STATEMENT,
         "deadline_s": 10_000},
    )
    assert status == 200
    assert document["rows"] > 0


def test_requests_counted_in_health(server):
    _, before = get_json(f"{server.url}/v1/health")
    post_json(f"{server.url}/v1/query",
              {"tenant": "acme", "statement": SALES_STATEMENT})
    _, after = get_json(f"{server.url}/v1/health")
    assert after["requests_total"] >= before["requests_total"] + 2

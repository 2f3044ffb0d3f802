"""The CLI subcommands driven through argv, and the parser surface they keep.

Each subcommand runs end to end at small row counts; the surface test pins
every subcommand's option strings and choices, so a rewrite of the parser
cannot drop or rename a flag unnoticed.
"""

from __future__ import annotations

import argparse
import json
import re

import pytest

from repro.cli import main
from repro.experiments.statements import INTENTIONS, statement_text
from repro.obs.export import validate_trace

ROWS = "3000"


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
class TestTrace:
    def test_tree_output(self, capsys):
        assert main(["trace", "--cube", "sales", "--rows", ROWS]) == 0
        out = capsys.readouterr().out
        assert "[statement 1] Plan NP  (estimated cost" in out
        assert "[est rows≈" in out and "| via fused]" in out
        assert re.search(r"fused scans\s+1", out)

    def test_chrome_format(self, capsys):
        argv = ["trace", "--cube", "sales", "--rows", ROWS, "--format=chrome"]
        assert main(argv) == 0
        events = json.loads(capsys.readouterr().out)
        assert events[0]["name"] == "batch" and events[0]["ph"] == "X"

    def test_json_document(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        argv = ["trace", "--cube", "sales", "--rows", ROWS, "--json", str(path)]
        assert main(argv) == 0
        assert f"trace document written to {path}" in capsys.readouterr().err
        document = json.loads(path.read_text())
        validate_trace(document["trace"])
        assert len(document["statements"]) == 3


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class TestBatch:
    def test_compare_is_bit_identical(self, capsys):
        argv = ["batch", "--cube", "sales", "--rows", ROWS, "--compare"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.search(r"bit-identical\s+yes", out)
        assert "statement  3:" in out

    def test_missing_file_is_statement_text(self, capsys):
        # An item that names no file is a statement: it fails to parse.
        argv = ["batch", "--cube", "sales", "--rows", ROWS, "/no/such.assess"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# cube / storage
# ----------------------------------------------------------------------
class TestCubeStorage:
    def test_v2_directory(self, tmp_path, capsys):
        store = str(tmp_path / "ssb.store")
        assert main(["cube", "--rows", "6000", "--save", store]) == 0
        assert "generated 6,000 fact rows" in capsys.readouterr().out
        assert main(["storage", store]) == 0
        out = capsys.readouterr().out
        assert f"column store {store} (format v2" in out
        assert "compression)" in out
        assert main(["cube", "--load", store]) == 0
        out = capsys.readouterr().out
        assert f"loaded {store} (memory-mapped); cubes: " in out
        assert out.count("-- ") >= len(INTENTIONS)

    def test_v1_archive(self, tmp_path, capsys):
        store = str(tmp_path / "ssb.npz")
        assert main(["cube", "--rows", "6000", "--save", store]) == 0
        capsys.readouterr()
        assert main(["storage", store]) == 1
        assert "is not a v2 catalog store" in capsys.readouterr().err
        assert main(["cube", "--load", store, "--no-mmap"]) == 0
        assert f"loaded {store} (materialised)" in capsys.readouterr().out

    def test_load_missing_store_is_an_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["cube", "--load", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err
        assert "Traceback" not in err


def test_serve_missing_store_exits_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code = main(["serve", "--store", missing, "--port", "0", "--check"])
    assert code != 0
    err = capsys.readouterr().err
    assert missing in err and "Traceback" not in err


# ----------------------------------------------------------------------
# every intention on the ssb demo cube
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", INTENTIONS)
def test_ssb_demo_cube_runs_every_intention(name, capsys):
    assert main(["--cube", "ssb", "--rows", "6000", statement_text(name)]) == 0
    assert " cells, plan " in capsys.readouterr().out


# ----------------------------------------------------------------------
# parser surface
# ----------------------------------------------------------------------
class _Captured(Exception):
    pass


def parser_surface(argv):
    """``{option string: choices}`` of the parser ``main(argv)`` parses with.

    Parsing is intercepted before any argument is read, so nothing runs.
    """
    original = argparse.ArgumentParser.parse_known_args

    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    argparse.ArgumentParser.parse_known_args = capture
    try:
        main(argv)
    except _Captured as captured:
        parser = captured.args[0]
    else:  # pragma: no cover - main always parses
        raise AssertionError(f"main({argv!r}) parsed nothing")
    finally:
        argparse.ArgumentParser.parse_known_args = original
    return {
        option: tuple(action.choices) if action.choices else None
        for action in parser._actions
        for option in action.option_strings
    }


HELP = {"-h": None, "--help": None}
PLANS = ("NP", "JOP", "POP", "best", "auto")
DEMO = ("sales", "ssb")

SURFACE = {
    "": {
        **HELP, "--cube": DEMO, "--rows": None,
        "--plan": ("NP", "JOP", "POP", "best"), "--explain": None,
        "--limit": None, "--parallelism": None, "--memory-bytes": None,
    },
    "lint": {
        **HELP, "--cube": ("sales", "ssb", "all", "none"), "--rows": None,
        "--permissive": None, "--bundled": None, "--verbose": None,
        "--workload": None, "--format": ("text", "json"),
    },
    "cache": {
        **HELP, "--cube": DEMO, "--rows": None, "--plan": PLANS,
        "--passes": None, "--parallelism": None,
    },
    "batch": {
        **HELP, "--cube": DEMO, "--rows": None, "--plan": PLANS,
        "--compare": None, "--parallelism": None,
    },
    "trace": {
        **HELP, "--cube": DEMO, "--rows": None, "--plan": PLANS,
        "--format": ("tree", "chrome"), "--json": None,
        "--parallelism": None,
    },
    "cube": {
        **HELP, "--rows": None, "--scale": None, "--partition-rows": None,
        "--memory-bytes": None, "--seed": None, "--save": None,
        "--load": None, "--format": ("auto", "v1", "v2"),
        "--cluster-by": None, "--zone-rows": None, "--no-mmap": None,
        "--plan": PLANS, "--limit": None, "--parallelism": None,
    },
    "storage": {**HELP},
    "history": {
        **HELP, "--baseline": None, "--write-baseline": None,
        "--slow-factor": None, "--min-runs": None, "--json": None,
        "--prometheus": None, "--strict": None,
    },
    "serve": {
        **HELP, "--config": None, "--host": None, "--port": None,
        "--tenants": None, "--cube": DEMO, "--rows": None, "--store": None,
        "--pool-size": None, "--max-queue": None, "--deadline": None,
        "--telemetry-dir": None, "--parallelism": None,
        "--memory-bytes": None, "--check": None,
    },
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_parser_surface(command):
    assert parser_surface([command] if command else []) == SURFACE[command]

"""Smoke test of the benchmark itself: ``python -m pytest bench/``.

Not collected by tier-1 (``testpaths = ["tests"]``): it starts worker
and server subprocesses and takes ~12 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import stepwise  # noqa: E402
import workloads  # noqa: E402


def _run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == workloads.WHY
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]
    } == stepwise.LEDGER
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_seed_keeps_the_quantile_rule_and_distinct_statements():
    for seed in range(20):
        for name in workloads.NAMES:
            workload = workloads.build(name, seed)  # runs the static self-checks
            assert workload.statements()
    assert len([op for op in workloads.build("warm_explore", 0).slots if op.timed]) == 64


def test_smoke_runs_every_workload_timed_and_traced(tmp_path):
    out = tmp_path / "smoke.json"
    finished = _run("--smoke", "--out", str(out))
    assert finished.returncode == 0, finished.stderr + finished.stdout
    document = json.loads(out.read_text())
    assert document["provenance"]["loop"] == "closed"
    assert document["provenance"]["rows"] == workloads.SMOKE_ROWS
    expected = {n for name in workloads.NAMES for n in (name, name + ".traced")}
    assert set(document["workloads"]) == expected
    for name, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, result["errors"])
        assert result["attempted"] >= run.SMOKE_MIN_OPS
    # Each workload stresses the layer it names, even at smoke size.
    traced = {n: document["workloads"][n + ".traced"]["metrics"] for n in workloads.NAMES}
    assert traced["cold_scan"]["cache.useful_share"] == 0
    assert traced["warm_explore"]["engine.scans"] == 0
    assert traced["warm_explore"]["cache.derivations"] > 0
    assert traced["batch_fused"]["batch.scans_per_stmt"] < 1
    for served in ("served_small", "served_wide"):
        assert traced[served]["obs.qlog_records"] == 1
        assert traced[served]["engine.scans"] == 0
    assert (BENCH_DIR / "out" / "trace-cold_scan.json").exists()

    # compare.py reads the same documents: a set of runs is within bound of itself.
    compared = subprocess.run(
        [sys.executable, str(BENCH_DIR / "compare.py"), str(out), "--", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout
    assert "worse " not in compared.stdout and "within" in compared.stdout


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    finished = _run(
        "--workload", "cold_scan", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "bench" / "run.py",
    )
    assert finished.returncode != 0
    assert '"correct"' not in finished.stdout

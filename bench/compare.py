#!/usr/bin/env python3
"""Compare two sets of benchmark result documents.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

A is the base (the parent commit, or the first set of runs of one
commit), B the candidate.  Each file is a ``run.py --out`` document.
Per workload x end-to-end metric this prints each side's median and
quartiles, the relative difference with its base, and a verdict:

``within``      B's median is no worse than A's by more than the bound
                ``BENCHMARK.json`` fixes for the metric;
``worse``       it is worse by more than the bound;
``unresolved``  either side's own quartile spread is wider than the
                bound, so the runs cannot tell — never read as unchanged.

Files pair up in the order given (A1 with B1, ...), which is what the
alternating parent/change runs of the choosing-metrics guide (section 8)
produce.  ``gain`` is ``yes`` only when B wins at least nine tenths of
the pairs (ties count for neither side) *and* the medians differ by
more than the distance between A's own quartiles.

Exit status: 1 if any row is ``worse`` or any run had failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(paths: Sequence[str]) -> Tuple[Dict[Tuple[str, str], List[float]], int]:
    """``{(workload, metric): [value per file]}`` and the failed-op total."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed = 0
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, result in document["workloads"].items():
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values, failed


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def compare_row(
    base: Sequence[float], candidate: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    a_q1, a_med, a_q3 = quartiles(base)
    b_q1, b_med, b_q3 = quartiles(candidate)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / a_med
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med
    if spread > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within"
    pairs = list(zip(base, candidate))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    gain = (
        len(pairs) > 0
        and wins >= 0.9 * len(pairs)
        and abs(b_med - a_med) > (a_q3 - a_q1)
    )
    return {
        "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
        "worse_by": worse_by, "spread": spread, "verdict": verdict,
        "wins": wins, "pairs": len(pairs), "gain": gain,
    }


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("error: need at least one document on each side of --", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    base, base_failed = load(a_paths)
    candidate, candidate_failed = load(b_paths)

    status = 0
    print(f"{'workload':14s} {'metric':12s} {'A q1/median/q3':>34s} "
          f"{'B q1/median/q3':>34s} {'B vs A':>9s} {'bound':>6s} "
          f"{'verdict':>10s} {'wins':>6s} gain")
    for (workload, metric), a_values in sorted(base.items()):
        spec = metrics.get(metric)
        b_values = candidate.get((workload, metric))
        if spec is None or b_values is None:
            continue
        row = compare_row(a_values, b_values, spec["better"], spec["bound"])
        if row["verdict"] == "worse":
            status = 1
        print(
            f"{workload:14s} {metric:12s} "
            f"{'/'.join(f'{v:.4g}' for v in row['a']):>34s} "
            f"{'/'.join(f'{v:.4g}' for v in row['b']):>34s} "
            f"{row['worse_by']:+8.1%}w {spec['bound']:6.2f} "
            f"{row['verdict']:>10s} {row['wins']:3d}/{row['pairs']:<2d} "
            f"{'yes' if row['gain'] else 'no'}"
        )
    print("(B vs A: share of A's median by which B is worse; negative = better)")
    if base_failed or candidate_failed:
        print(f"failed operations: A {base_failed}, B {candidate_failed} "
              "- any increase in failed_share is a regression")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

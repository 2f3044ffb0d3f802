"""Output verification: every result is checked against an NP reference.

For each distinct statement the reference is one ``plan="NP"`` execution
on a cache-cleared session — the paper's unoptimised plan, which pushes
nothing but plain gets, so it shares the least code with the cold
(JOP/POP), cached/derived, fused and served paths it judges.  By Gray et
al.'s distributive-aggregate rule all of them must agree cell for cell.

In-process results are compared by :func:`digest`; served bodies are
compared as JSON trees against the reference result sent through the
program's own ``wire.serialize_result``, so a future change of the
default wire shape verifies without editing the benchmark.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Tuple

import numpy as np

Digest = Tuple[Tuple[str, ...], int, int]
"""(levels, cell count, order-independent 64-bit sum of per-cell hashes)."""

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)


def _object_hashes(column: np.ndarray) -> np.ndarray:
    # hash() of str/None is only stable within one process; references
    # are always computed in the process that compares against them.
    return np.fromiter(
        map(hash, column), dtype=np.int64, count=len(column)
    ).view(np.uint64)


def _float_bits(column: np.ndarray) -> np.ndarray:
    """Bit patterns, with every NaN payload folded to one canonical NaN."""
    column = np.asarray(column, dtype=np.float64)
    return np.where(np.isnan(column), np.float64("nan"), column).view(np.uint64)


def digest(result) -> Digest:
    """Levels, coordinates, float bit patterns and labels of every cell.

    One 64-bit hash per cell (coordinate members, then the bit patterns
    of value / benchmark / comparison, then the label), summed modulo
    2**64 — the sum makes the digest independent of row order, which is
    what sorting the coordinates would buy, without the sort: a cold
    Constant result here has 170k cells and is digested after every op.
    """
    cube = result.cube
    levels = tuple(cube.group_by.levels)
    cells = np.zeros(len(cube), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for level in levels:
            cells = (cells ^ _object_hashes(cube.coords[level])) * _MIX_A
        for name in (
            result.measure, result.benchmark_measure, result.comparison_measure
        ):
            cells = (cells ^ _float_bits(cube.measure(name))) * _MIX_A
        cells = (cells ^ _object_hashes(cube.measure(result.label_measure))) * _MIX_B
        cells ^= cells >> np.uint64(29)
        return levels, len(cube), int(cells.sum(dtype=np.uint64))


def references(session, statements: Iterable[str]):
    """``{text: NP result}`` lazily, each on a freshly cleared cache."""
    for text in statements:
        session.clear_cache()
        yield text, session.assess(text, plan="NP")
    session.clear_cache()


def reference_digests(session, statements: Iterable[str]) -> Dict[str, Digest]:
    return {text: digest(result) for text, result in references(session, statements)}


def wire_tree(result) -> Dict[str, object]:
    """A result as the client would parse it off the wire, minus timings."""
    from repro.server.wire import serialize_result

    tree = json.loads(json.dumps(serialize_result(result)))
    tree.pop("timings", None)
    return tree


def reference_trees(session, statements: Iterable[str]) -> Dict[str, Dict[str, object]]:
    """Expected wire trees; ``plan`` is dropped since the reference ran NP."""
    trees = {}
    for text, result in references(session, statements):
        tree = wire_tree(result)
        tree.pop("plan", None)
        trees[text] = tree
    return trees


def tree_matches(served: object, expected: Dict[str, object]) -> bool:
    """Whether a parsed served body carries exactly the expected result.

    The handler adds envelope keys (tenant, elapsed_s, schema_version)
    around ``serialize_result``'s document; every key the reference tree
    has must be present and equal.
    """
    return isinstance(served, dict) and all(
        key in served and served[key] == value for key, value in expected.items()
    )

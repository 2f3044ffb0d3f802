"""Bounded-memory execution: spill-to-disk partitioned aggregation.

The in-RAM group-by (and the PR 5 parallel merge) retain every per-morsel
partial result until the final merge, so grouping state grows with
``morsels × groups-per-morsel`` — an OOM cliff for fact tables whose
working set outgrows RAM.  This module bounds that state with a classic
partitioned external hash aggregation:

* per-morsel partial results (``run_morsel`` output: sorted combined group
  keys + distributive partials) are **range-partitioned** over the folded
  key space into ``P`` buckets;
* buffered bucket segments are charged against an accounting-enforced
  **memory budget** (the engine's ``memory_budget`` setting,
  docs/performance.md "Configuration").  When the buffered bytes exceed the
  budget, the largest buckets are compacted with the same distributive
  re-aggregation the parallel merge uses and written out as ``.npz``
  **runs** under a private temp directory;
* the final merge re-reads each bucket's runs plus its still-buffered
  segments and merges them with :func:`repro.parallel.merge.merge_morsels`.
  Range partitioning keeps bucket key ranges disjoint and ordered, so
  concatenating the per-bucket merges in bucket order reproduces exactly
  the globally sorted key order the serial fold
  (:func:`repro.engine.kernels.fold_codes`) produces —
  results stay **bit-identical** to the in-RAM path under the same
  float-exactness gate that guards the parallel merge.

Temp files live in ``tempfile.mkdtemp(prefix="repro-spill-")`` (under
``TMPDIR`` when set) and are removed on close — the executor
drives the aggregator as a context manager, so cleanup happens on success
and on mid-merge failure alike.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..parallel.merge import merge_morsels
from ..parallel.morsel import MorselResult

# Upper bound on the bucket count: each bucket's merge must fit in RAM, but
# each bucket also costs a searchsorted split per morsel and one file per
# flush — 256 buckets bound a ~256x budget-to-result ratio, plenty for the
# SF100 ladder.
MAX_SPILL_PARTITIONS = 256
MIN_SPILL_PARTITIONS = 4

# Bytes of grouping state per retained group entry: the int64 key plus one
# float64 partial per aggregation slot (used by budget admission estimates).
_KEY_BYTES = 8
_SLOT_BYTES = 8


def grouping_state_bytes(rows: int, n_keys: int, n_slots: int) -> int:
    """Worst-case bytes of retained grouping state for an aggregation.

    Every scanned row may open a new group, and each group retains its
    folded key plus one partial per slot (count included).  This is the
    admission estimate the executor (and the flow analyzer) compare against
    the budget — deliberately pessimistic, so a budget below the working
    set reliably routes through the spill tier.
    """
    del n_keys  # keys fold into one int64 regardless of arity
    return int(rows) * (_KEY_BYTES + _SLOT_BYTES * (int(n_slots) + 1))


def over_budget(rows: int, n_slots: int, budget_bytes: Optional[int]) -> bool:
    """The spill tier's admission test, shared by executor and analyzer.

    True when a budget is set and the worst-case grouping state of a pass
    over ``rows`` fact rows exceeds it.
    """
    if budget_bytes is None:
        return False
    return grouping_state_bytes(rows, 0, n_slots) > budget_bytes


def choose_partitions(estimated_bytes: int, budget_bytes: int) -> int:
    """How many range buckets to split the key space into.

    Sized so one bucket's merged state sits well under the budget
    (4x headroom for the transient concat inside the merge), clamped to
    [MIN, MAX].
    """
    budget = max(int(budget_bytes), 1)
    need = -(-4 * max(int(estimated_bytes), 1) // budget)
    return max(MIN_SPILL_PARTITIONS, min(MAX_SPILL_PARTITIONS, need))


class SpillAggregator:
    """Range-partitioned external aggregation buffers with byte accounting.

    ``add()`` consumes one morsel's (sorted keys, partials) pair and slices
    it into per-bucket segments; ``results()`` yields each bucket's merged
    (keys, partials) in bucket order.  Use as a context manager — the temp
    directory is removed on exit regardless of outcome.
    """

    def __init__(
        self,
        key_space: int,
        ops: Sequence[str],
        budget_bytes: int,
        metrics: Optional[MetricsRegistry] = None,
        n_partitions: Optional[int] = None,
    ):
        self.ops = list(ops)
        self.budget = max(int(budget_bytes), 1)
        self.metrics = metrics
        key_space = max(int(key_space), 1)
        if n_partitions is None:
            n_partitions = MIN_SPILL_PARTITIONS
        self.n_partitions = max(1, min(int(n_partitions), key_space))
        # Bucket b holds keys in [bounds[b-1], bounds[b]); searchsorted
        # against these boundaries slices a sorted key array into buckets.
        self._bounds = np.array(
            [(b * key_space) // self.n_partitions
             for b in range(1, self.n_partitions)],
            dtype=np.int64,
        )
        buckets = self.n_partitions
        self._segments: List[List[MorselResult]] = [[] for _ in range(buckets)]
        self._segment_bytes = [0] * buckets
        self._runs: List[List[str]] = [[] for _ in range(buckets)]
        self._buffered = 0
        self._dir: Optional[str] = None
        self._run_counter = 0
        self.spills = 0
        self.bytes_spilled = 0
        self.peak_buffered = 0

    # -- context management -------------------------------------------------

    def __enter__(self) -> "SpillAggregator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Remove the temp directory and drop all buffered state."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
        self._segments = [[] for _ in range(self.n_partitions)]
        self._segment_bytes = [0] * self.n_partitions
        self._runs = [[] for _ in range(self.n_partitions)]
        self._buffered = 0

    @property
    def temp_dir(self) -> Optional[str]:
        """The spill directory, or None if nothing has spilled yet."""
        return self._dir

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-spill-")
        return self._dir

    # -- ingest -------------------------------------------------------------

    def add(self, keys: np.ndarray, partials: Sequence[np.ndarray]) -> None:
        """Buffer one morsel's partial result, spilling if over budget.

        ``keys`` must be sorted ascending (``run_morsel`` guarantees this —
        its groups come out in folded-key order).
        """
        if keys.size == 0:
            return
        splits = np.searchsorted(keys, self._bounds, side="left")
        edges = [0] + [int(s) for s in splits] + [len(keys)]
        for bucket in range(self.n_partitions):
            lo, hi = edges[bucket], edges[bucket + 1]
            if hi <= lo:
                continue
            seg_keys = keys[lo:hi]
            seg_partials = [np.asarray(p)[lo:hi] for p in partials]
            nbytes = seg_keys.nbytes + sum(p.nbytes for p in seg_partials)
            self._segments[bucket].append(
                MorselResult(0, seg_keys, seg_partials, 0, 0, 0.0)
            )
            self._segment_bytes[bucket] += nbytes
            self._buffered += nbytes
        self.peak_buffered = max(self.peak_buffered, self._buffered)
        while self._buffered > self.budget and any(self._segment_bytes):
            self._flush(int(np.argmax(self._segment_bytes)))

    def _flush(self, bucket: int) -> None:
        """Compact one bucket's buffered segments into a run file."""
        segments = self._segments[bucket]
        if not segments:
            return
        from ..obs.tracer import active as _active_tracer

        with _active_tracer().span(
            "spill.partition", bucket=bucket, segments=len(segments)
        ) as span:
            keys, merged = merge_morsels(segments, self.ops)
            path = os.path.join(
                self._ensure_dir(), f"run{self._run_counter:06d}.npz"
            )
            self._run_counter += 1
            np.savez(
                path, keys=keys,
                **{f"s{i}": arr for i, arr in enumerate(merged)},
            )
            written = keys.nbytes + sum(arr.nbytes for arr in merged)
            span.set(groups=int(keys.size), bytes=int(written))
        self._runs[bucket].append(path)
        self.spills += 1
        self.bytes_spilled += written
        if self.metrics is not None:
            self.metrics.inc("engine.spill.spills")
            self.metrics.inc("engine.spill.bytes_spilled", written)
        self._buffered -= self._segment_bytes[bucket]
        self._segment_bytes[bucket] = 0
        self._segments[bucket] = []

    # -- merge --------------------------------------------------------------

    def _bucket_inputs(self, bucket: int) -> List[MorselResult]:
        inputs: List[MorselResult] = []
        for path in self._runs[bucket]:
            with np.load(path) as run:
                inputs.append(MorselResult(
                    0, run["keys"],
                    [run[f"s{i}"] for i in range(len(self.ops))],
                    0, 0, 0.0,
                ))
        inputs.extend(self._segments[bucket])
        return inputs

    def results(self) -> Iterator[Tuple[np.ndarray, List[np.ndarray]]]:
        """Yield each bucket's merged (keys, partials), in bucket order.

        Bucket key ranges are disjoint and ascending, so the concatenation
        of the yielded keys is globally sorted — the same order the serial
        fold produces.
        """
        for bucket in range(self.n_partitions):
            inputs = self._bucket_inputs(bucket)
            if not inputs:
                continue
            yield merge_morsels(inputs, self.ops)
            # A merged bucket's buffers and runs are dead weight; free the
            # buffers eagerly (run files go with the directory on close).
            self._buffered -= self._segment_bytes[bucket]
            self._segment_bytes[bucket] = 0
            self._segments[bucket] = []

    def merge_all(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Merge every bucket and concatenate in bucket (= key) order."""
        from ..obs.tracer import active as _active_tracer

        keys_parts: List[np.ndarray] = []
        partial_parts: List[List[np.ndarray]] = [[] for _ in self.ops]
        with _active_tracer().span(
            "spill.merge", partitions=self.n_partitions, runs=self._run_counter
        ) as span:
            merged_buckets = 0
            for keys, merged in self.results():
                keys_parts.append(keys)
                for slot, arr in enumerate(merged):
                    partial_parts[slot].append(arr)
                merged_buckets += 1
            if self.metrics is not None:
                self.metrics.inc("engine.spill.merges", merged_buckets)
            if not keys_parts:
                empty = np.empty(0, dtype=np.int64)
                out = empty, [np.empty(0, dtype=np.float64) for _ in self.ops]
            else:
                out = (
                    np.concatenate(keys_parts),
                    [np.concatenate(parts) for parts in partial_parts],
                )
            span.set(groups=int(out[0].size))
        return out

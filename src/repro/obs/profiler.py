"""A low-overhead sampling profiler emitting collapsed stacks.

The tracer (PR 4) tells you *which operator* was slow; the sampling
profiler tells you *which frames inside it*.  A background thread wakes
every ``interval`` seconds, snapshots the Python stacks of the profiled
threads via ``sys._current_frames()`` (no signals — works off the main
thread and never interrupts a running opcode), and accumulates them as
collapsed stacks: one ``frame;frame;frame count`` line per distinct
stack, the interchange format of Brendan Gregg's ``flamegraph.pl``,
``inferno``, and speedscope.

Span attribution: when the active tracer is recording, each sample is
prefixed with the innermost open span's name (``op.get;...``,
``engine.scan;...``), so hot frames aggregate *under the operator that
ran them* in the flame graph — the bridge between the span tree and
the interpreter stack.

Sampling only *observes* the interpreter — it never touches the data
path — so results with the profiler on are bit-identical to results
with it off (asserted in ``tests/test_telemetry.py``).  Overhead is
proportional to sampling rate and stack depth; the default 5 ms
interval costs a few percent (recorded honestly in
``benchmarks/bench_telemetry_overhead.py``), which is why the profiler
is strictly opt-in (``profiling(...)`` or the ``profile_interval``
setting, docs/performance.md "Configuration").
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from typing import Iterable, List, Optional, Tuple

from .tracer import active as _active_tracer

DEFAULT_INTERVAL = 0.005  # 5 ms ≈ 200 samples/s

#: Frames from these modules are the profiler/tracer machinery itself —
#: dropped from samples so flame graphs show only workload frames.
_SELF_MODULES = ("repro/obs/profiler",)


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Compact module-ish path: last two components, extension dropped.
    parts = filename.replace("\\", "/").rsplit("/", 2)[-2:]
    module = "/".join(parts)
    if module.endswith(".py"):
        module = module[:-3]
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Samples thread stacks on a timer into collapsed-stack counts."""

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        threads: Optional[Iterable[int]] = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        # None = profile every thread except the sampler itself;
        # otherwise a fixed set of thread idents.
        self._thread_ids = set(threads) if threads is not None else None
        self.stacks: Counter = Counter()
        self.samples = 0
        self._sampler: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._sampler is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._sampler = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._sampler.start()
        return self

    def stop(self) -> "SamplingProfiler":
        sampler = self._sampler
        if sampler is None:
            return self
        self._stop.set()
        sampler.join(timeout=5.0)
        self._sampler = None
        return self

    @property
    def running(self) -> bool:
        return self._sampler is not None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own_ident)

    def _sample(self, own_ident: int) -> None:
        span_prefix = self._span_prefix()
        frames = sys._current_frames()
        try:
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                if (
                    self._thread_ids is not None
                    and ident not in self._thread_ids
                ):
                    continue
                stack = self._collapse(frame)
                if not stack:
                    continue
                if span_prefix:
                    stack = (span_prefix,) + stack
                self.stacks[stack] += 1
                self.samples += 1
        finally:
            del frames  # drop frame references promptly

    @staticmethod
    def _span_prefix() -> str:
        """The innermost open span's name, if a tracer is recording.

        Best-effort: the span stack belongs to the session thread and
        may mutate mid-read; any inconsistency just mislabels one
        sample, so errors are swallowed.
        """
        tracer = _active_tracer()
        if not tracer.enabled:
            return ""
        try:
            stack = tracer._stack
            return stack[-1].name if stack else ""
        except Exception:  # pragma: no cover - benign race
            return ""

    @staticmethod
    def _collapse(frame) -> Tuple[str, ...]:
        labels: List[str] = []
        while frame is not None:
            label = _frame_label(frame)
            if not any(marker in label for marker in _SELF_MODULES):
                labels.append(label)
            frame = frame.f_back
        labels.reverse()  # collapsed stacks read root -> leaf
        return tuple(labels)

    # ------------------------------------------------------------------
    def collapsed(self, min_count: int = 1) -> str:
        """The accumulated samples as collapsed-stack lines.

        One ``root;...;leaf count`` line per distinct stack, sorted by
        count descending — feed directly to ``flamegraph.pl`` or paste
        into speedscope.
        """
        lines = [
            f"{';'.join(stack)} {count}"
            for stack, count in self.stacks.most_common()
            if count >= min_count
        ]
        return "\n".join(lines)

    def hot_frames(self, k: int = 10) -> List[Tuple[str, int]]:
        """The k leaf frames with the most samples (the 'self time' view)."""
        leaves: Counter = Counter()
        for stack, count in self.stacks.items():
            leaves[stack[-1]] += count
        return leaves.most_common(k)

    def write(self, path) -> str:
        """Write the collapsed stacks to a file; returns the path."""
        text = self.collapsed()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")
        return str(path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SamplingProfiler(interval={self.interval}, "
            f"samples={self.samples}, stacks={len(self.stacks)})"
        )


class profiling:
    """``with profiling() as profiler:`` — sample for the block.

    By default only the calling thread is profiled (the usual "profile
    this statement" case); pass ``all_threads=True`` to sample every
    thread, e.g. to see morsel-parallel workers.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        all_threads: bool = False,
    ):
        threads = None if all_threads else (threading.get_ident(),)
        self.profiler = SamplingProfiler(interval=interval, threads=threads)

    def __enter__(self) -> SamplingProfiler:
        return self.profiler.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.stop()

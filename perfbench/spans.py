"""In-memory spans for the traced run, and their two exports.

A :class:`Tracer` records ``(name, start, end, parent)`` for every span
opened with :meth:`Tracer.span`.  :func:`layer_table` folds the spans into
per-name call counts, total time and self time (total minus the time of
direct children), and :func:`trace_events` turns them into the Chrome
trace-event JSON that Perfetto and ``chrome://tracing`` open.

Span names are the per-layer metric names (``compile.s``,
``step.ooo.s``, ``result_store.put_s`` ...), so a span's self time *is*
the metric of the same name.

Timestamps come from ``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so spans recorded in pool worker processes line
up with the parent's.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: one span: name, start, end, index of the parent span (-1: top level)
Span = tuple[str, float, float, int]


class Tracer:
    """Collects nested spans of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, self.clock(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = self.clock()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def export(self) -> list[Span]:
        return [(name, start, end, parent) for name, start, end, parent in self.spans]


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[index]
    return table


def format_layer_table(table: dict[str, dict[str, float]], wall_s: float) -> str:
    """The per-layer table as aligned text, largest self time first."""
    lines = [f"{'layer':<28} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"{name:<28} {int(row['calls']):>7} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {share:>6.1f}%")
    return "\n".join(lines)


def trace_events(threads: dict[str, tuple[int, list[Span]]], origin: float,
                 metadata: dict[str, Any]) -> dict[str, Any]:
    """Chrome trace-event document: one track per ``(label, pid)`` entry."""
    events: list[dict[str, Any]] = []
    for label, (pid, spans) in threads.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                       "args": {"name": label}})
        for name, start, end, _parent in spans:
            events.append({"name": name, "ph": "X", "pid": pid, "tid": pid,
                           "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6})
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


# -- pool instrumentation -----------------------------------------------------


def _timed_call(fn: Callable[..., Any], *args: Any) -> tuple[Any, int, float, float]:
    start = time.perf_counter()
    result = fn(*args)
    return result, os.getpid(), start, time.perf_counter()


class TimedPool(ProcessPoolExecutor):
    """A process pool that records each task's worker, start and end.

    ``map`` results are unwrapped before they reach the caller, so the
    pool is a drop-in replacement for the executor the engine builds.
    """

    #: (pid, start, end) of every finished task, across all pools
    tasks: list[tuple[int, float, float]] = []
    #: (start, end) of every pool's lifetime (creation to shutdown)
    lifetimes: list[tuple[float, float]] = []

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._born: float | None = time.perf_counter()

    def map(self, fn: Callable[..., Any], *iterables: Any, timeout: float | None = None,
            chunksize: int = 1) -> Iterator[Any]:
        results = super().map(_timed_call, itertools.repeat(fn), *iterables,
                              timeout=timeout, chunksize=chunksize)
        return self._unwrap(results)

    @staticmethod
    def _unwrap(results: Iterator[tuple[Any, int, float, float]]) -> Iterator[Any]:
        for result, pid, start, end in results:
            TimedPool.tasks.append((pid, start, end))
            yield result

    def shutdown(self, wait: bool = True, **kwargs: Any) -> None:
        super().shutdown(wait, **kwargs)
        if self._born is not None:
            TimedPool.lifetimes.append((self._born, time.perf_counter()))
            self._born = None

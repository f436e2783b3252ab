"""On-disk compiled-trace memoisation.

Generating a workload trace means building the IR kernel, running the whole
compiler pipeline and expanding the dynamic instruction stream — by far the
most expensive part of setting up a simulation point.  The in-process
``lru_cache`` in :mod:`repro.workloads.base` already deduplicates that work
*within* a process, but every worker process of a parallel sweep (and every
fresh ``run-all`` invocation) used to redo it from scratch.

:class:`TraceStore` memoises compiled traces on disk, keyed by
``(workload, scale)`` plus a format version.  The experiment engine
loads every trace its queue needs through :meth:`TraceStore.load_memoised`
in the parent process before anything runs, so a cold ``run-all --jobs N``
compiles each workload trace exactly once; pool workers forked afterwards
inherit the memoised trace, and any later process just deserialises.

Entries are pickled :class:`~repro.trace.records.Trace` objects wrapped in
a small self-describing header.  Next to each trace the store keeps its
:class:`~repro.trace.stats.TraceStatistics` (the raw material of Tables 2
and 3) as a small JSON sidecar, ``<workload>-<scale>-v<N>.stats.json``, so a
warm ``run-all`` reads the tables instead of recompiling and rescanning
every trace.  Both kinds of file are written atomically (unique temp name,
then ``os.replace``).  The store only ever reads files it wrote itself
inside the experiment cache directory; anything undecodable,
version-mismatched or mis-keyed is dropped and regenerated, never raised.
"""

from __future__ import annotations

import json
import os
import pickle
import uuid
from dataclasses import asdict, fields
from pathlib import Path
from typing import IO, Callable

from repro.trace.records import Trace
from repro.trace.stats import TraceStatistics, compute_trace_statistics

#: serialised-trace format version; bump when Trace/DynInstr fields change
TRACE_STORE_VERSION = 1


#: the integer count fields of a persisted :class:`TraceStatistics`
_COUNT_FIELDS = tuple(f.name for f in fields(TraceStatistics) if f.name != "name")

#: (cache dir, workload, scale) -> trace, for :meth:`TraceStore.load_memoised`
_memo: dict[tuple[str, str, str], Trace] = {}


def _discard(path: Path) -> None:
    """Best-effort unlink (readers without write permission get a miss)."""
    try:
        path.unlink(missing_ok=True)
    except OSError:
        pass


def _write_atomic(path: Path, write: Callable[[IO[bytes]], object]) -> None:
    """Write ``path`` through a unique temp file, then replace it."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    with tmp.open("wb") as handle:
        write(handle)
    os.replace(tmp, path)


class TraceStore:
    """Disk cache of compiled workload traces, keyed by (workload, scale)."""

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        #: traces served from disk / compiled (and persisted) by this store
        self.disk_hits = 0
        self.generated = 0
        #: (workload, scale) traces this instance wrote, so already on disk
        self._written: set[tuple[str, str]] = set()

    def _path(self, workload: str, scale: str) -> Path:
        return self.cache_dir / f"{workload}-{scale}-v{TRACE_STORE_VERSION}.trace.pkl"

    def _stats_path(self, workload: str, scale: str) -> Path:
        return self.cache_dir / f"{workload}-{scale}-v{TRACE_STORE_VERSION}.stats.json"

    # -- lookup -------------------------------------------------------------

    def get(self, workload: str, scale: str) -> Trace | None:
        """Return the memoised trace, or ``None`` (dropping bad entries)."""
        path = self._path(workload, scale)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except OSError:
            # Transient read failure: a miss, never grounds for deletion.
            return None
        except Exception:
            # Truncated/corrupt/incompatible pickle: regenerate instead.
            _discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != TRACE_STORE_VERSION
            or payload.get("workload") != workload
            or payload.get("scale") != scale
            or not isinstance(payload.get("trace"), Trace)
        ):
            _discard(path)
            return None
        self.disk_hits += 1
        return payload["trace"]

    def contains(self, workload: str, scale: str) -> bool:
        return self._path(workload, scale).is_file()

    # -- insertion ----------------------------------------------------------

    def put(self, workload: str, scale: str, trace: Trace) -> None:
        """Persist ``trace`` atomically (unique temp name, then replace)."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": TRACE_STORE_VERSION,
            "workload": workload,
            "scale": scale,
            "trace": trace,
        }
        _write_atomic(
            self._path(workload, scale),
            lambda handle: pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._written.add((workload, scale))

    # -- the memoisation entry points ---------------------------------------

    def load_or_generate(self, workload: str, scale: str) -> Trace:
        """Return the trace from disk, compiling (and persisting) on a miss."""
        cached = self.get(workload, scale)
        if cached is not None:
            return cached
        from repro.workloads.registry import get_workload

        trace = get_workload(workload, scale).trace()
        self.put(workload, scale, trace)
        self.generated += 1
        return trace

    def load_memoised(self, workload: str, scale: str) -> Trace:
        """Per-process memoised :meth:`load_or_generate`.

        A sweep grid has hundreds of points but only a handful of unique
        (workload, scale) traces; this front caches the deserialised trace
        in-process (traces are treated as immutable once generated) so each
        process unpickles it once, not once per point.  The first load or
        compile counts on this instance; memo hits count nowhere.
        """
        key = (str(self.cache_dir), workload, scale)
        trace = _memo.get(key)
        if trace is None:
            trace = _memo[key] = self.load_or_generate(workload, scale)
        return trace

    def statistics(self, workload: str, scale: str) -> TraceStatistics:
        """The trace's Table 2/3 statistics, read from its JSON sidecar.

        On a miss (or a bad sidecar) they are computed once — from the
        per-process memo when :meth:`load_memoised` already holds the
        trace, else from :meth:`load_or_generate` — and persisted for later
        processes.
        """
        cached = self._read_statistics(workload, scale)
        if cached is not None:
            return cached
        trace = _memo.get((str(self.cache_dir), workload, scale))
        if trace is None:
            trace = self.load_or_generate(workload, scale)
        stats = compute_trace_statistics(trace)
        payload = {
            "version": TRACE_STORE_VERSION,
            "workload": workload,
            "scale": scale,
            "statistics": asdict(stats),
        }
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            _write_atomic(self._stats_path(workload, scale), lambda handle: handle.write(data))
        except OSError:
            pass  # a read-only cache dir still answers, it just cannot remember
        return stats

    def _read_statistics(self, workload: str, scale: str) -> TraceStatistics | None:
        path = self._stats_path(workload, scale)
        try:
            payload = json.loads(path.read_bytes())
        except OSError:
            # Missing, or a transient read failure: a miss, never a deletion.
            return None
        except ValueError:
            # Truncated/corrupt JSON: recompute instead.
            _discard(path)
            return None
        data = payload.get("statistics") if isinstance(payload, dict) else None
        if (
            not isinstance(data, dict)
            or payload.get("version") != TRACE_STORE_VERSION
            or payload.get("workload") != workload
            or payload.get("scale") != scale
            or data.keys() != {"name", *_COUNT_FIELDS}
            or not isinstance(data["name"], str)
            or any(type(data[name]) is not int for name in _COUNT_FIELDS)
        ):
            _discard(path)
            return None
        return TraceStatistics(**data)

    def ensure(self, workload: str, scale: str) -> bool:
        """Make sure a *loadable* trace is on disk; True when it was compiled.

        Run in a parent process before fanning work out, so the workers
        only ever deserialise.  Validates by actually loading: a corrupt
        leftover entry is dropped and recompiled here, in the parent, rather
        than once per worker.  A trace this instance wrote itself is not
        loaded again.
        """
        if (workload, scale) in self._written and self.contains(workload, scale):
            return False
        if self.get(workload, scale) is not None:
            return False
        self.load_or_generate(workload, scale)
        return True

    # -- maintenance --------------------------------------------------------

    def gc(self) -> tuple[int, int]:
        """Drop version-stale traces and sidecars and crashed-writer temp files.

        Returns ``(kept, evicted)``.  Current-version entries are kept
        without being loaded (corrupt ones already self-heal on read).
        """
        if not self.cache_dir.is_dir():
            return (0, 0)
        kept = 0
        evicted = 0
        for suffix in (".trace.pkl", ".stats.json"):
            current = f"-v{TRACE_STORE_VERSION}{suffix}"
            for path in self.cache_dir.glob(f"*{suffix}"):
                if path.name.endswith(current):
                    kept += 1
                else:
                    _discard(path)
                    evicted += 1
        for path in self.cache_dir.glob(".*.tmp"):
            _discard(path)
            evicted += 1
        return kept, evicted

    def summary(self) -> str:
        return f"traces: {self.generated} compiled, {self.disk_hits} loaded"

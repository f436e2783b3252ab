"""Experiment engine: sweep grids, one streamed execution queue, result store.

The paper's evaluation is a large grid of (workload, scale, machine
configuration) simulation points — Figures 5, 8, 9 and 11-13 alone revisit
hundreds of them.  This module turns that grid into a first-class object:

* :class:`ExperimentPoint` — one picklable simulation point;
* :class:`ExperimentSpec` — a named collection of points (the grid behind
  one table or figure);
* :class:`ResultStore` — a two-level result cache: an in-memory map plus an
  optional persistent backend (:mod:`repro.core.store`) keyed by a
  configuration fingerprint.  Three production backends — sharded JSON
  files, a single WAL-mode SQLite database, and an S3-style object store —
  are selected with the ``backend`` argument, the CLI's ``--store`` flag or
  the ``REPRO_STORE`` environment variable;
* :class:`ExperimentEngine` — executes the points its store lacks through
  one queue.  :meth:`ExperimentEngine.enqueue` takes the missing points of
  any number of grids (a session plans every exhibit's grid up front),
  compiles their traces in the parent, orders them longest trace first and
  streams them through the engine's one
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or
  in-process.  Whoever simulates a point also persists it, serialised once:
  pool workers write their own results to the store backend, and the
  parent only takes each arriving result into the memory layer.
  :meth:`ExperimentEngine.run_spec` pulls from the stream until its own
  points have arrived, so exhibits resolve in order, each as soon as its
  points land, with no barrier between them.  The pool is forked once per
  engine, after the traces it needs were compiled, so workers inherit the
  imported kernel and the compiled traces; :meth:`ExperimentEngine.close`
  shuts it down.  With a cache directory configured the engine also
  memoises compiled traces on disk (:class:`repro.trace.store.TraceStore`),
  so each workload trace is compiled at most once per cache instead of
  once per worker process.

Every ``table*``/``figure*`` function in :mod:`repro.core.experiments`
declares its grid and pulls results through the process-wide default engine
(:func:`get_engine`).  The ``python -m repro.cli run-all`` entry point
configures the default engine from the command line.

The store only ever hands out *copies* of cached results: callers are free
to mutate what they receive without corrupting later experiments.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager as _contextmanager
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.common.errors import ReproError
from repro.common.params import params_to_dict
from repro.core.config import MachineConfig
from repro.core.results import SimulationResult
from repro.core.store import (  # noqa: F401  (STORE_VERSION re-exported)
    BACKEND_NAMES,
    STORE_ENV,
    STORE_VERSION,
    StoreBackend,
    decode_payload,
    make_backend,
)
from repro.trace.store import TraceStore

#: environment knobs picked up by the default engine (see :func:`get_engine`);
#: re-exported from :mod:`repro.core.settings`, where the precedence
#: resolver that interprets them lives
from repro.core.settings import (  # noqa: E402  (re-export)
    CACHE_DIR_ENV,
    JOBS_ENV,
    ExecutionPlan,
    Settings,
)

if TYPE_CHECKING:
    from repro.fleet.dispatcher import FleetDispatcher

#: subdirectory of the cache dir holding memoised compiled traces
TRACE_SUBDIR = "traces"


@dataclass(frozen=True)
class ExperimentPoint:
    """One simulation point of a sweep grid.

    Points are frozen, hashable and picklable: the parallel executor sends
    them to worker processes, which rebuild the workload trace and the
    simulator from scratch.
    """

    workload: str
    scale: str
    config: MachineConfig

    def fingerprint(self) -> str:
        """Stable hex digest identifying this point's full configuration."""
        payload = {
            "workload": self.workload,
            "scale": self.scale,
            "config_name": self.config.name,
            "params": params_to_dict(self.config.params),
            "version": STORE_VERSION,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __str__(self) -> str:
        return f"{self.workload}/{self.scale}/{self.config.name}"


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep grid: the set of points behind one table or figure."""

    name: str
    points: tuple[ExperimentPoint, ...]

    @classmethod
    def grid(
        cls,
        name: str,
        workloads: Iterable[str],
        configs: Iterable[MachineConfig],
        scale: str = "small",
    ) -> "ExperimentSpec":
        """Build the full cross product of ``workloads`` × ``configs``."""
        configs = tuple(configs)
        points = tuple(
            ExperimentPoint(workload, scale, config)
            for workload in workloads
            for config in configs
        )
        return cls(name=name, points=points)

    def __len__(self) -> int:
        return len(self.points)


def payload_key(point: ExperimentPoint) -> dict:
    """The ``key`` section of ``point``'s persisted entry (and JSON index row)."""
    return {
        "workload": point.workload,
        "scale": point.scale,
        "config_name": point.config.name,
        "fingerprint": point.fingerprint(),
        "params": params_to_dict(point.config.params),
    }


def result_payload(point: ExperimentPoint, result: SimulationResult) -> dict:
    """The canonical persisted entry for ``(point, result)``.

    Every publisher of results — pool workers and in-process execution
    locally, fleet workers remotely — builds its payload here, so a result
    object is byte-identical no matter which process wrote it.  That
    identity is what makes publication idempotent: two writers racing on
    the same point overwrite each other with the same bytes.
    """
    return {"version": STORE_VERSION, "key": payload_key(point), "result": result.to_dict()}


def _simulate_and_persist(
    point: ExperimentPoint,
    trace_dir: str | None,
    kernel: str,
    backend: StoreBackend | None,
) -> SimulationResult:
    """Simulate one point, persist it through ``backend`` and return it.

    The work of every executed point, in a pool worker or in-process: the
    result is serialised once (one ``to_dict``; the backend JSON-encodes
    that payload once) and handed back decoded from the same payload, in
    exactly the form a later store read returns.  With a ``trace_dir`` the
    workload trace comes from the :class:`TraceStore` (memoised per
    process) instead of being recompiled.  The import is deferred to avoid
    a circular import with :mod:`repro.core.simulator` (which imports this
    module).
    """
    from repro.core.simulator import simulate_point

    trace_store = TraceStore(trace_dir) if trace_dir is not None else None
    result = simulate_point(
        point.workload, point.scale, point.config, trace_store=trace_store,
        kernel=kernel,
    )
    payload = result_payload(point, result)
    if backend is not None:
        backend.write(payload["key"]["fingerprint"], point, payload)
    return SimulationResult.from_dict(payload["result"])


#: this process's result-store backends, opened on first use by
#: :func:`_pool_task` (a pool worker opens its own, never the parent's)
_task_backends: dict[tuple[str, str], StoreBackend] = {}


def _pool_task(
    point: ExperimentPoint,
    trace_dir: str | None,
    kernel: str,
    store_at: tuple[str, str] | None,
) -> SimulationResult:
    """Pool entry point: :func:`_simulate_and_persist` in a worker process.

    ``store_at`` names the parent's result backend as ``(kind, cache
    dir)``; each worker opens that backend once and writes every result it
    simulates there itself.  Top-level so :class:`ProcessPoolExecutor` can
    pickle it.
    """
    backend = None
    if store_at is not None:
        backend = _task_backends.get(store_at)
        if backend is None:
            backend = _task_backends[store_at] = make_backend(*store_at)
    return _simulate_and_persist(point, trace_dir, kernel, backend)


class ResultStore:
    """Two-level simulation-result cache: in-memory dict plus a disk backend.

    Entries are keyed by :meth:`ExperimentPoint.fingerprint`.  With a
    ``cache_dir`` every stored result is also persisted through a
    :class:`~repro.core.store.StoreBackend` — sharded JSON files by default,
    or SQLite via ``backend="sqlite"`` / ``REPRO_STORE=sqlite`` — and picked
    up again by later processes; without one the store is purely in-memory
    (the behaviour of the old ``lru_cache``, minus the aliasing).
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        backend: str | StoreBackend | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if isinstance(backend, StoreBackend):
            self.backend: StoreBackend | None = backend
            if self.cache_dir is None:
                self.cache_dir = getattr(backend, "cache_dir", None)
        elif self.cache_dir is not None:
            self.backend = make_backend(backend, self.cache_dir)
        elif backend is not None:
            # Silently keeping a memory-only store would surprise a caller
            # who explicitly asked for persistence.
            raise ReproError(
                f"store backend {backend!r} requires a cache directory "
                "(--cache-dir / REPRO_CACHE_DIR)"
            )
        else:
            self.backend = None
        self._memory: dict[str, SimulationResult] = {}
        self.memory_hits = 0
        self.disk_hits = 0

    # -- lookup -------------------------------------------------------------

    def get(self, point: ExperimentPoint) -> SimulationResult | None:
        """Return a defensive copy of the cached result, or ``None``."""
        key = point.fingerprint()
        cached = self._memory.get(key)
        if cached is not None:
            self.memory_hits += 1
            return cached.copy()
        if self.backend is not None:
            payload = self.backend.get(key, point)
            if payload is not None:
                result = decode_payload(payload)
                if result is None:
                    # Stale entry (wrong version, missing fields, or params
                    # that no longer validate — exactly what gc would
                    # evict): drop and re-simulate.
                    self.backend.delete(key, point)
                    return None
                self._memory[key] = result
                self.disk_hits += 1
                return result.copy()
        return None

    def contains(self, point: ExperimentPoint) -> bool:
        key = point.fingerprint()
        if key in self._memory:
            return True
        return self.backend is not None and self.backend.contains(key, point)

    # -- insertion ----------------------------------------------------------

    def put(self, point: ExperimentPoint, result: SimulationResult) -> None:
        """Store ``result`` for ``point`` (memory, and disk when configured)."""
        key = point.fingerprint()
        self._memory[key] = result
        if self.backend is not None:
            self.backend.put(key, point, result_payload(point, result))

    def adopt(self, point: ExperimentPoint, result: SimulationResult) -> None:
        """Keep ``result`` in memory for a point whose entry the simulating
        process already persisted (:meth:`StoreBackend.write`); the backend
        only records it (e.g. in the JSON index), never writes it again."""
        key = point.fingerprint()
        self._memory[key] = result
        if self.backend is not None:
            self.backend.adopt(key, point, payload_key(point))

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        self._memory.clear()

    # -- maintenance --------------------------------------------------------

    def gc(self) -> tuple[int, int]:
        """Evict stale/corrupt disk entries; returns ``(kept, evicted)``."""
        if self.backend is None:
            return (0, 0)
        return self.backend.gc()

    def flush(self) -> None:
        """Persist buffered backend metadata (e.g. the JSON index file)."""
        if self.backend is not None:
            self.backend.flush()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()

    def describe(self) -> str:
        """Short description of the persistence layer (for summaries)."""
        return self.backend.describe() if self.backend is not None else "memory"


class _Stream:
    """One queued run of points and the iterator of their results.

    ``results`` yields ``(point, result)`` in ``points`` order; every
    yielded result is already persisted by whoever simulated it.
    ``pooled`` runs are received from the engine's worker pool.
    """

    def __init__(
        self,
        points: Sequence[ExperimentPoint],
        results: Iterator[tuple[ExperimentPoint, SimulationResult]],
        pooled: bool = False,
    ) -> None:
        self.points = points
        self.results = results
        self.pooled = pooled
        #: results not received yet; the run leaves the queue at zero
        self.remaining = len(points)


class ExperimentEngine:
    """Executes sweep grids against a result store, per an execution plan.

    The *how* of execution — process-pool width, the stepper kernel,
    fleet delegation — arrives as one frozen
    :class:`~repro.core.settings.ExecutionPlan` (normally built by
    :meth:`Settings.plan() <repro.core.settings.Settings.plan>`), not as
    loose keywords.  The engine never re-interprets environment variables
    or re-validates knob combinations: the plan was resolved exactly once.

    Points missing from the store go through one queue (:meth:`enqueue`),
    whatever ``jobs`` is; :meth:`run_spec` waits on it only for its own
    points.  With ``plan.fleet > 0`` a queued run is delegated to a
    :class:`~repro.fleet.dispatcher.FleetDispatcher` instead — submit the
    batch to the shared object-store queue, watch it drain (spawning
    ``plan.fleet`` local workers), collect the published results.
    Exhibits are byte-identical either way.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        plan: ExecutionPlan | None = None,
        trace_store: TraceStore | None = None,
    ) -> None:
        plan = plan if plan is not None else ExecutionPlan()
        self.plan = plan
        self.store = store if store is not None else ResultStore()
        #: process-pool width across points (mirrors ``plan.jobs``)
        self.jobs = plan.jobs
        #: machine stepper kernel used for every simulation this engine runs
        #: ("batched", or the "scalar" oracle; results are bit-identical)
        self.kernel = plan.kernel
        #: local fleet workers to spawn (0: fleet delegation disabled)
        self.fleet = plan.fleet
        self._dispatcher: "FleetDispatcher | None" = None
        #: the worker pool shared by every queued run (created lazily)
        self._pool: ProcessPoolExecutor | None = None
        #: machine model names the pool's workers were forked with
        self._pool_registry: tuple[str, ...] = ()
        if trace_store is None and self.store.cache_dir is not None:
            trace_store = TraceStore(self.store.cache_dir / TRACE_SUBDIR)
        self.trace_store = trace_store
        #: dynamic instruction count per (workload, scale) already on disk
        #: and memoised — without this every queued run would re-validate
        #: each trace in the parent
        self._trace_lengths: dict[tuple[str, str], int] = {}
        #: queued runs, oldest first; only the head is being received
        self._streams: deque[_Stream] = deque()
        #: points queued and not yet arrived, in queue order
        self._queued: dict[ExperimentPoint, None] = {}
        #: arrived results no caller has received yet (not cache hits)
        self._fresh: dict[ExperimentPoint, SimulationResult] = {}
        #: points actually simulated (cache misses) over this engine's life
        self.simulated = 0
        #: points delegated to the fleet (subset of ``simulated``)
        self.fleet_points = 0

    # -- execution ----------------------------------------------------------

    def enqueue(self, points: Iterable[ExperimentPoint]) -> None:
        """Queue every point the store lacks, as one run.

        Planning ahead: :meth:`repro.api.Session.iter_exhibits` passes the
        points of every selected exhibit's grid before computing any, so
        the whole run executes as one longest-first stream instead of one
        batch per exhibit.  Points already stored, queued or arrived are
        skipped; nothing is read back from the store here.
        """
        missing = [
            point
            for point in dict.fromkeys(points)
            if point not in self._queued
            and point not in self._fresh
            and not self.store.contains(point)
        ]
        self._enqueue(missing)

    def run_spec(self, spec: ExperimentSpec) -> dict[ExperimentPoint, SimulationResult]:
        """Resolve every point of ``spec``, simulating only the missing ones.

        Missing points join the engine's queue (see :meth:`enqueue`); the
        call then receives results off the queue until its own points have
        all arrived, and returns the full mapping of point to (defensively
        copied) result.  Points queued earlier by a planner are waited on,
        never simulated twice.
        """
        wanted = tuple(dict.fromkeys(spec.points))
        cached: dict[ExperimentPoint, SimulationResult] = {}
        missing: list[ExperimentPoint] = []
        for point in wanted:
            if point in self._queued or point in self._fresh:
                continue
            result = self.store.get(point)
            if result is None:
                missing.append(point)
            else:
                cached[point] = result
        self._enqueue(missing)
        results: dict[ExperimentPoint, SimulationResult] = {}
        for point in wanted:
            if point in cached:
                results[point] = cached[point]
                continue
            while point in self._queued:
                self._receive()
            results[point] = self._fresh.pop(point).copy()
        return results

    def run_point(self, point: ExperimentPoint) -> SimulationResult:
        """Resolve a single point through the store."""
        return self.run_spec(ExperimentSpec(name="adhoc", points=(point,)))[point]

    def result(self, workload: str, config: MachineConfig, scale: str = "small") -> SimulationResult:
        """Convenience lookup by (workload name, configuration, scale)."""
        return self.run_point(ExperimentPoint(workload, scale, config))

    # -- internals ----------------------------------------------------------

    def _trace_length(self, workload: str, scale: str) -> int:
        """Dynamic instruction count of a trace, compiling it at most once.

        Runs in the parent before anything is sent to the pool: a cold
        sweep compiles each (workload, scale) exactly once instead of once
        per worker, and keeps it in the per-process memo, so in-process
        execution and workers forked afterwards reuse the compiled trace
        instead of deserialising it.  A trace already on disk is loaded
        (validated) once here, so a corrupt leftover is recompiled in the
        parent rather than once per worker.  With a trace store the Table
        2/3 statistics sidecar written here is what those tables read
        later.
        """
        key = (workload, scale)
        length = self._trace_lengths.get(key)
        if length is None:
            if self.trace_store is None:
                from repro.workloads.registry import get_workload

                stats = get_workload(workload, scale).statistics()
            else:
                self.trace_store.load_memoised(workload, scale)
                stats = self.trace_store.statistics(workload, scale)
            length = self._trace_lengths[key] = stats.total_instructions
        return length

    def _enqueue(self, points: Sequence[ExperimentPoint]) -> None:
        """Queue ``points`` (all missing) as one run, longest trace first."""
        if not points:
            return
        ordered = sorted(
            points, key=lambda p: self._trace_length(p.workload, p.scale), reverse=True
        )
        self.simulated += len(ordered)
        stream = self._stream(ordered)
        self._queued.update(dict.fromkeys(ordered))
        self._streams.append(stream)

    def _stream(self, points: Sequence[ExperimentPoint]) -> _Stream:
        """Start one queued run: on the fleet, the pool or in-process."""
        if self.fleet:
            return _Stream(points, self._fleet_results(points))
        if self.jobs > 1 and len(points) > 1:
            try:
                results = self._worker_pool().map(
                    _pool_task,
                    points,
                    itertools.repeat(self._trace_dir()),
                    itertools.repeat(self.kernel),
                    itertools.repeat(self._store_at()),
                    chunksize=1,
                )
                return _Stream(points, zip(points, results), pooled=True)
            except (OSError, BrokenProcessPool):
                # Process pools can be unavailable (restricted sandboxes) or
                # already broken; run this queue in-process instead.
                self.shutdown_pool()
        return _Stream(points, self._local_results(points))

    def _receive(self) -> None:
        """Take the next arriving result off the oldest queued run."""
        while True:
            stream = self._streams[0]
            try:
                point, result = next(stream.results)
            except (OSError, BrokenProcessPool):
                if not stream.pooled:
                    self._abandon(stream)
                    raise
                # a lost worker breaks the whole pool; shutting it down
                # moves everything outstanding in-process
                self.shutdown_pool()
                continue
            except BaseException:
                self._abandon(stream)
                raise
            break
        stream.remaining -= 1
        if not stream.remaining:
            self._streams.popleft()
        del self._queued[point]
        self.store.adopt(point, result)
        self._fresh[point] = result

    def _abandon(self, stream: _Stream) -> None:
        """A point of ``stream`` failed: the run is over.  Unqueue what it
        still owed, so a later request queues those points afresh."""
        self._streams.remove(stream)
        for point in stream.points:
            self._queued.pop(point, None)

    def _run_outstanding_locally(self) -> None:
        """Move every outstanding point to one in-process run.

        A worker may have persisted a point before its pool went away
        without the parent receiving it; such points are read back, not
        simulated (and written) again.
        """
        outstanding = list(self._queued)
        self._streams.clear()
        if outstanding:
            self._streams.append(
                _Stream(outstanding, self._local_results(outstanding, recover=True))
            )

    def _local_results(
        self, points: Sequence[ExperimentPoint], recover: bool = False
    ) -> Iterator[tuple[ExperimentPoint, SimulationResult]]:
        backend = self.store.backend
        trace_dir = self._trace_dir()
        for point in points:
            result = None
            if recover and backend is not None:
                result = decode_payload(backend.get(point.fingerprint(), point))
            if result is None:
                result = _simulate_and_persist(point, trace_dir, self.kernel, backend)
            yield point, result

    def _trace_dir(self) -> str | None:
        return str(self.trace_store.cache_dir) if self.trace_store is not None else None

    def _store_at(self) -> tuple[str, str] | None:
        """How a pool worker reopens this engine's result backend."""
        backend = self.store.backend
        if backend is None:
            return None
        return (backend.kind, str(getattr(backend, "cache_dir")))

    def fleet_dispatcher(self) -> "FleetDispatcher":
        """The engine's fleet dispatcher, created on first use.

        Fleet delegation coordinates through the object-store bucket under
        the result store's cache directory, so a cache dir is mandatory —
        a memory-only engine has no bucket for workers to share.
        """
        if self._dispatcher is None:
            if self.store.cache_dir is None:
                raise ReproError(
                    "fleet execution requires a cache directory "
                    "(--cache-dir / REPRO_CACHE_DIR): workers coordinate "
                    "through the object store under it"
                )
            from repro.fleet.dispatcher import FleetDispatcher

            self._dispatcher = FleetDispatcher(
                self.store.cache_dir,
                spawn=self.fleet,
                kernel=self.kernel,
            )
        return self._dispatcher

    def _fleet_results(
        self, points: Sequence[ExperimentPoint]
    ) -> Iterator[tuple[ExperimentPoint, SimulationResult]]:
        """Delegate a queued run to the fleet: submit, watch, collect.

        The engine reduces to a producer here — every point is enqueued on
        the shared :class:`~repro.fleet.queue.LeaseQueue`, workers (the
        ``plan.fleet`` spawned locally, plus any others sharing the bucket)
        simulate and publish to the fleet's bucket, and the dispatcher
        hands back the published results in queue order.  Fleet workers
        do not write the result store, so the parent persists them here.
        """
        dispatcher = self.fleet_dispatcher()
        batch = dispatcher.submit(points)
        dispatcher.watch(batch)
        self.fleet_points += len(points)
        for point, result in zip(points, dispatcher.collect(batch), strict=True):
            self.store.put(point, result)
            yield point, result

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The engine's process pool, created on the first parallel run.

        Workers are forked once and reused by every later run, so each
        imports the kernel, unpickles a trace and lowers it at most once
        per engine instead of once per exhibit.  The kernel modules are
        imported here, before the fork, so workers inherit them.  Workers
        forked before a machine model was registered cannot simulate it,
        so a changed registry retires the pool.
        """
        from repro.core.machines import machine_names

        registry = machine_names()
        if self._pool is not None and registry != self._pool_registry:
            self.shutdown_pool()
        if self._pool is None:
            import repro.core.simulator  # noqa: F401  (inherited by workers)

            if self.kernel == "batched":
                from repro.machine.batched import load_builtin_steppers

                load_builtin_steppers()
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self._pool_registry = registry
        return self._pool

    # -- lifecycle ----------------------------------------------------------

    def shutdown_fleet(self) -> None:
        """Drain spawned fleet workers (no-op when none were started)."""
        if self._dispatcher is not None:
            self._dispatcher.shutdown()
            self._dispatcher = None

    def shutdown_pool(self) -> None:
        """Shut the worker pool down and wait for its workers to exit
        (no-op when no parallel run started); a later run forks a new one.
        Points still queued on the pool finish in-process when received."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
            if any(stream.pooled for stream in self._streams):
                self._run_outstanding_locally()

    def close(self) -> None:
        """Release engine resources: shut the worker pool down, drain
        spawned fleet workers, close the store (flushing buffered metadata
        / releasing SQLite handles)."""
        self.shutdown_pool()
        self.shutdown_fleet()
        self.store.close()

    # -- statistics ---------------------------------------------------------

    @property
    def memory_hits(self) -> int:
        return self.store.memory_hits

    @property
    def disk_hits(self) -> int:
        return self.store.disk_hits

    def summary(self) -> str:
        """One-line cache/execution summary (printed by the CLI)."""
        line = (
            f"engine: {self.simulated} simulated, {self.disk_hits} disk hits, "
            f"{self.memory_hits} memory hits, jobs={self.jobs}, "
            f"store={self.store.describe()}, kernel={self.kernel}"
        )
        if self.fleet:
            line += f", fleet={self.fleet} ({self.fleet_points} dispatched)"
        if self.trace_store is not None:
            line += f", {self.trace_store.summary()}"
        return line


# ---------------------------------------------------------------------------
# Process-wide default engine
# ---------------------------------------------------------------------------

_default_engine: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    """Return the process-wide default engine, creating it on first use.

    The initial engine is configured through the
    :class:`repro.api.Settings` precedence resolver, so it honours the
    ``REPRO_CACHE_DIR``, ``REPRO_STORE``, ``REPRO_JOBS``,
    ``REPRO_KERNEL`` and ``REPRO_FLEET`` environment variables — test and
    benchmark runs can share a persistent cache (and pick a store
    backend) without any code changes.
    """
    global _default_engine
    if _default_engine is None:
        try:
            settings = Settings.resolve()
        except ReproError:
            # An invalid $REPRO_STORE only matters when persistence is on:
            # a memory-only default engine never touches the backend, so
            # (as before this resolver existed) it keeps working.  With a
            # cache directory configured the error is real — re-raise.
            if os.environ.get(CACHE_DIR_ENV):
                raise
            settings = Settings.resolve(store="json")
        _default_engine = ExperimentEngine(
            ResultStore(
                settings.cache_dir,
                backend=settings.store if settings.cache_dir is not None else None,
            ),
            plan=settings.plan(),
        )
    return _default_engine


@_contextmanager
def engine_scope(engine: ExperimentEngine) -> Iterator[ExperimentEngine]:
    """Temporarily install ``engine`` as the process-wide default.

    Unlike :func:`set_engine`, neither the outgoing nor the incoming
    engine's store is closed: the previous default (and its open backend)
    is reinstated untouched on exit.  :class:`repro.api.Session` wraps
    every exhibit computation in this scope so the ``table*``/``figure*``
    experiment functions resolve through the session's engine.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    try:
        yield engine
    finally:
        _default_engine = previous


def set_engine(engine: ExperimentEngine | None) -> None:
    """Install ``engine`` as the default (``None`` resets to lazy creation).

    The outgoing engine's worker pool and fleet dispatcher (if any) are
    shut down, and its store closed (flushing buffered metadata and
    releasing any SQLite connection) unless the incoming engine shares the
    store.
    """
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    if previous is not None and previous is not engine:
        previous.shutdown_pool()
        previous.shutdown_fleet()
        if engine is None or previous.store is not engine.store:
            previous.store.close()


def run_experiment(
    spec: ExperimentSpec, engine: ExperimentEngine | None = None
) -> dict[ExperimentPoint, SimulationResult]:
    """Resolve ``spec`` through ``engine`` (default: the process-wide one)."""
    return (engine or get_engine()).run_spec(spec)

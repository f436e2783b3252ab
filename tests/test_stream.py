"""The streamed execution path of cold ``run-all``.

``Session.iter_exhibits`` declares every selected exhibit's grid before
computing any, the engine runs all missing points through one
longest-first queue, and whoever simulates a point persists it: pool
workers write their own results, the parent only keeps them in memory.
Several tests here patch module attributes before the engine forks its
pool, so the workers inherit the patch; they need the ``fork`` start
method.
"""

import json
import multiprocessing
import os
import random
from collections import Counter
from pathlib import Path

import pytest

import repro.core.runner as runner
import repro.core.store as store_mod
from repro.api import Session
from repro.core.results import SimulationResult
from repro.core.runner import ExperimentEngine
from repro.core.store import ShardedJSONBackend

#: every exhibit on the two cheapest programs (about a second per run)
PROGRAMS = ("nasa7", "su2cor")

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the test's patches only when forked",
)

#: the real pool entry point, for the dying stand-in below
_REAL_TASK = runner._pool_task


def _dying_task(point, trace_dir, kernel, store_at):
    """Pool entry point that kills its worker on the victim point, once."""
    marker = Path(store_at[1]) / "killed"
    if point.config.name == "ooo-late" and not marker.exists():
        marker.touch()
        os._exit(1)
    return _REAL_TASK(point, trace_dir, kernel, store_at)


def _log(path, line):
    """Append one line; small appends are atomic across processes."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _exhibits(exhibit_set):
    return json.dumps(json.loads(exhibit_set.to_json())["exhibits"], sort_keys=True)


@pytest.fixture(scope="module")
def reference_exhibits():
    """Every exhibit of ``PROGRAMS``, computed in-process."""
    with Session(jobs=1) as session:
        return _exhibits(session.exhibits(programs=PROGRAMS))


def _shard_fingerprints(cache_dir):
    return sorted(
        json.loads(path.read_text())["key"]["fingerprint"]
        for path in Path(cache_dir).glob("??/*.json")
    )


class TestPlanning:
    def test_planned_points_are_exactly_the_points_the_exhibits_request(
            self, monkeypatch):
        events = []
        real_enqueue = ExperimentEngine._enqueue
        real_run_spec = ExperimentEngine.run_spec

        def enqueue(self, points):
            events.append(("queue", set(points)))
            return real_enqueue(self, points)

        def run_spec(self, spec):
            events.append(("request", set(spec.points)))
            return real_run_spec(self, spec)

        monkeypatch.setattr(ExperimentEngine, "_enqueue", enqueue)
        monkeypatch.setattr(ExperimentEngine, "run_spec", run_spec)
        with Session(jobs=1) as session:
            session.exhibits(programs=("su2cor",))
            simulated = session.engine.simulated
        queued = [points for kind, points in events if kind == "queue" and points]
        requested = set().union(*(points for kind, points in events if kind == "request"))
        # planning comes first and is the only run ever queued: no exhibit
        # missed a point the plan did not cover
        assert events[0][0] == "queue"
        assert len(queued) == 1
        assert queued[0] == requested
        assert simulated == len(requested)

    def test_planning_runs_no_exhibit_code(self, monkeypatch):
        from repro.analysis import exhibits as exhibits_mod

        computed = []

        def fake_run(name):
            def run(programs, scale):
                computed.append(name)
                return {}
            return run

        monkeypatch.setattr(exhibits_mod, "EXHIBITS", tuple(
            exhibit.__class__(exhibit.name, exhibit.title, fake_run(exhibit.name),
                              exhibit.render, exhibit.grid)
            for exhibit in exhibits_mod.EXHIBITS
        ))
        with Session(jobs=1) as session:
            stream = session.iter_exhibits(programs=("nasa7",))
            first = next(stream)
            # the plan covered every grid, but only the first exhibit ran
            assert computed == [first.name]
            assert session.engine.simulated > 0
            stream.close()

    def test_queue_runs_longest_trace_first(self, monkeypatch):
        order = []
        real_local = ExperimentEngine._local_results

        def local_results(self, points, recover=False):
            order.extend(points)
            return real_local(self, points, recover)

        monkeypatch.setattr(ExperimentEngine, "_local_results", local_results)
        with Session(jobs=1) as session:
            session.exhibits(names=("figure6",), programs=PROGRAMS)
            lengths = [session.engine._trace_length(p.workload, p.scale) for p in order]
        assert len(order) == 2 * len(PROGRAMS)
        assert lengths == sorted(lengths, reverse=True)


class TestStreamedRunAll:
    def test_jobs_1_and_shuffled_jobs_2_give_identical_exhibits(
            self, tmp_path, monkeypatch, reference_exhibits):
        # any queue order must give the same exhibits: shuffle the queue by
        # replacing each point's cost with a seeded random draw
        rng = random.Random(1997)
        real_length = ExperimentEngine._trace_length

        def shuffled(self, workload, scale):
            real_length(self, workload, scale)
            return rng.random()

        monkeypatch.setattr(ExperimentEngine, "_trace_length", shuffled)
        with Session(jobs=2, cache_dir=tmp_path) as session:
            got = _exhibits(session.exhibits(programs=PROGRAMS))
        assert got == reference_exhibits

    @needs_fork
    def test_parallel_cold_run_persists_in_workers_and_encodes_once(
            self, tmp_path, monkeypatch):
        log = tmp_path / "log.txt"
        parent = os.getpid()
        real_dumps = json.dumps
        real_to_dict = SimulationResult.to_dict
        real_put = ShardedJSONBackend.put

        class CountingJSON:
            loads = staticmethod(json.loads)

            @staticmethod
            def dumps(obj, *args, **kwargs):
                if isinstance(obj, dict) and "result" in obj:
                    _log(log, f"encode {os.getpid()} {obj['key']['fingerprint']}")
                return real_dumps(obj, *args, **kwargs)

        def to_dict(self):
            _log(log, f"to_dict {os.getpid()}")
            return real_to_dict(self)

        def put(self, key, point, payload):
            _log(log, f"put {os.getpid()} {key}")
            return real_put(self, key, point, payload)

        monkeypatch.setattr(store_mod, "json", CountingJSON)
        monkeypatch.setattr(SimulationResult, "to_dict", to_dict)
        monkeypatch.setattr(ShardedJSONBackend, "put", put)
        cache = tmp_path / "cache"
        with Session(jobs=2, cache_dir=cache, store="json") as session:
            session.exhibits(names=("figure6", "figure10"), programs=PROGRAMS)
            simulated = session.engine.simulated
        lines = [line.split() for line in log.read_text().splitlines()]
        encodes = [fields for fields in lines if fields[0] == "encode"]
        assert simulated > 2
        assert not [fields for fields in lines if fields[0] == "put"]
        # each result JSON-encoded exactly once, by a worker, and
        # serialised (to_dict) exactly once
        assert Counter(fields[2] for fields in encodes) == Counter(
            set(_shard_fingerprints(cache)))
        assert len(encodes) == simulated
        assert all(int(fields[1]) != parent for fields in encodes)
        assert sum(fields[0] == "to_dict" for fields in lines) == simulated

    @pytest.mark.parametrize("store", ["json", "sqlite", "object"])
    def test_more_workers_than_cores_lose_no_write(self, tmp_path, store):
        # every worker writes the shared backend concurrently
        jobs = (os.cpu_count() or 1) + 2
        with Session(jobs=jobs, cache_dir=tmp_path, store=store) as session:
            session.exhibits(names=("figure5",), programs=PROGRAMS)
            simulated = session.engine.simulated
            assert simulated > jobs
        with Session(jobs=1, cache_dir=tmp_path, store=store) as session:
            stored = sum(1 for _ in session.store.backend.entries())
            session.exhibits(names=("figure5",), programs=PROGRAMS)
            assert session.engine.simulated == 0
        assert stored == simulated

    def test_json_index_lists_every_persisted_result(self, tmp_path):
        with Session(jobs=2, cache_dir=tmp_path, store="json") as session:
            session.exhibits(names=("figure6", "figure9"), programs=PROGRAMS)
            simulated = session.engine.simulated
        index = json.loads((tmp_path / ShardedJSONBackend.INDEX_NAME).read_text())
        shards = _shard_fingerprints(tmp_path)
        assert len(shards) == simulated
        assert sorted(index["entries"]) == shards
        for fingerprint, entry in index["entries"].items():
            assert entry["key"]["fingerprint"] == fingerprint
            assert (tmp_path / entry["path"]).is_file()

    @needs_fork
    def test_killed_worker_falls_back_and_persists_every_point_once(
            self, tmp_path, monkeypatch, reference_exhibits):
        writes = tmp_path / "writes.txt"
        real_write = ShardedJSONBackend.write

        def write(self, key, point, payload):
            real_write(self, key, point, payload)
            _log(writes, key)

        monkeypatch.setattr(ShardedJSONBackend, "write", write)
        monkeypatch.setattr(runner, "_pool_task", _dying_task)
        cache = tmp_path / "cache"
        with Session(jobs=2, cache_dir=cache, store="json") as session:
            got = _exhibits(session.exhibits(programs=PROGRAMS))
            simulated = session.engine.simulated
            assert session.engine._pool is None  # broken, shut down
        assert (cache / "killed").exists()
        assert got == reference_exhibits
        written = Counter(writes.read_text().split())
        assert max(written.values()) == 1
        shards = _shard_fingerprints(cache)
        assert len(shards) == len(set(shards)) == simulated
        index = json.loads((cache / ShardedJSONBackend.INDEX_NAME).read_text())
        assert sorted(index["entries"]) == shards

"""The experiment engine's shared worker pool.

One :class:`~concurrent.futures.ProcessPoolExecutor` serves every parallel
batch an engine runs: it is forked on the first batch, reused by every
later ``run_spec`` (each exhibit is one), dropped after a
``BrokenProcessPool`` and shut down by ``engine.close()`` /
``Session.close()``.
"""

import json
import os
import signal
from dataclasses import dataclass

import pytest

import repro.core.runner as runner
from repro.api import MachineConfig, MachineModel, Session, register_machine
from repro.common.stats import SimStats
from repro.core.config import ooo_config, reference_config
from repro.core.runner import ExperimentEngine, ExperimentSpec, ResultStore
from repro.core.settings import ExecutionPlan

EXHIBITS = ("figure6", "figure10")
PROGRAMS = ("trfd", "bdna")


@pytest.fixture
def pools(monkeypatch):
    """Record every process pool the engine creates."""
    created = []

    class CountingPool(runner.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    return created


@dataclass(frozen=True)
class LateParams:
    cost: int = 1


class LateRun:
    """A toy machine: every instruction costs ``params.cost`` cycles."""

    def __init__(self, params, trace):
        self.params = params
        self.cycles = 0

    def run_slice(self, instructions):
        for _ in instructions:
            self.cycles += self.params.cost

    def finalise(self):
        stats = SimStats()
        stats.cycles = self.cycles
        return stats

    def snapshot(self):
        return {"kind": "late", "cycles": self.cycles}

    def restore(self, state):
        self.cycles = int(state["cycles"])


@pytest.fixture
def late_machine():
    """A machine model the test registers only after the pool exists."""
    yield MachineModel(
        name="late",
        params_type=LateParams,
        factory=lambda params, trace: LateRun(params, trace),
    )
    # both registries are process-global: drop the stub again
    from repro.common import params as params_module
    from repro.core import machines as machines_module

    machines_module._REGISTRY.pop("late", None)
    params_module._PARAMS_KINDS.pop("late", None)


def _spec(name, configs):
    return ExperimentSpec.grid(name, ["trfd"], configs, "tiny")


def _workers(pool):
    return list(pool._processes.values())


class TestSharedPool:
    def test_one_pool_serves_every_exhibit_of_a_session(self, tmp_path, pools):
        with Session(jobs=2, cache_dir=tmp_path) as session:
            exhibits = session.exhibits(names=EXHIBITS, programs=PROGRAMS)
            assert len(exhibits.exhibits) == 2
            assert session.engine.simulated > 2
        assert len(pools) == 1

    def test_session_close_leaves_no_live_workers(self, tmp_path, pools):
        session = Session(jobs=2, cache_dir=tmp_path)
        session.exhibits(names=EXHIBITS, programs=PROGRAMS)
        workers = _workers(pools[0])
        assert workers and all(worker.is_alive() for worker in workers)
        session.close()
        assert not any(worker.is_alive() for worker in workers)
        assert session.engine._pool is None

    def test_broken_pool_falls_back_and_the_next_batch_gets_a_new_pool(
            self, tmp_path, pools):
        engine = ExperimentEngine(ResultStore(tmp_path), plan=ExecutionPlan(jobs=2))
        try:
            engine.run_spec(_spec("first", [reference_config(), ooo_config()]))
            assert len(pools) == 1
            # losing one worker breaks the whole pool
            victim = _workers(pools[0])[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()

            # the pool is broken: this batch runs in-process instead
            second = _spec("second", [ooo_config(phys_vregs=32),
                                      ooo_config(phys_vregs=64)])
            results = engine.run_spec(second)
            assert len(results) == 2 and all(r.cycles > 0 for r in results.values())
            assert engine._pool is None
            assert len(pools) == 1

            third = _spec("third", [ooo_config(phys_vregs=24),
                                    ooo_config(phys_vregs=48)])
            engine.run_spec(third)
            assert len(pools) == 2
            assert engine._pool is pools[1]
            workers = _workers(pools[1])
            serial = ExperimentEngine().run_spec(third)
            for point, result in engine.run_spec(third).items():
                assert result.stats.to_dict() == serial[point].stats.to_dict()
        finally:
            engine.close()
        assert not any(worker.is_alive() for worker in workers)

    def test_jobs_1_and_jobs_2_give_identical_exhibit_json(self, tmp_path):
        with Session(jobs=1) as serial:
            one = serial.exhibits(names=EXHIBITS, programs=PROGRAMS)
        with Session(jobs=2, cache_dir=tmp_path) as parallel:
            two = parallel.exhibits(names=EXHIBITS, programs=PROGRAMS)
        exhibits_one = json.loads(one.to_json())["exhibits"]
        exhibits_two = json.loads(two.to_json())["exhibits"]
        assert set(exhibits_one) == set(EXHIBITS)
        assert json.dumps(exhibits_one, sort_keys=True) == json.dumps(
            exhibits_two, sort_keys=True)

    def test_registering_a_machine_retires_the_pool(self, tmp_path, pools,
                                                    late_machine):
        # workers forked before the registration would not know the model
        engine = ExperimentEngine(ResultStore(tmp_path), plan=ExecutionPlan(jobs=2))
        try:
            engine.run_spec(_spec("before", [reference_config(), ooo_config()]))
            workers = _workers(pools[0])
            register_machine(late_machine)
            two, three = (MachineConfig("late", LateParams(cost)) for cost in (2, 3))
            results = engine.run_spec(_spec("after", [two, three]))
            assert len(pools) == 2
            assert not any(worker.is_alive() for worker in workers)
            cycles = {point.config: result.cycles for point, result in results.items()}
            assert 2 * cycles[three] == 3 * cycles[two] > 0
        finally:
            engine.close()

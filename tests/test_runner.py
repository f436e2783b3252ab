"""Tests for the experiment engine: specs, fingerprints, store, parallelism,
serialisation round-trips and the command-line driver."""

import json
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.errors import ConfigurationError
from repro.common.params import (
    CommitModel,
    LoadElimination,
    OOOParams,
    ReferenceParams,
    params_from_dict,
    params_to_dict,
)
from repro.common.stats import SimStats
from repro.core.config import ooo_config, reference_config
from repro.core.results import SimulationResult
from repro.core.settings import ExecutionPlan
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    ResultStore,
    get_engine,
    set_engine,
)
from repro.core.simulator import run


@pytest.fixture(autouse=True)
def _isolated_default_engine():
    """Keep the process-wide default engine pristine across these tests."""
    set_engine(None)
    yield
    set_engine(None)


def _point(regs=16, scale="tiny", workload="trfd"):
    return ExperimentPoint(workload, scale, ooo_config(phys_vregs=regs))


class TestSerialization:
    def test_params_round_trip_ooo(self):
        params = OOOParams(
            num_phys_vregs=32,
            commit_model=CommitModel.LATE,
            load_elimination=LoadElimination.SLE_VLE,
        ).with_memory_latency(70)
        rebuilt = params_from_dict(params_to_dict(params))
        assert rebuilt == params
        assert json.dumps(params_to_dict(params))  # JSON-compatible

    def test_params_round_trip_reference(self):
        params = ReferenceParams().with_memory_latency(20)
        assert params_from_dict(params_to_dict(params)) == params

    def test_params_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            params_from_dict({"kind": "quantum"})

    def test_result_round_trip_preserves_statistics(self):
        result = run("trfd", ooo_config(), scale="tiny")
        rebuilt = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt.workload == result.workload
        assert rebuilt.config_name == result.config_name
        assert rebuilt.params == result.params
        assert rebuilt.cycles == result.cycles
        assert rebuilt.stats.state_breakdown() == result.stats.state_breakdown()
        assert rebuilt.stats.memory_port_idle_fraction() == \
            result.stats.memory_port_idle_fraction()
        assert rebuilt.stats.ideal_cycles() == result.stats.ideal_cycles()
        assert rebuilt.stats.traffic.total_ops == result.stats.traffic.total_ops

    def test_stats_round_trip_counters(self):
        stats = SimStats(cycles=100, rename_stall_cycles=7, rob_stall_cycles=3)
        stats.record_unit_busy("FU1", 0, 40)
        rebuilt = SimStats.from_dict(stats.to_dict())
        assert rebuilt.rename_stall_cycles == 7
        assert rebuilt.rob_stall_cycles == 3
        assert rebuilt.unit_busy["FU1"].busy_cycles() == 40


class TestFingerprints:
    def test_identical_points_share_a_fingerprint(self):
        assert _point().fingerprint() == _point().fingerprint()

    def test_fingerprint_distinguishes_every_axis(self):
        base = _point()
        assert base.fingerprint() != _point(regs=32).fingerprint()
        assert base.fingerprint() != _point(scale="small").fingerprint()
        assert base.fingerprint() != _point(workload="bdna").fingerprint()
        late = ExperimentPoint(
            "trfd", "tiny", ooo_config(commit_model=CommitModel.LATE))
        assert base.fingerprint() != late.fingerprint()


class TestResultStore:
    """Default (sharded JSON) backend behaviour through the ResultStore API.

    Both backends are exercised uniformly (including with hypothesis) in
    ``tests/test_store_backends.py``; these tests pin the default layout.
    """

    def test_disk_round_trip(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        result = run("trfd", point.config, scale="tiny")
        store.put(point, result)
        files = list(tmp_path.glob("??/*.json"))
        assert len(files) == 1
        # Entries are sharded into <fingerprint[:2]>/ subdirectories.
        assert files[0].parent.name == point.fingerprint()[:2]
        # A brand-new store (fresh process, in spirit) finds it on disk.
        fresh = ResultStore(tmp_path, backend="json")
        fetched = fresh.get(point)
        assert fetched is not None
        assert fetched.cycles == result.cycles
        assert fresh.disk_hits == 1

    def test_get_returns_independent_copies(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, run("trfd", point.config, scale="tiny"))
        first = store.get(point)
        first.stats.cycles = -1
        second = store.get(point)
        assert second.cycles > 0

    def test_corrupt_disk_entry_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, run("trfd", point.config, scale="tiny"))
        path = list(tmp_path.glob("??/*.json"))[0]
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultStore(tmp_path, backend="json")
        assert fresh.get(point) is None
        assert not path.exists()

    def test_stale_entry_with_invalid_params_is_dropped(self, tmp_path):
        # Valid JSON whose params no longer validate (e.g. written by an
        # older schema) must self-heal too, not crash with a ReproError.
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, run("trfd", point.config, scale="tiny"))
        path = list(tmp_path.glob("??/*.json"))[0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"]["params"]["num_phys_vregs"] = 4  # out of range
        path.write_text(json.dumps(payload), encoding="utf-8")
        fresh = ResultStore(tmp_path, backend="json")
        assert fresh.get(point) is None
        assert not path.exists()

    def test_clear_memory_keeps_disk(self, tmp_path):
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        store.put(point, run("trfd", point.config, scale="tiny"))
        store.clear_memory()
        assert store.get(point) is not None
        assert store.disk_hits == 1

    def test_put_uses_unique_temp_names(self, tmp_path, monkeypatch):
        # Two workers storing the same point concurrently must never share
        # a temp file (the old path.with_suffix(".tmp") did).
        import repro.core.store as store_mod

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", recording_replace)
        store = ResultStore(tmp_path, backend="json")
        point = _point()
        result = run("trfd", point.config, scale="tiny")
        store.put(point, result)
        store.put(point, result)
        tmp_names = [name for name in seen if name.endswith(".tmp")]
        assert len(tmp_names) == 2
        assert tmp_names[0] != tmp_names[1]
        assert all(f".{os.getpid()}." in name for name in tmp_names)


class TestEngine:
    def test_run_spec_simulates_each_point_once(self):
        engine = ExperimentEngine()
        spec = ExperimentSpec.grid(
            "dup", ["trfd"], [ooo_config(), ooo_config(), reference_config()], "tiny")
        results = engine.run_spec(spec)
        # duplicate configs collapse onto one point
        assert len(results) == 2
        assert engine.simulated == 2
        engine.run_spec(spec)
        assert engine.simulated == 2  # all hits the second time

    def test_engine_results_match_direct_simulation(self):
        engine = ExperimentEngine()
        direct = run("trfd", ooo_config(), scale="tiny")
        via_engine = engine.result("trfd", ooo_config(), scale="tiny")
        assert via_engine.cycles == direct.cycles
        assert via_engine.stats.to_dict() == direct.stats.to_dict()

    def test_parallel_execution_matches_serial(self, tmp_path):
        spec = ExperimentSpec.grid(
            "par", ["trfd", "bdna"],
            [reference_config(), ooo_config(), ooo_config(phys_vregs=32)], "tiny")
        serial = ExperimentEngine(plan=ExecutionPlan(jobs=1)).run_spec(spec)
        parallel = ExperimentEngine(
            ResultStore(tmp_path), plan=ExecutionPlan(jobs=2)).run_spec(spec)
        assert set(serial) == set(parallel)
        for point in serial:
            assert serial[point].cycles == parallel[point].cycles
            assert serial[point].stats.to_dict() == parallel[point].stats.to_dict()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(plan=ExecutionPlan(jobs=0))

    def test_warm_disk_cache_skips_all_simulation(self, tmp_path):
        spec = ExperimentSpec.grid(
            "warm", ["trfd"], [reference_config(), ooo_config()], "tiny")
        cold = ExperimentEngine(ResultStore(tmp_path))
        cold.run_spec(spec)
        assert cold.simulated == 2
        warm = ExperimentEngine(ResultStore(tmp_path))
        warm.run_spec(spec)
        assert warm.simulated == 0
        assert warm.disk_hits == 2

    def test_summary_mentions_counters(self):
        engine = ExperimentEngine()
        engine.result("trfd", ooo_config(), scale="tiny")
        assert "1 simulated" in engine.summary()


class TestDefaultEngineIntegration:
    def test_default_engine_result_uses_installed_engine(self, tmp_path):
        engine = ExperimentEngine(
            ResultStore(tmp_path, backend="json"), plan=ExecutionPlan(jobs=1))
        set_engine(engine)
        get_engine().result("trfd", ooo_config(), scale="tiny")
        assert engine.simulated == 1
        assert list(tmp_path.glob("??/*.json"))
        # Same point again: served from the store, no new simulation.
        get_engine().result("trfd", ooo_config(), scale="tiny")
        assert engine.simulated == 1


class TestSimulateCommand:
    def test_simulate_monolithic_text(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--program", "nasa7",
                     "--config", "reference"]) == 0
        out = capsys.readouterr().out
        assert "nasa7 on reference" in out
        assert "wall time" in out

    def test_simulate_json_matches_the_engine_result(self, capsys):
        from repro.cli import main
        from repro.core.config import get_config

        assert main(["simulate", "--program", "nasa7", "--config", "ooo",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"result", "wall_s"}
        expected = get_engine().result("nasa7", get_config("ooo"), "small")
        assert payload["result"]["stats"] == expected.stats.to_dict()

    def test_simulate_kernels_agree(self, capsys):
        from repro.cli import main

        stats = []
        for kernel in ("scalar", "batched"):
            assert main(["simulate", "--program", "trfd", "--config",
                         "ooo-late-sle-vle", "--kernel", kernel,
                         "--format", "json"]) == 0
            stats.append(json.loads(capsys.readouterr().out)["result"]["stats"])
        assert stats[0] == stats[1]

    def test_simulate_rejects_unknown_program(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--program", "nope"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_simulate_rejects_unknown_config(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--program", "nasa7",
                     "--config", "warp-drive"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("command", (
        ["simulate", "--program", "nasa7", "--chunk-size", "300"],
        ["simulate", "--program", "nasa7", "--intra-jobs", "2"],
        ["run-all", "--chunk-size", "300"],
        ["run-all", "--intra-jobs", "2"],
    ))
    def test_removed_chunk_flags_are_rejected(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCLI:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "trfd" in out

    def test_run_all_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        args = ["run-all", "--scale", "small", "--cache-dir", str(tmp_path),
                "--exhibits", "table1,figure6", "--programs", "trfd"]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "Figure 6" in cold_out and "Table 1" in cold_out
        assert "0 simulated" not in cold_out
        # A second invocation (fresh engine, same cache dir) simulates nothing.
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "0 simulated" in warm_out

    def test_run_all_rejects_unknown_exhibit(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", "figure99"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err

    def test_run_all_rejects_unknown_program(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--programs", "doom"]) == 2
        assert "unknown program" in capsys.readouterr().err

    def test_run_all_rejects_empty_selections(self, capsys):
        from repro.cli import main

        assert main(["run-all", "--exhibits", ""]) == 2
        assert "selected nothing" in capsys.readouterr().err
        assert main(["run-all", "--programs", ","]) == 2
        assert "selected nothing" in capsys.readouterr().err

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        import repro.core.runner as runner_mod

        class BrokenPool(runner_mod.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                raise BrokenProcessPool("workers died")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", BrokenPool)
        engine = ExperimentEngine(plan=ExecutionPlan(jobs=4))
        spec = ExperimentSpec.grid(
            "fallback", ["trfd"], [ooo_config(), reference_config()], "tiny")
        results = engine.run_spec(spec)
        assert len(results) == 2
        assert all(r.cycles > 0 for r in results.values())

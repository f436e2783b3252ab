"""Tests of the benchmark's own machinery (generator, checks, gates, spans).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
from spans import Tracer, layer_table  # noqa: E402


def _pass_digest(seed: int, budget: int = 4000) -> str:
    """Digest of one pass's traces, built in a fresh process as the sweep does.

    Instruction PCs come from a process-wide counter in ``repro.isa``, so
    only builds that start from a fresh interpreter are comparable.
    """
    code = ("import checks, synth, sys\n"
            "traces = synth.build_pass(int(sys.argv[1]), int(sys.argv[2]))\n"
            "print(checks.digest([[repr(i) for i in t.instructions] for t in traces]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PERFBENCH.parent / "src"), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", code, str(seed), str(budget)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


class TestSyntheticGenerator:
    def test_same_seed_same_kernels(self):
        assert _pass_digest(7) == _pass_digest(7)

    def test_other_seed_other_kernels(self):
        assert _pass_digest(7) != _pass_digest(8)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pass_stays_within_its_instruction_budget(self, seed):
        traces = synth.build_pass(seed, run.SWEEP_BUDGET)
        total = sum(len(trace) for trace in traces)
        assert run.SWEEP_BUDGET <= total <= 1.1 * run.SWEEP_BUDGET
        # at least 100 simulate_trace calls per pass (four configs each)
        assert 4 * len(traces) >= 100

    def test_kernels_cover_the_property_grid(self):
        stream = synth.kernels(3)
        drawn = [next(stream) for _ in range(25)]
        assert {k.depth for k in drawn} == {1, 2, 3, 4, 5}
        assert {k.max_vl for k in drawn} == set(synth.MAX_VLS)
        assert any(k.gathers for k in drawn)
        assert any(k.reductions for k in drawn)
        assert any(k.scalar_ops for k in drawn)


class TestDigestCheck:
    def test_golden_covers_every_exhibit(self):
        golden = checks.load_golden()
        assert set(golden) == set(run.EXHIBITS) | {"*"}

    def test_matching_digests_pass(self):
        golden = checks.load_golden()
        assert checks.wrong_exhibits(dict(golden), golden) == []

    def test_tampered_exhibit_trips_the_digest_check(self):
        exhibits = {"table1": {"fu": 1}, "figure5": {"trfd": [1.0, 1.5]}}
        golden = checks.exhibit_digests(exhibits)
        tampered = dict(exhibits, figure5={"trfd": [1.0, 1.6]})
        wrong = checks.wrong_exhibits(checks.exhibit_digests(tampered), golden)
        assert wrong == ["*", "figure5"]
        assert checks.failed_ops(2, wrong, []) == 1

    def test_missing_exhibit_fails(self):
        golden = checks.exhibit_digests({"table1": 1, "table2": 2})
        wrong = checks.wrong_exhibits(checks.exhibit_digests({"table1": 1}), golden)
        assert "table2" in wrong


class TestCounterGates:
    def test_cold_gate(self):
        assert checks.gate_cold(260, 260, 10, 10) == []
        assert checks.gate_cold(261, 260, 10, 10)
        assert checks.gate_cold(260, 260, 11, 10)

    def test_broken_gate_fails_every_exhibit(self):
        assert checks.failed_ops(15, [], ["warm run simulated 1 points"]) == 15

    def test_evicted_result_trips_the_warm_gate(self, tmp_path):
        import child
        from repro.api import Session

        request = {"names": ("figure6",), "programs": ("trfd",)}
        with Session(cache_dir=tmp_path, jobs=1) as session:
            session.exhibits(**request)
            assert session.engine_summary()["simulated"] > 0
        with Session(cache_dir=tmp_path, jobs=1) as session:
            session.exhibits(**request)
            assert checks.gate_warm(session.engine_summary()["simulated"]) == []
        child._evict(str(tmp_path), 1)
        with Session(cache_dir=tmp_path, jobs=1) as session:
            session.exhibits(**request)
            assert checks.gate_warm(session.engine_summary()["simulated"]) != []


class TestSpans:
    def test_self_time_excludes_children(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("outer"):       # 0 .. 5
            with tracer.span("inner"):   # 1 .. 2
                pass
            with tracer.span("inner"):   # 3 .. 4
                pass
        table = layer_table(tracer.export())
        assert table["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
        assert table["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

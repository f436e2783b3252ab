"""One sample of a workload, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py MODE SPEC_JSON OUT_JSON``: the spec
file holds a JSON object, and the sample's measurements are written as JSON
to ``OUT_JSON``.
Modes:

``runall``        one run-all (cold or warm, per the spec's cache dir);
``sweep``         one pass of seed-generated kernels through
                  ``Session.simulate_trace``;
``trace-runall``  the traced run of a run-all workload: the layers one
                  at a time, each call recorded as a span;
``trace-sweep``   the traced run of ``sweep-synthetic``.

Only the public API is driven: ``repro.api.Session``, ``compile_kernel``,
``generate_trace``, ``TraceStore``, ``ResultStore`` and the machine
registry.  Nothing passes a kernel, store, chunking or deprecated-shim
argument, so every sample runs the project's default execution path.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any

import checks
from spans import TimedPool, Tracer

SCALE = "small"
#: the run-all workloads' only non-default setting
JOBS = 2
#: the configurations every synthetic kernel runs on
SWEEP_CONFIGS = ("reference", "inorder", "ooo", "ooo-late-sle-vle")
#: synthetic points re-simulated on the other stepper kernel per pass
CROSS_KERNEL_SAMPLE = 8


def _rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _cache_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _host_facts(session: Any) -> dict[str, Any]:
    return {
        "kernel": session.settings.kernel,
        "store": session.store.describe().split(" ")[0],
        "jobs": session.engine.jobs,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def _instructions(stats: Any) -> int:
    return stats.scalar_instructions + stats.vector_instructions + stats.branch_instructions


def _stored_results(cache_dir: str) -> list[tuple[Any, Any]]:
    """``(point, result)`` for every valid entry of a result cache dir."""
    from repro.core.config import MachineConfig
    from repro.core.runner import ExperimentPoint, ResultStore, decode_payload

    store = ResultStore(cache_dir)
    pairs = []
    try:
        for _key, payload in store.backend.entries():
            result = decode_payload(payload)
            if result is None:
                continue
            key = payload["key"]
            config = MachineConfig(key["config_name"], result.params)
            pairs.append((ExperimentPoint(key["workload"], key["scale"], config), result))
    finally:
        store.close()
    pairs.sort(key=lambda pair: (pair[0].workload, pair[0].config.name,
                                 pair[0].fingerprint()))
    return pairs


def _evict(cache_dir: str, count: int) -> None:
    """Fault injection: drop ``count`` results from a filled cache dir."""
    from repro.core.runner import ResultStore

    store = ResultStore(cache_dir)
    try:
        keys = sorted(key for key, _payload in store.backend.entries())
        for key in keys[:count]:
            store.backend.evict(key)
    finally:
        store.close()


def _verify_exhibits(computed: list[Any], spec: dict[str, Any]) -> tuple[list[str], int]:
    """``(wrong exhibit names, attempted)`` against the golden digests."""
    from repro.api import ExhibitSet

    golden = checks.load_golden()
    payload = ExhibitSet(scale=SCALE, programs=None, exhibits=tuple(computed)).payload()
    exhibits = payload["exhibits"]
    for name in spec.get("tamper", ()):
        exhibits[name] = {"tampered": True}
    return checks.wrong_exhibits(checks.exhibit_digests(exhibits), golden), len(golden) - 1


# -- untraced samples ---------------------------------------------------------


def sample_runall(spec: dict[str, Any]) -> dict[str, Any]:
    """One cold or warm ``run-all --scale small --jobs 2`` and its checks."""
    if spec.get("time_pool"):
        import repro.core.runner as runner

        if hasattr(runner, "ProcessPoolExecutor"):
            runner.ProcessPoolExecutor = TimedPool
    from repro.api import Session
    from repro.workloads.registry import WORKLOAD_NAMES

    cache_dir = spec["cache_dir"]
    if spec.get("evict"):
        _evict(cache_dir, spec["evict"])
    with Session(cache_dir=cache_dir, jobs=JOBS) as session:
        facts = _host_facts(session)
        started = time.perf_counter()
        computed = []
        latencies = {}
        for exhibit in session.iter_exhibits(scale=SCALE):
            computed.append(exhibit)
            latencies[exhibit.name] = exhibit.elapsed_s
        session.flush()
        wrong, attempted = _verify_exhibits(computed, spec)
        wall = time.perf_counter() - started
        summary = session.engine_summary()
        compiled = session.trace_store.generated if session.trace_store else 0
    stored = _stored_results(cache_dir)
    if spec["warm"]:
        broken = checks.gate_warm(summary["simulated"])
    else:
        broken = checks.gate_cold(summary["simulated"], len(stored), compiled,
                                  len(WORKLOAD_NAMES))
    return {
        "wall_s": wall,
        "instr": sum(_instructions(result.stats) for _point, result in stored),
        "attempted": attempted,
        "failed": checks.failed_ops(attempted, wrong, broken),
        "problems": [f"wrong exhibit {name}" for name in wrong] + broken,
        "engine": summary,
        "exhibit_s": latencies,
        "rss_mb": _rss_mb(),
        "cache_bytes": _cache_bytes(cache_dir),
        "facts": facts,
        "pool_tasks": TimedPool.tasks,
        "pool_lifetimes": TimedPool.lifetimes,
    }


def _cross_kernel(kernel: str, picks: list[tuple[Any, str, dict]]) -> tuple[list[str], str]:
    """Re-simulate ``picks`` on the other stepper kernel; list mismatches."""
    from repro.api import KERNEL_NAMES, Session

    others = [name for name in KERNEL_NAMES if name != kernel]
    if not others:
        return [], "skipped: one stepper kernel"
    problems = []
    with Session(kernel=others[0]) as session:
        for trace, config, expected in picks:
            got = session.simulate_trace(trace, config).to_dict()
            if got != expected:
                problems.append(f"{trace.name}/{config} differs on kernel {others[0]}")
    return problems, f"{len(picks)} points on kernel {others[0]}"


def sample_sweep(spec: dict[str, Any]) -> dict[str, Any]:
    """One pass of seed-generated kernels, compiled, traced and simulated."""
    from repro.api import Session

    import synth

    seed = spec["seed"]
    with Session() as session:
        facts = _host_facts(session)
        started = time.perf_counter()
        traces = synth.build_pass(seed, spec["budget"])
        latencies = []
        results = []
        for trace in traces:
            for config in SWEEP_CONFIGS:
                call = time.perf_counter()
                result = session.simulate_trace(trace, config)
                latencies.append(time.perf_counter() - call)
                results.append((trace, config, result.to_dict()))
        wall = time.perf_counter() - started
    picks = random.Random(seed).sample(results, min(CROSS_KERNEL_SAMPLE, len(results)))
    problems, cross = _cross_kernel(facts["kernel"], picks)
    return {
        "wall_s": wall,
        "instr": sum(len(trace) for trace, _config, _result in results),
        "attempted": len(results),
        "failed": len(problems),
        "problems": problems,
        "latencies_s": latencies,
        "digests": [checks.digest(result) for _trace, _config, result in results],
        "kernels": len(traces),
        "cross_kernel": cross,
        "rss_mb": _rss_mb(),
        "cache_bytes": 0,
        "facts": facts,
    }


# -- traced runs --------------------------------------------------------------


class Layers:
    """The per-layer calls of one simulation point, each under its span."""

    def __init__(self, tracer: Tracer, kernel: str) -> None:
        self.tracer = tracer
        self.kernel = kernel
        self.machines: dict[str, list[int]] = {}
        self._lowered: set[int] = set()

    def simulate(self, trace: Any, config: Any) -> Any:
        from repro.api import create_run, model_for_params
        from repro.core.results import SimulationResult

        span = self.tracer.span
        name = model_for_params(config.params).name
        if self.kernel == "batched":
            from repro.machine.batched import lowered_for, run_slice_batched

            if id(trace) not in self._lowered:
                self._lowered.add(id(trace))
                with span("lower.s"):
                    lowered_for(trace)
            with span(f"step.{name}.s"):
                machine = create_run(config.params, trace)
                run_slice_batched(machine, trace)
        else:
            with span(f"step.{name}.s"):
                machine = create_run(config.params, trace)
                machine.run_slice(trace)
        with span("finalise.s"):
            stats = machine.finalise()
        counts = self.machines.setdefault(name, [0, 0])
        counts[0] += len(trace)
        counts[1] += stats.cycles
        return SimulationResult(workload=trace.name, config_name=config.name,
                                params=config.params, stats=stats)


def _open_traced(tracer: Tracer, **session_args: Any) -> Any:
    with tracer.span("api.import_s"):
        import repro.api
    with tracer.span("api.session_open_s"):
        return repro.api.Session(**session_args)


def trace_runall(spec: dict[str, Any]) -> dict[str, Any]:
    """Traced run-all: layer by layer, then the exhibits and their renders.

    Cold replays the points the untraced cold run stored (trace store
    ensure/load, lower, create_run + step, finalise, ``ResultStore.put``);
    warm regenerates the traces and reads every stored point back.  Both
    then compute every exhibit through ``Session.iter_exhibits``.
    """
    tracer = Tracer()
    span = tracer.span
    session = _open_traced(tracer, cache_dir=spec["cache_dir"], jobs=JOBS)
    from repro.analysis.exhibits import EXHIBIT_NAMES
    from repro.workloads.registry import get_workload

    facts = _host_facts(session)
    replay = _stored_results(spec["replay_from"])
    session.store.get = tracer.wrap("result_store.get_s", session.store.get)
    layers = Layers(tracer, facts["kernel"])
    counts = {"tracegen.instr": 0}
    mismatched = 0
    started = time.perf_counter()
    programs = sorted({point.workload for point, _result in replay})
    for program in programs:
        workload = get_workload(program, SCALE)
        with span("compile.s"):
            workload.compile()
        with span("tracegen.s"):
            trace = workload.trace()
        counts["tracegen.instr"] += len(trace)
        if spec["warm"]:
            for point, _result in replay:
                if point.workload == program:
                    session.store.get(point)
            continue
        with span("trace_store.s"):
            session.trace_store.ensure(program, SCALE)
            trace = session.trace_store.get(program, SCALE)
        for point, expected in replay:
            if point.workload != program:
                continue
            result = layers.simulate(trace, point.config)
            with span("result_store.put_s"):
                session.store.put(point, result)
            with span("verify.s"):
                mismatched += result.to_dict() != expected.to_dict()
    computed = []
    for name in EXHIBIT_NAMES:
        with span(f"exhibit.{name}.s"):
            exhibit = next(session.iter_exhibits(names=(name,), scale=SCALE))
        with span("render.s"):
            exhibit.render()
        computed.append(exhibit)
    with span("verify.s"):
        session.flush()
        wrong, attempted = _verify_exhibits(computed, spec)
    wall = time.perf_counter() - started
    trace_store = session.trace_store
    counts["trace_store.compiled"] = trace_store.generated if trace_store else 0
    counts["trace_store.loaded"] = trace_store.disk_hits if trace_store else 0
    session.close()
    problems = [f"wrong exhibit {name}" for name in wrong]
    if mismatched:
        problems.append(f"{mismatched} replayed points differ from the untraced run")
    return {
        "wall_s": wall,
        "started": started,
        "spans": tracer.export(),
        "counts": counts,
        "machines": layers.machines,
        "attempted": attempted,
        "failed": checks.failed_ops(attempted, wrong, [] if not mismatched else problems),
        "problems": problems,
        "facts": facts,
    }


def trace_sweep(spec: dict[str, Any]) -> dict[str, Any]:
    """Traced sweep: generate, compile, trace, then step every point by layer."""
    tracer = Tracer()
    span = tracer.span
    session = _open_traced(tracer)
    from repro.core.config import get_config

    import synth

    facts = _host_facts(session)
    layers = Layers(tracer, facts["kernel"])
    expected = spec["digests"]
    configs = [get_config(name) for name in SWEEP_CONFIGS]
    started = time.perf_counter()
    traces = synth.build_pass(spec["seed"], spec["budget"], span=span)
    digests = []
    for trace in traces:
        for config in configs:
            result = layers.simulate(trace, config)
            with span("verify.s"):
                digests.append(checks.digest(result.to_dict()))
    mismatched = sum(got != want for got, want in zip(digests, expected))
    mismatched += abs(len(digests) - len(expected))
    wall = time.perf_counter() - started
    session.close()
    return {
        "wall_s": wall,
        "started": started,
        "spans": tracer.export(),
        "counts": {"tracegen.instr": sum(len(trace) for trace in traces)},
        "machines": layers.machines,
        "attempted": len(expected),
        "failed": min(mismatched, len(expected)),
        "problems": [f"{mismatched} traced points differ from the untraced run"]
        if mismatched else [],
        "facts": facts,
    }


MODES = {
    "runall": sample_runall,
    "sweep": sample_sweep,
    "trace-runall": trace_runall,
    "trace-sweep": trace_sweep,
}


def main() -> int:
    mode, spec_path, out_path = sys.argv[1:4]
    result = MODES[mode](json.loads(Path(spec_path).read_text()))
    result["pid"] = os.getpid()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The repository benchmark: run-all cold and warm, and a seeded synthetic sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload runall-cold --seed 1 --seconds 30 --trace 0

Workloads:

``runall-cold``      every exhibit of ``run-all --scale small`` with
                     ``jobs=2``, each sample a fresh process on an empty
                     cache dir;
``runall-warm``      the same request on a cache dir filled beforehand;
``sweep-synthetic``  ``--seed``-generated IR kernels compiled, traced and
                     simulated through ``Session.simulate_trace`` on four
                     machine configurations, in one process, no cache dir.

``--trace 0`` repeats fresh-process samples for ``--seconds`` seconds and
reports the end-to-end metrics as medians over the samples.  ``--trace 1``
runs one untraced sample, then the traced run (every layer called on its
own, each call a span), and reports the per-layer metrics; it also writes
a Chrome trace-event file and a per-layer table under ``.perfbench/trace``.

Every sample's output is checked (exhibit digests against ``golden.json``,
counter gates, cross-kernel and traced-vs-untraced bit identity).  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("runall-cold", "runall-warm", "sweep-synthetic")
#: dynamic instructions per sweep pass (each is simulated on four configs)
SWEEP_BUDGET = 25_000
#: fresh-process Session opens per run, for the set-up time median
SETUP_SPAWNS = 9
#: samples per timed run, however long they take (runall-cold takes ~17 s)
MIN_SAMPLES = 2
#: a run must end within this many seconds of its start
DEADLINE_S = 165.0
#: exhibits of one run-all (table1-4, figure3-13)
EXHIBITS = ("table1", "table2", "table3", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
            "figure13", "table4")
MACHINES = ("reference", "inorder", "ooo")
MB = float(1 << 20)

END_TO_END = {
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    "api.import_s": "s",
    "api.session_open_s": "s",
    "synth.s": "s",
    "compile.calls": "count",
    "compile.s": "s",
    "tracegen.calls": "count",
    "tracegen.instr": "count",
    "tracegen.s": "s",
    "trace_store.compiled": "count",
    "trace_store.loaded": "count",
    "trace_store.s": "s",
    "lower.calls": "count",
    "lower.s": "s",
    **{f"step.{m}.{k}": u for m in MACHINES
       for k, u in (("instr", "count"), ("s", "s"), ("instr_per_s", "1/s"),
                    ("sim_cycles", "count"))},
    "finalise.s": "s",
    "engine.requested": "count",
    "engine.simulated": "count",
    "engine.memory_hits": "count",
    "engine.disk_hits": "count",
    "result_store.put_s": "s",
    "result_store.get_s": "s",
    "pool.busy_s": "s",
    "pool.efficiency": "ratio",
    **{f"exhibit.{name}.s": "s" for name in EXHIBITS},
    "render.s": "s",
    "verify.s": "s",
    "cache_mb": "MB",
    "point_p50_ms": "ms",
    "point_p90_ms": "ms",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _src_digest() -> str:
    """Digest of the source tree and interpreter: the warm fill's validity key."""
    sha = hashlib.sha256(sys.version.encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    sha.update((HERE / "golden.json").read_bytes())
    return sha.hexdigest()


class Bench:
    """One invocation: its scratch directory, children, counts and problems."""

    def __init__(self, workload: str, seed: int, faults: dict[str, Any]) -> None:
        self.workload = workload
        self.seed = seed
        self.faults = faults
        self.started = time.perf_counter()
        self.scratch = WORK / f"run-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
        self.env["TMPDIR"] = str(self.scratch)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._serial = 0

    def fresh_dir(self, stem: str) -> Path:
        self._serial += 1
        return self.scratch / f"{stem}-{self._serial}"

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def _spawn(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            _out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, "timed out"
        finally:
            try:  # reap anything the child left in its process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return proc.returncode, err

    def child(self, mode: str, spec: dict[str, Any], ops: int) -> dict[str, Any] | None:
        """Run one child sample; a crash counts all its ``ops`` as failed."""
        self._serial += 1
        spec_path = self.scratch / f"spec-{self._serial}.json"
        out_path = self.scratch / f"out-{self._serial}.json"
        spec_path.write_text(json.dumps({**spec, **self.faults}))
        code, err = self._spawn([str(HERE / "child.py"), mode, str(spec_path), str(out_path)])
        if code != 0:
            self.attempted += ops
            self.failed += ops
            tail = err.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{mode} child exited {code}: {tail[0]}")
            sys.stderr.write(err)
            return None
        result = json.loads(out_path.read_text())
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(result["problems"])
        return result

    def setup_seconds(self, session_args: dict[str, Any]) -> float | None:
        """Seconds from a fresh process's start through an open Session."""
        code = ("import json, sys\nimport repro.api\n"
                "repro.api.Session(**json.loads(sys.argv[1])).close()\n")
        started = time.perf_counter()
        status, err = self._spawn(["-c", code, json.dumps(session_args)])
        elapsed = time.perf_counter() - started
        if status != 0:
            self.problems.append(f"set-up child exited {status}")
            sys.stderr.write(err)
            return None
        return elapsed

    # -- workload preparation -------------------------------------------------

    def warm_fill(self) -> Path:
        """The filled cache dir warm samples copy, built once per source tree."""
        master = WORK / "warm-fill"
        stamp = WORK / "warm-fill.stamp"
        key = _src_digest()
        if master.is_dir() and stamp.is_file() and stamp.read_text() == key:
            return master
        shutil.rmtree(master, ignore_errors=True)
        building = self.fresh_dir("fill")
        result = self.child("runall", {"cache_dir": str(building), "warm": False},
                            len(EXHIBITS))
        if result is None or result["failed"]:
            return building  # measured, but never reused
        building.rename(master)
        stamp.write_text(key)
        return master

    @staticmethod
    def discard(spec: dict[str, Any]) -> None:
        """Delete a finished sample's cache dir (samples never share one)."""
        if "cache_dir" in spec:
            shutil.rmtree(spec["cache_dir"], ignore_errors=True)

    def copy_of(self, source: Path) -> Path:
        target = self.fresh_dir("cache")
        shutil.copytree(source, target)
        return target

    def sample_spec(self) -> tuple[str, dict[str, Any], dict[str, Any], int]:
        """``(mode, child spec, Session args, ops)`` for one fresh sample."""
        if self.workload == "sweep-synthetic":
            return "sweep", {"seed": self.seed, "budget": SWEEP_BUDGET}, {}, 1
        if self.workload == "runall-warm":
            cache = self.copy_of(self.warm_fill())
        else:
            cache = self.fresh_dir("cache")
        spec = {"cache_dir": str(cache), "warm": self.workload == "runall-warm"}
        return "runall", spec, {"cache_dir": str(cache), "jobs": 2}, len(EXHIBITS)

    # -- the two kinds of run -------------------------------------------------

    def timed(self, seconds: float) -> dict[str, float]:
        setups = []
        for _ in range(SETUP_SPAWNS):
            _mode, spec, session_args, _ops = self.sample_spec()
            setups.append(self.setup_seconds(session_args))
            self.discard(spec)
        samples = []
        began = time.perf_counter()
        spent = []
        while True:
            mode, spec, _args, ops = self.sample_spec()
            before = time.perf_counter()
            sample = self.child(mode, spec, ops)
            spent.append(time.perf_counter() - before)
            self.discard(spec)
            if sample is not None:
                samples.append(sample)
            # at least MIN_SAMPLES, then none expected to overrun the window
            # by more than half a sample
            overrun = time.perf_counter() - began + statistics.mean(spent) / 2 - seconds
            if self.remaining() < 1.5 * max(spent) or (
                    len(spent) >= MIN_SAMPLES and overrun > 0):
                break
        if not samples or None in setups:
            return {}
        self.report_samples(samples)
        walls = [s["wall_s"] for s in samples]
        return {
            "wall_s": statistics.median(walls),
            "sim_instr_per_s": statistics.median(s["instr"] / s["wall_s"] for s in samples),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        }

    def report_samples(self, samples: list[dict[str, Any]]) -> None:
        print(f"{self.workload} seed={self.seed}: {len(samples)} samples, wall_s "
              + " ".join(f"{s['wall_s']:.3f}" for s in samples))
        print("host: " + json.dumps(samples[0]["facts"], sort_keys=True)
              + f" machine={platform.machine()}")
        first = samples[0]
        if "engine" in first:
            engine = first["engine"]
            print(f"engine: {engine['simulated']} simulated, {engine['disk_hits']} disk hits, "
                  f"{engine['memory_hits']} memory hits; cache "
                  f"{first['cache_bytes'] / MB:.2f} MB")
        else:
            lat = [x for s in samples for x in s["latencies_s"]]
            print(f"sweep: {first['kernels']} kernels, {len(first['latencies_s'])} "
                  f"simulate_trace calls per pass, point p50/p90 "
                  f"{1e3 * _percentile(lat, 50):.2f}/{1e3 * _percentile(lat, 90):.2f} ms; "
                  f"cross-kernel check: {first['cross_kernel']}")

    def traced(self) -> dict[str, float]:
        spec: dict[str, Any]
        if self.workload == "sweep-synthetic":
            ref = self.child("sweep", {"seed": self.seed, "budget": SWEEP_BUDGET}, 1)
            if ref is None:
                return {}
            spec = {"seed": self.seed, "budget": SWEEP_BUDGET, "digests": ref["digests"]}
            traced = self.child("trace-sweep", spec, len(ref["digests"]))
        else:
            warm = self.workload == "runall-warm"
            if warm:
                fill = self.warm_fill()
                ref_cache, replay_from, cache = self.copy_of(fill), fill, self.copy_of(fill)
            else:
                ref_cache = self.fresh_dir("cache")
                replay_from, cache = ref_cache, self.fresh_dir("cache")
            ref = self.child("runall", {"cache_dir": str(ref_cache), "warm": warm,
                                        "time_pool": True}, len(EXHIBITS))
            if ref is None:
                return {}
            spec = {"cache_dir": str(cache), "replay_from": str(replay_from), "warm": warm}
            traced = self.child("trace-runall", spec, len(EXHIBITS))
        if traced is None:
            return {}
        self.report_samples([ref])
        return self.layer_metrics(ref, traced)

    def layer_metrics(self, ref: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
        from spans import format_layer_table, layer_table, trace_events

        spans = [tuple(span) for span in traced["spans"]]
        table = layer_table(spans)
        wall = traced["wall_s"]

        def self_s(name: str) -> float:
            return table.get(name, {}).get("self_s", 0.0)

        metrics: dict[str, float] = {
            name: self_s(name) if unit == "s" else 0 for name, unit in PER_LAYER.items()}
        for layer in ("compile", "tracegen", "lower"):
            metrics[f"{layer}.calls"] = table.get(f"{layer}.s", {}).get("calls", 0)
        metrics.update(traced["counts"])
        for machine, (instr, cycles) in traced["machines"].items():
            seconds = self_s(f"step.{machine}.s")
            metrics[f"step.{machine}.instr"] = instr
            metrics[f"step.{machine}.sim_cycles"] = cycles
            metrics[f"step.{machine}.instr_per_s"] = instr / seconds if seconds else 0.0
        engine = ref.get("engine")
        if engine:
            metrics["engine.simulated"] = engine["simulated"]
            metrics["engine.memory_hits"] = engine["memory_hits"]
            metrics["engine.disk_hits"] = engine["disk_hits"]
            metrics["engine.requested"] = sum(
                engine[k] for k in ("simulated", "memory_hits", "disk_hits"))
        tasks = ref.get("pool_tasks", [])
        busy = sum(end - start for _pid, start, end in tasks)
        dispatch = sum(end - start for start, end in ref.get("pool_lifetimes", []))
        metrics["pool.busy_s"] = busy
        jobs = ref["facts"]["jobs"]
        metrics["pool.efficiency"] = busy / (jobs * dispatch) if dispatch else 0.0
        metrics["cache_mb"] = ref["cache_bytes"] / MB
        if "latencies_s" in ref:
            metrics["point_p50_ms"] = 1e3 * _percentile(ref["latencies_s"], 50)
            metrics["point_p90_ms"] = 1e3 * _percentile(ref["latencies_s"], 90)
        covered = sum(row["self_s"] for name, row in table.items()
                      if not name.startswith("api."))
        metrics["trace.wall_s"] = wall
        metrics["trace.untraced_wall_s"] = ref["wall_s"]
        metrics["trace.overhead_s"] = wall - ref["wall_s"]
        metrics["trace.coverage"] = covered / wall

        out = WORK / "trace"
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{self.workload}-seed{self.seed}"
        threads = {"traced run": (traced["pid"], spans)}
        for pid in sorted({pid for pid, _start, _end in tasks}):
            threads[f"untraced run pool worker {pid}"] = (
                pid, [("pool.busy_s", s, e, -1) for p, s, e in tasks if p == pid])
        origin = min([traced["started"]] + [s for _p, s, _e in tasks])
        document = trace_events(threads, origin, {
            "workload": self.workload, "seed": self.seed, "host": traced["facts"],
            "wall_s": wall, "untraced_wall_s": ref["wall_s"],
        })
        Path(f"{stem}.trace.json").write_text(json.dumps(document))
        text = format_layer_table(table, wall)
        Path(f"{stem}.layers.txt").write_text(text + "\n")
        print(text)
        print(f"traced wall_s {wall:.3f} (untraced {ref['wall_s']:.3f}, tracing overhead "
              f"{wall - ref['wall_s']:+.3f} s); layer self times cover "
              f"{100 * metrics['trace.coverage']:.1f}% of it")
        print(f"trace events: {stem}.trace.json")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="append", default=[], metavar="EXHIBIT",
                        help="fault injection: replace this exhibit's output before "
                             "the digest check (run-all workloads)")
    parser.add_argument("--evict", type=int, default=0, metavar="N",
                        help="fault injection: evict N results from each warm "
                             "sample's cache before it runs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still kills its child's process group and its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    faults = {"tamper": args.tamper, "evict": args.evict}
    bench = Bench(args.workload, args.seed, faults)
    bench.scratch.mkdir(parents=True, exist_ok=True)
    measure: Callable[[], dict[str, float]]
    if args.trace:
        units, measure = PER_LAYER, bench.traced
    else:
        units, measure = END_TO_END, lambda: bench.timed(args.seconds)
    try:
        values = measure()
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    for problem in bench.problems:
        print(f"problem: {problem}")
    if not values:
        print("perfbench: no complete sample", file=sys.stderr)
        return 1
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"error_rate = {error_rate!r} ({bench.failed} failed / {bench.attempted} attempted)")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

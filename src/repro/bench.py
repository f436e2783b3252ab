"""Performance-tracking benchmark harness (``python -m repro.bench``).

Times every requested (workload, configuration) point twice — one
monolithic pass and one chunked pass through :mod:`repro.parallel` — and
writes a ``BENCH_<rev>.json`` document that seeds the repository's
performance trajectory.  Each row records wall-clock for both modes,
simulated cycles per second, the chunked/monolithic speedup and, crucially,
whether the two runs produced **identical** statistics; equivalence is the
one result that must never regress.

``--check`` gates the run against a committed baseline
(``benchmarks/baseline.json``), failing when equivalence breaks or when a
point's chunked-over-monolithic wall-clock ratio regresses more than the
baseline's ``allowed_regression`` (25% by default).  The gate compares
*ratios*, not raw seconds, so it holds steady across machines of different
speeds; raw walls are recorded for humans and trend dashboards.
``--update-baseline`` rewrites the baseline from the current run.

CI runs ``python -m repro.bench --scale small --check`` on every push and
uploads the ``BENCH_*.json`` artifact (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.api import KERNEL_NAMES, SCALE_ALIASES, Session
from repro.core.config import standard_configs
from repro.core.runner import ExperimentPoint
from repro.parallel import DEFAULT_CHUNK_SIZE, ChunkedSimulation, available_cpus
from repro.workloads.registry import WORKLOAD_NAMES

#: benchmark document schema version (2: per-point chunk-acceptance
#: telemetry — accepted/spliced/replayed/cache_hits/backoff_at/rearms —
#: plus host_cpus and the multi-core cold-speedup gate)
BENCH_SCHEMA = 2

#: configurations benchmarked by default: the two extremes of the paper —
#: the in-order reference machine (quiesces often: chunk speculation wins)
#: and the fully loaded OOOVA (rarely quiesces: exact-replay fallback) —
#: plus the registered in-order-issue + renaming intermediate, which keeps
#: the refactored component kernel's hot path under the regression gate
DEFAULT_CONFIGS = ("reference", "inorder", "ooo-late-sle-vle")

#: rows with a monolithic wall below this are reported but never gated
#: (millisecond-scale timings are too noisy for a regression verdict)
MIN_GATED_WALL_S = 0.05


def _revision() -> str:
    """Identify the revision being benchmarked (for the output file name)."""
    rev = os.environ.get("BENCH_REV") or os.environ.get("GITHUB_SHA")
    if rev:
        return rev[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "local"


def _best_wall(fn, repeat: int) -> tuple[float, object]:
    """Run ``fn`` ``repeat`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_point(
    session: Session,
    workload: str,
    config,
    scale: str,
    chunk_size: int,
    intra_jobs: int,
    repeat: int,
    pool=None,
    kernel: str = "scalar",
    compare_kernels: bool = False,
) -> dict:
    """Benchmark one (workload, configuration) point.

    Three timings: the monolithic pass, a cold chunked pass (speculation
    pays the worker simulations), and a warm chunked pass against a
    populated chunk store (every merged chunk is read back and spliced
    instead of re-simulated — the resumability the subsystem exists for,
    and the one chunked win that shows even on a single-core machine).
    On hosts where the cold pass ran pool-less (single CPU: the driver
    declines speculation that can only contend with the parent) an
    untimed seeding pass fills the store first, so the warm timing keeps
    measuring the resume path rather than an accidental second cold run.

    Trace acquisition and the monolithic pass go through the ``session``
    façade (so a ``REPRO_CACHE_DIR`` environment memoises compiled traces
    across bench runs); the chunked passes drive the
    :mod:`repro.parallel` subsystem directly — it *is* the thing being
    benchmarked.
    """
    import tempfile

    from repro.parallel import ChunkStore

    trace = session.trace(workload, scale)
    fingerprint = ExperimentPoint(workload, scale, config).fingerprint()

    from repro.core.simulator import simulate_trace as _simulate_trace

    # Warm every per-trace one-off before the first timed region: the first
    # pass over a trace pays lazy derivations (memory-region tags, the
    # batched kernel's lowered columns) that belong to trace preparation,
    # not to the steady-state stepper speed being measured.  Without this
    # the cost landed in whichever timed wall ran first — historically the
    # cold chunked pass, whose single repetition cannot amortise it.
    _simulate_trace(trace, config, kernel=kernel)

    mono_wall, mono_result = _best_wall(
        lambda: session.simulate_trace(trace, config), repeat)

    other_kernel = "scalar" if kernel == "batched" else "batched"
    other_wall = None
    kernel_equivalent = None
    if compare_kernels:
        _simulate_trace(trace, config, kernel=other_kernel)  # same warmup
        other_wall, other_result = _best_wall(
            lambda: _simulate_trace(trace, config, kernel=other_kernel), repeat)
        kernel_equivalent = (
            other_result.stats.to_dict() == mono_result.stats.to_dict()
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-chunks-") as tmp:
        reports = []

        def chunked(speculate: str, jobs: int, worker_pool):
            sim = ChunkedSimulation(
                trace, config.params, chunk_size=chunk_size, jobs=jobs,
                speculate=speculate, chunk_store=ChunkStore(tmp),
                point_fingerprint=fingerprint, pool=worker_pool,
                kernel=kernel,
            )
            stats = sim.run()
            reports.append(sim.report)
            return stats

        cold_wall, cold_stats = _best_wall(
            lambda: chunked("auto", intra_jobs, pool), 1)
        cold_report = reports[-1]
        if cold_report.merged() == 0:
            # nothing was stored (pool-less single-CPU cold run, or a
            # speculation-hostile point): seed the store untimed so the
            # warm pass below still measures resume-from-store
            chunked("always", 1, None)
        # Warm pass: single process, no speculation workers — merged chunks
        # come straight from the chunk store (spliced after a short prefix
        # replay), the rest replay.  This is the resume path (crash
        # recovery, re-sweeps) and its timing does not depend on how many
        # cores the benchmark machine has.
        warm_wall, warm_stats = _best_wall(
            lambda: chunked("always", 1, None), repeat)
        warm_report = reports[-1]

    mono_stats = mono_result.stats
    equivalent = (
        mono_stats.to_dict() == cold_stats.to_dict()
        and mono_stats.to_dict() == warm_stats.to_dict()
    )
    cycles = mono_stats.cycles

    def _rate(wall: float):
        return round(cycles / wall) if wall > 0 else None

    row = {
        "workload": workload,
        "config": config.name,
        "scale": scale,
        "kernel": kernel,
        "instructions": len(trace),
        "cycles": cycles,
        "wall_s": {
            "monolithic": round(mono_wall, 6),
            "chunked": round(cold_wall, 6),
            "chunked_warm": round(warm_wall, 6),
        },
        "sim_cycles_per_s": {
            "monolithic": _rate(mono_wall),
            "chunked": _rate(cold_wall),
            "chunked_warm": _rate(warm_wall),
        },
        "speedup": round(mono_wall / cold_wall, 4) if cold_wall > 0 else None,
        "speedup_warm": round(mono_wall / warm_wall, 4) if warm_wall > 0 else None,
        "equivalent": equivalent,
        # per-point chunk-acceptance telemetry: how the cold pass resolved
        # each chunk, plus how many the warm resume fed from the store
        "chunks": dict(
            cold_report.acceptance(),
            warm_cache_hits=warm_report.cache_hits,
            warm_spliced=warm_report.spliced,
        ),
    }
    if other_wall is not None:
        row["wall_s"][f"monolithic_{other_kernel}"] = round(other_wall, 6)
        row["sim_cycles_per_s"][f"monolithic_{other_kernel}"] = _rate(other_wall)
        row["kernel_equivalent"] = kernel_equivalent
    return row


def run_bench(
    scale: str,
    programs: Sequence[str],
    config_names: Sequence[str],
    chunk_size: int,
    intra_jobs: int,
    repeat: int,
    kernel: str = "scalar",
    compare_kernels: bool = False,
) -> dict:
    """Benchmark the grid and assemble the ``BENCH_*.json`` document."""
    configs = standard_configs()
    pool = None
    if intra_jobs > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=intra_jobs)
        except OSError:
            pool = None
    results = []
    try:
        with Session(kernel=kernel) as session:
            for workload in programs:
                for name in config_names:
                    row = bench_point(
                        session, workload, configs[name], scale, chunk_size,
                        intra_jobs, repeat, pool=pool, kernel=kernel,
                        compare_kernels=compare_kernels,
                    )
                    results.append(row)
                    status = "ok" if row["equivalent"] else "MISMATCH"
                    if row.get("kernel_equivalent") is False:
                        status = "KERNEL MISMATCH"
                    print(
                        f"{workload:>9s} {name:17s} mono {row['wall_s']['monolithic']:7.3f}s "
                        f"chunked {row['wall_s']['chunked']:7.3f}s "
                        f"warm {row['wall_s']['chunked_warm']:7.3f}s "
                        f"({row['speedup']:4.2f}x/{row['speedup_warm']:4.2f}x, "
                        f"{row['chunks']['accepted'] + row['chunks']['spliced']}"
                        f"/{row['chunks']['chunks']} merged) [{status}]",
                        file=sys.stderr,
                    )
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    walls = [r["wall_s"] for r in results]
    totals = {
        "wall_s_monolithic": round(sum(w["monolithic"] for w in walls), 6),
        "wall_s_chunked": round(sum(w["chunked"] for w in walls), 6),
        "all_equivalent": all(r["equivalent"] for r in results),
    }
    if compare_kernels:
        other = "scalar" if kernel == "batched" else "batched"
        other_total = sum(w[f"monolithic_{other}"] for w in walls)
        totals[f"wall_s_monolithic_{other}"] = round(other_total, 6)
        # aggregate simulated-cycles/sec ratio, batched over scalar: same
        # cycles both ways, so it is the inverse of the wall ratio
        scalar_wall = other_total if kernel == "batched" else totals["wall_s_monolithic"]
        batched_wall = totals["wall_s_monolithic"] if kernel == "batched" else other_total
        totals["batched_over_scalar_speedup"] = (
            round(scalar_wall / batched_wall, 4) if batched_wall > 0 else None
        )
        totals["kernels_equivalent"] = all(
            r.get("kernel_equivalent", True) for r in results
        )
    return {
        "schema": BENCH_SCHEMA,
        "rev": _revision(),
        "scale": scale,
        "chunk_size": chunk_size,
        "intra_jobs": intra_jobs,
        "repeat": repeat,
        "kernel": kernel,
        # the cold chunked/mono ratio only means anything relative to the
        # parallelism the run actually had; gates consult this
        "host_cpus": available_cpus(),
        "points": len(results),
        "totals": totals,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Baseline gating
# ---------------------------------------------------------------------------

#: the two gated wall-clock ratios; both are chunked-mode wall divided by
#: the monolithic wall of the same run, so they transfer across machine
#: speeds.  ``chunked_over_mono`` (the cold, speculating pass) also depends
#: on core count; ``warm_over_mono`` (single-process resume from the chunk
#: store) does not, which makes it the tighter regression signal.
GATED_RATIOS = ("chunked", "chunked_warm")


def _ratio(row: dict, mode: str) -> float | None:
    mono = row["wall_s"]["monolithic"]
    if mono <= 0:
        return None
    return row["wall_s"][mode] / mono


def _aggregate_ratio(document: dict, mode: str) -> float | None:
    """Fleet-wide ratio: total chunked-mode wall over total monolithic wall.

    Per-point walls at small scale are tens of milliseconds — too noisy for
    a tight gate — but the sum over the whole grid is stable, so the
    aggregate carries the strict threshold and the per-point entries a
    loose one.
    """
    mono = sum(r["wall_s"]["monolithic"] for r in document["results"])
    if mono <= 0:
        return None
    return sum(r["wall_s"][mode] for r in document["results"]) / mono


def baseline_from(document: dict) -> dict:
    """Reduce a bench document to the committed baseline schema."""
    entries = {}
    for row in document["results"]:
        ratios = {}
        for mode in GATED_RATIOS:
            ratio = _ratio(row, mode)
            if ratio is not None:
                ratios[f"{mode}_over_mono"] = round(ratio, 4)
        if ratios:
            entries[f"{row['workload']}/{row['config']}"] = ratios
    aggregate = {}
    for mode in GATED_RATIOS:
        ratio = _aggregate_ratio(document, mode)
        if ratio is not None:
            aggregate[f"{mode}_over_mono"] = round(ratio, 4)
    return {
        "schema": BENCH_SCHEMA,
        "scale": document["scale"],
        "chunk_size": document["chunk_size"],
        "intra_jobs": document["intra_jobs"],
        "allowed_regression": {"aggregate": 0.25, "per_point": 0.6},
        "aggregate": aggregate,
        "entries": entries,
    }


def _allowances(baseline: dict) -> tuple[float, float]:
    allowed = baseline.get("allowed_regression", {})
    if isinstance(allowed, (int, float)):  # legacy scalar form
        return float(allowed), float(allowed)
    return (float(allowed.get("aggregate", 0.25)),
            float(allowed.get("per_point", 0.6)))


def check_against_baseline(document: dict, baseline: dict) -> list[str]:
    """Return the list of violations (empty: the gate passes)."""
    problems = []
    for row in document["results"]:
        label = f"{row['workload']}/{row['config']}"
        if not row["equivalent"]:
            problems.append(
                f"{label}: chunked result differs from monolithic run")
    aggregate_allowed, point_allowed = _allowances(baseline)
    # With real parallelism available, cold chunked speculation must *beat*
    # the monolithic pass in aggregate — the whole point of the envelope
    # acceptance.  The absolute threshold only applies when the run had at
    # least two CPUs and asked for at least two workers; a single-core run
    # declines the pool ("auto") and is gated by the relative ratios alone.
    if document.get("host_cpus", 1) >= 2 and document.get("intra_jobs", 1) >= 2:
        cold = _aggregate_ratio(document, "chunked")
        if cold is not None and cold > 1.0:
            problems.append(
                f"aggregate: cold chunked/mono wall ratio {cold:.3f} > 1.0 "
                f"on a {document['host_cpus']}-CPU host — speculation is "
                f"not paying for itself"
            )
    # The relative aggregate gate only compares like with like: a subset
    # run (--programs/--configs) has a differently-weighted aggregate than
    # the committed full-grid baseline, so subsets are gated per point only.
    labels = {f"{r['workload']}/{r['config']}" for r in document["results"]}
    full_grid = labels >= set(baseline.get("entries", {}))
    for mode in GATED_RATIOS if full_grid else ():
        reference = baseline.get("aggregate", {}).get(f"{mode}_over_mono")
        ratio = _aggregate_ratio(document, mode)
        if reference is None or ratio is None:
            continue
        if ratio > float(reference) * (1.0 + aggregate_allowed):
            problems.append(
                f"aggregate: {mode}/mono wall ratio {ratio:.3f} regressed "
                f">{aggregate_allowed:.0%} vs baseline {float(reference):.3f}"
            )
    for row in document["results"]:
        label = f"{row['workload']}/{row['config']}"
        entry = baseline.get("entries", {}).get(label)
        if entry is None:
            continue
        if row["wall_s"]["monolithic"] < MIN_GATED_WALL_S:
            continue  # too fast to time reliably; equivalence still gated
        for mode in GATED_RATIOS:
            reference = entry.get(f"{mode}_over_mono")
            ratio = _ratio(row, mode)
            if reference is None or ratio is None:
                continue
            if ratio > float(reference) * (1.0 + point_allowed):
                problems.append(
                    f"{label}: {mode}/mono wall ratio {ratio:.3f} regressed "
                    f">{point_allowed:.0%} vs baseline {float(reference):.3f}"
                )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time monolithic vs chunked simulation per workload.",
    )
    parser.add_argument("--scale", choices=sorted(SCALE_ALIASES),
                        default="small")
    parser.add_argument("--programs", default=None, metavar="NAMES",
                        help="comma-separated workload subset (default: all)")
    parser.add_argument("--configs", default=",".join(DEFAULT_CONFIGS),
                        metavar="NAMES",
                        help=f"configurations (default: {','.join(DEFAULT_CONFIGS)})")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    parser.add_argument("--intra-jobs", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions, best-of (default: 3)")
    parser.add_argument("--kernel", choices=KERNEL_NAMES, default=None,
                        help="machine stepper kernel (default: $REPRO_KERNEL "
                             "or batched; the committed baseline's ratios "
                             "were recorded on scalar)")
    parser.add_argument("--compare-kernels", action="store_true",
                        help="also time the other kernel's monolithic pass "
                             "and record the batched-over-scalar speedup")
    parser.add_argument("--output", default=".", metavar="DIR",
                        help="directory receiving BENCH_<rev>.json")
    parser.add_argument("--baseline", default="benchmarks/baseline.json",
                        metavar="FILE")
    parser.add_argument("--check", action="store_true",
                        help="fail on equivalence break or wall regression "
                             "vs the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline file from this run")
    args = parser.parse_args(argv)

    programs = ([p.strip() for p in args.programs.split(",") if p.strip()]
                if args.programs else list(WORKLOAD_NAMES))
    unknown = [p for p in programs if p not in WORKLOAD_NAMES]
    if unknown:
        print(f"error: unknown program(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    known = standard_configs()
    unknown = [c for c in config_names if c not in known]
    if unknown:
        print(f"error: unknown config(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    from repro.api import Settings

    kernel = Settings.resolve(
        **({"kernel": args.kernel} if args.kernel is not None else {})
    ).kernel

    document = run_bench(
        SCALE_ALIASES[args.scale], programs, config_names,
        args.chunk_size, max(1, args.intra_jobs), max(1, args.repeat),
        kernel=kernel, compare_kernels=args.compare_kernels,
    )
    speedup = document["totals"].get("batched_over_scalar_speedup")
    if speedup is not None:
        print(f"batched-over-scalar aggregate speedup: {speedup:.2f}x",
              file=sys.stderr)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{document['rev']}.json"
    out_path.write_text(json.dumps(document, indent=2) + "\n",
                        encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)

    if args.update_baseline:
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(baseline_from(document), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"updated baseline {baseline_path}", file=sys.stderr)

    if document["totals"].get("kernels_equivalent") is False:
        # a batched-vs-scalar divergence is a correctness bug, never OK
        print("error: batched and scalar kernels produced different "
              "statistics", file=sys.stderr)
        return 1

    if args.check:
        try:
            baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        problems = check_against_baseline(document, baseline)
        if problems:
            for problem in problems:
                print(f"BENCH REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("bench check passed: chunked==monolithic everywhere, "
              "no wall-clock regression", file=sys.stderr)
    elif not document["totals"]["all_equivalent"]:
        # even without --check an equivalence break is a hard failure
        print("error: chunked and monolithic statistics differ",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One entry point per table and figure of the paper's evaluation.

Each function runs the simulations behind one exhibit of the paper and
returns plain data structures (dictionaries keyed by program name).  The
benchmark harness under ``benchmarks/`` and the ``python -m repro.cli``
entry point call these functions and print the resulting tables;
EXPERIMENTS.md records the measured values next to the paper's.  All
functions accept a ``programs`` subset and a ``scale`` so the test suite can
exercise them cheaply.

Every simulating function builds exactly one :class:`Grid` through a
matching ``*_grid`` function, which declares the sweep without running
anything.  A driver can therefore collect the grids of every exhibit up
front (:meth:`repro.api.Session.iter_exhibits` does) and queue all their
missing points on the experiment engine before the first exhibit is
computed.  Resolving a grid then waits only for its own points: the engine
streams results from one longest-first queue, simulating only what its
result store lacks, across worker processes with ``--jobs``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Hashable, Iterable, Mapping, Sequence

from repro.common.params import CommitModel, FunctionalUnitLatencies, LoadElimination
from repro.core.config import (
    DEFAULT_LATENCY,
    LATENCY_SWEEP,
    MachineConfig,
    REFERENCE_LATENCY_SWEEP,
    REGISTER_SWEEP,
    inorder_config,
    ooo_config,
    reference_config,
)
from repro.core.results import SimulationResult
from repro.core.runner import (
    ExperimentEngine,
    ExperimentPoint,
    ExperimentSpec,
    get_engine,
    run_experiment,
)
from repro.trace.stats import TraceStatistics
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

#: the two programs the paper uses as representatives in Figure 3
FIGURE3_PROGRAMS = ("hydro2d", "dyfesm")

#: physical register counts used in the load-elimination studies (Figs 11-12)
LOAD_ELIMINATION_REGISTER_SWEEP = (16, 32, 64)


def _programs(programs: Iterable[str] | None) -> tuple[str, ...]:
    return tuple(programs) if programs is not None else WORKLOAD_NAMES


class Grid:
    """One exhibit's sweep grid: declared first, resolved on demand.

    ``configs`` maps the exhibit's own labels to machine configurations;
    the grid is their cross product with ``workloads``.  Declaring a grid
    simulates nothing (:attr:`spec` is the point list a planner queues);
    :meth:`resolve` fetches every point through the experiment engine, after
    which ``grid(workload, label)`` is the result for that cell.
    """

    def __init__(
        self,
        name: str,
        workloads: Sequence[str],
        configs: Mapping[Hashable, MachineConfig],
        scale: str,
    ) -> None:
        self.workloads = tuple(workloads)
        self.configs = dict(configs)
        self.scale = scale
        self.spec = ExperimentSpec.grid(name, self.workloads, self.configs.values(), scale)
        self._results: Mapping[ExperimentPoint, SimulationResult] = {}

    def resolve(self, engine: ExperimentEngine | None) -> "Grid":
        """Fetch every point (default: through the process-wide engine)."""
        self._results = run_experiment(self.spec, engine)
        return self

    def __call__(self, workload: str, label: Hashable) -> SimulationResult:
        return self._results[ExperimentPoint(workload, self.scale, self.configs[label])]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_functional_unit_latencies() -> dict[str, int]:
    """Table 1: functional-unit latencies (cycles) used by both machines."""
    return asdict(FunctionalUnitLatencies())


def _trace_statistics(name: str, scale: str) -> TraceStatistics:
    """One program's trace statistics, through the current engine's trace
    store when it has one (so a warm cache reads them instead of recompiling)."""
    trace_store = get_engine().trace_store
    if trace_store is not None:
        return trace_store.statistics(name, scale)
    return get_workload(name, scale).statistics()


def table2_program_statistics(
    programs: Iterable[str] | None = None, scale: str = "small"
) -> dict[str, TraceStatistics]:
    """Table 2: instruction counts, %vectorisation and average vector length."""
    return {name: _trace_statistics(name, scale) for name in _programs(programs)}


def table3_spill_statistics(
    programs: Iterable[str] | None = None, scale: str = "small"
) -> dict[str, dict[str, int]]:
    """Table 3: vector memory operations split into ordinary and spill traffic."""
    rows: dict[str, dict[str, int]] = {}
    for name in _programs(programs):
        stats = _trace_statistics(name, scale)
        rows[name] = {
            "vector_load_ops": stats.vector_load_ops,
            "vector_load_spill_ops": stats.vector_load_spill_ops,
            "vector_store_ops": stats.vector_store_ops,
            "vector_store_spill_ops": stats.vector_store_spill_ops,
            "scalar_load_spill_ops": stats.scalar_load_spill_ops,
            "scalar_store_spill_ops": stats.scalar_store_spill_ops,
        }
    return rows


# ---------------------------------------------------------------------------
# Reference-architecture studies (Figures 3 and 4)
# ---------------------------------------------------------------------------


def figure3_grid(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
) -> Grid:
    """Figure 3's grid: the reference machine at every latency."""
    selected = tuple(programs) if programs is not None else FIGURE3_PROGRAMS
    configs = {latency: reference_config(latency) for latency in latencies}
    return Grid("figure3", selected, configs, scale)


def figure3_reference_state_breakdown(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, dict[tuple[bool, bool, bool], int]]]:
    """Figure 3: (FU2, FU1, MEM) state breakdown of the reference machine.

    The paper shows the two representative programs hydro2d and dyfesm; by
    default this does the same, but any subset can be requested.
    """
    grid = figure3_grid(programs, latencies, scale).resolve(engine)
    return {
        name: {
            latency: grid(name, latency).stats.state_breakdown()
            for latency in grid.configs
        }
        for name in grid.workloads
    }


def figure4_grid(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
) -> Grid:
    """Figure 4's grid: the reference machine at every latency."""
    configs = {latency: reference_config(latency) for latency in latencies}
    return Grid("figure4", _programs(programs), configs, scale)


def figure4_reference_port_idle(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = REFERENCE_LATENCY_SWEEP,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 4: % cycles the memory port is idle on the reference machine."""
    grid = figure4_grid(programs, latencies, scale).resolve(engine)
    return {
        name: {
            latency: grid(name, latency).stats.memory_port_idle_fraction()
            for latency in grid.configs
        }
        for name in grid.workloads
    }


# ---------------------------------------------------------------------------
# OOOVA performance (Figures 5, 6, 7, 8)
# ---------------------------------------------------------------------------


def figure5_grid(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 5's grid: the reference machine plus both OOOVA queue sizes
    at every register count (labels ``"REF"`` and ``(regs, slots)``)."""
    configs: dict[Hashable, MachineConfig] = {"REF": reference_config(latency)}
    for regs in register_counts:
        for slots in (16, 128):
            configs[(regs, slots)] = ooo_config(
                phys_vregs=regs, latency=latency, queue_slots=slots)
    return Grid("figure5", _programs(programs), configs, scale)


def figure5_speedup_vs_registers(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, Mapping]]:
    """Figure 5: OOOVA speedup over the reference machine vs physical registers.

    Returns, per program, the speedup curves of the 16-slot-queue and
    128-slot-queue machines plus the IDEAL upper bound.
    """
    grid = figure5_grid(programs, register_counts, latency, scale).resolve(engine)
    results: dict[str, dict[str, Mapping]] = {}
    for name in grid.workloads:
        reference = grid(name, "REF")
        ideal_cycles = reference.stats.ideal_cycles()
        curves: dict[str, dict[int, float]] = {"OOOVA-16": {}, "OOOVA-128": {}}
        for regs in register_counts:
            for label, slots in (("OOOVA-16", 16), ("OOOVA-128", 128)):
                curves[label][regs] = grid(name, (regs, slots)).speedup_over(reference)
        results[name] = {
            "curves": curves,
            "ideal": reference.cycles / ideal_cycles if ideal_cycles else float("inf"),
        }
    return results


def _ref_vs_ooo_grid(
    name: str, programs: Iterable[str] | None, latency: int, phys_vregs: int, scale: str
) -> Grid:
    """The reference machine against the OOOVA (labels ``"REF"``, ``"OOOVA"``)."""
    configs = {
        "REF": reference_config(latency),
        "OOOVA": ooo_config(phys_vregs=phys_vregs, latency=latency),
    }
    return Grid(name, _programs(programs), configs, scale)


def figure6_grid(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
) -> Grid:
    """Figure 6's grid: the reference machine against the OOOVA."""
    return _ref_vs_ooo_grid("figure6", programs, latency, phys_vregs, scale)


def figure6_port_idle_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 6: memory-port idle fraction, reference versus OOOVA."""
    grid = figure6_grid(programs, latency, phys_vregs, scale).resolve(engine)
    return {
        name: {
            label: grid(name, label).stats.memory_port_idle_fraction()
            for label in grid.configs
        }
        for name in grid.workloads
    }


def figure7_grid(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
) -> Grid:
    """Figure 7's grid: the reference machine against the OOOVA."""
    return _ref_vs_ooo_grid("figure7", programs, latency, phys_vregs, scale)


def figure7_state_breakdown_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, dict[tuple[bool, bool, bool], int]]]:
    """Figure 7: execution-state breakdown, reference versus OOOVA."""
    grid = figure7_grid(programs, latency, phys_vregs, scale).resolve(engine)
    return {
        name: {
            label: grid(name, label).stats.state_breakdown()
            for label in grid.configs
        }
        for name in grid.workloads
    }


def figure8_grid(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = LATENCY_SWEEP,
    phys_vregs: int = 16,
    scale: str = "small",
) -> Grid:
    """Figure 8's grid: both machines at every latency
    (labels ``("REF", latency)`` and ``("OOOVA", latency)``)."""
    configs: dict[Hashable, MachineConfig] = {
        ("REF", latency): reference_config(latency) for latency in latencies
    }
    for latency in latencies:
        configs[("OOOVA", latency)] = ooo_config(phys_vregs=phys_vregs, latency=latency)
    return Grid("figure8", _programs(programs), configs, scale)


def figure8_latency_tolerance(
    programs: Iterable[str] | None = None,
    latencies: Sequence[int] = LATENCY_SWEEP,
    phys_vregs: int = 16,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, dict[int, int]]]:
    """Figure 8: execution time versus main-memory latency (REF, OOOVA, IDEAL)."""
    grid = figure8_grid(programs, latencies, phys_vregs, scale).resolve(engine)
    results: dict[str, dict[str, dict[int, int]]] = {}
    for name in grid.workloads:
        ref_curve: dict[int, int] = {}
        ooo_curve: dict[int, int] = {}
        ideal_curve: dict[int, int] = {}
        for latency in latencies:
            reference = grid(name, ("REF", latency))
            ref_curve[latency] = reference.cycles
            ooo_curve[latency] = grid(name, ("OOOVA", latency)).cycles
            ideal_curve[latency] = reference.stats.ideal_cycles()
        results[name] = {"REF": ref_curve, "OOOVA": ooo_curve, "IDEAL": ideal_curve}
    return results


# ---------------------------------------------------------------------------
# Machine comparison across the registry (Table 4)
# ---------------------------------------------------------------------------


def table4_grid(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
) -> Grid:
    """Table 4's grid: the three registered machine organisations."""
    configs = {
        "REF": reference_config(latency),
        "INORDER": inorder_config(phys_vregs=phys_vregs, latency=latency),
        "OOOVA": ooo_config(phys_vregs=phys_vregs, latency=latency),
    }
    return Grid("table4", _programs(programs), configs, scale)


def table4_machine_comparison(
    programs: Iterable[str] | None = None,
    latency: int = DEFAULT_LATENCY,
    phys_vregs: int = 16,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, Mapping]]:
    """Table 4: the three registered machine organisations, side by side.

    For every program: cycles, speedup over the reference machine and
    memory-port idle fraction on the in-order reference machine, the
    in-order-issue + renaming intermediate (``inorder``, registered through
    the machine-model registry) and the out-of-order OOOVA, all at the same
    memory latency and (where applicable) the same register/queue
    resources.  The ``inorder`` column separates how much of the OOOVA's
    win comes from renaming alone and how much needs out-of-order issue.
    """
    grid = table4_grid(programs, latency, phys_vregs, scale).resolve(engine)
    results: dict[str, dict[str, Mapping]] = {}
    for name in grid.workloads:
        reference = grid(name, "REF")
        results[name] = {
            "cycles": {label: grid(name, label).cycles for label in grid.configs},
            "speedup": {
                label: grid(name, label).speedup_over(reference)
                for label in grid.configs
                if label != "REF"
            },
            "port_idle": {
                label: grid(name, label).stats.memory_port_idle_fraction()
                for label in grid.configs
            },
        }
    return results


# ---------------------------------------------------------------------------
# Lost decode cycles (Figure 10)
# ---------------------------------------------------------------------------


def lost_decode_row(stats) -> dict[str, object]:
    """One Figure 10 row: stall-cycle breakdown plus the lost percentage.

    Split out from :func:`figure10_lost_decode_cycles` so regression tests
    can pin hand-derived values on a built trace without running a grid.
    """
    breakdown = stats.lost_decode_cycles()
    return {
        "cycles": stats.cycles,
        "rename": breakdown["rename"],
        "rob": breakdown["rob"],
        "queue": breakdown["queue"],
        "lost_percent": 100.0 * stats.lost_decode_fraction(),
    }


def figure10_grid(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 10's grid: the early-commit OOOVA at every register count."""
    configs = {
        regs: ooo_config(phys_vregs=regs, latency=latency) for regs in register_counts
    }
    return Grid("figure10", _programs(programs), configs, scale)


def figure10_lost_decode_cycles(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, dict[str, object]]]:
    """Figure 10: decode cycles lost to rename/ROB/queue stalls.

    Uses the same early-commit OOOVA configurations as Figure 5's
    16-slot-queue curve, so with a warm store this exhibit costs no new
    simulations: pressure on the rename free lists falls (and the lost
    fraction with it) as physical registers are added.
    """
    grid = figure10_grid(programs, register_counts, latency, scale).resolve(engine)
    return {
        name: {regs: lost_decode_row(grid(name, regs).stats) for regs in grid.configs}
        for name in grid.workloads
    }


# ---------------------------------------------------------------------------
# Precise traps (Figure 9)
# ---------------------------------------------------------------------------


def figure9_grid(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 9's grid: the reference machine plus early- and late-commit
    OOOVAs (labels ``"REF"`` and ``(commit, regs)``)."""
    configs: dict[Hashable, MachineConfig] = {"REF": reference_config(latency)}
    for label, commit_model in (("early", CommitModel.EARLY), ("late", CommitModel.LATE)):
        for regs in register_counts:
            configs[(label, regs)] = ooo_config(
                phys_vregs=regs, latency=latency, commit_model=commit_model)
    return Grid("figure9", _programs(programs), configs, scale)


def figure9_commit_models(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Figure 9: speedup over the reference machine, early versus late commit."""
    grid = figure9_grid(programs, register_counts, latency, scale).resolve(engine)
    results: dict[str, dict[str, dict[int, float]]] = {}
    for name in grid.workloads:
        reference = grid(name, "REF")
        results[name] = {
            label: {
                regs: grid(name, (label, regs)).speedup_over(reference)
                for regs in register_counts
            }
            for label in ("early", "late")
        }
    return results


# ---------------------------------------------------------------------------
# Dynamic load elimination (Figures 11, 12, 13)
# ---------------------------------------------------------------------------


def _load_elimination_grid(
    grid_name: str,
    elimination: LoadElimination,
    programs: Iterable[str] | None,
    register_counts: Sequence[int],
    latency: int,
    scale: str,
) -> Grid:
    """Late-commit OOOVAs with and without ``elimination`` at every register
    count (labels ``("base", regs)`` and ``("improved", regs)``)."""
    configs: dict[Hashable, MachineConfig] = {}
    for label, variant in (("base", LoadElimination.NONE), ("improved", elimination)):
        for regs in register_counts:
            configs[(label, regs)] = ooo_config(
                phys_vregs=regs,
                latency=latency,
                commit_model=CommitModel.LATE,
                load_elimination=variant,
            )
    return Grid(grid_name, _programs(programs), configs, scale)


def _load_elimination_speedups(grid: Grid, engine: ExperimentEngine | None,
                               register_counts: Sequence[int]) -> dict[str, dict[int, float]]:
    grid.resolve(engine)
    return {
        name: {
            regs: grid(name, ("improved", regs)).speedup_over(grid(name, ("base", regs)))
            for regs in register_counts
        }
        for name in grid.workloads
    }


def figure11_grid(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 11's grid: late-commit OOOVAs with and without SLE."""
    return _load_elimination_grid(
        "figure11", LoadElimination.SLE, programs, register_counts, latency, scale)


def figure11_sle_speedup(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 11: speedup of scalar load elimination over the late-commit OOOVA."""
    grid = figure11_grid(programs, register_counts, latency, scale)
    return _load_elimination_speedups(grid, engine, register_counts)


def figure12_grid(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 12's grid: late-commit OOOVAs with and without SLE+VLE."""
    return _load_elimination_grid(
        "figure12", LoadElimination.SLE_VLE, programs, register_counts, latency, scale)


def figure12_sle_vle_speedup(
    programs: Iterable[str] | None = None,
    register_counts: Sequence[int] = LOAD_ELIMINATION_REGISTER_SWEEP,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, float]]:
    """Figure 12: speedup of scalar+vector load elimination over the baseline."""
    grid = figure12_grid(programs, register_counts, latency, scale)
    return _load_elimination_speedups(grid, engine, register_counts)


def figure13_grid(
    programs: Iterable[str] | None = None,
    phys_vregs: int = 32,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
) -> Grid:
    """Figure 13's grid: the late-commit OOOVA without load elimination
    (label ``"base"``), with SLE and with SLE+VLE."""
    configs = {
        label: ooo_config(
            phys_vregs=phys_vregs,
            latency=latency,
            commit_model=CommitModel.LATE,
            load_elimination=elimination,
        )
        for label, elimination in (("base", LoadElimination.NONE),
                                   ("SLE", LoadElimination.SLE),
                                   ("SLE+VLE", LoadElimination.SLE_VLE))
    }
    return Grid("figure13", _programs(programs), configs, scale)


def figure13_traffic_reduction(
    programs: Iterable[str] | None = None,
    phys_vregs: int = 32,
    latency: int = DEFAULT_LATENCY,
    scale: str = "small",
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, float]]:
    """Figure 13: memory-traffic reduction of SLE and SLE+VLE at 32 registers.

    The ratio follows Section 6.4: requests issued by the baseline OOOVA
    divided by requests issued by the load-eliminating configuration.
    """
    grid = figure13_grid(programs, phys_vregs, latency, scale).resolve(engine)
    return {
        name: {
            label: grid(name, label).traffic_reduction_over(grid(name, "base"))
            for label in ("SLE", "SLE+VLE")
        }
        for name in grid.workloads
    }

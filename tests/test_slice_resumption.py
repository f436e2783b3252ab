"""Slice-wise resumption: a trace run in pieces equals the whole-trace pass.

Every point is simulated as one ``run_slice`` over the whole trace, but two
contracts the kernel keeps are slice-level: ``run_slice`` accepts any
consecutive slices of a trace (the mixed-kernel tests and the per-layer
timing child drive it that way), and ``snapshot``/``restore`` capture the
complete machine state (the batched-vs-scalar parity tests compare
snapshots).  This battery pins both on every workload and configuration:
cutting a trace anywhere and handing the state from slice to slice through
the same machine, through a JSON snapshot restored into a fresh machine,
or across the two stepper kernels yields
:class:`~repro.common.stats.SimStats` identical to :func:`simulate_trace`,
down to the stall-cycle counters and busy intervals behind every figure.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import get_config, machine_config, standard_configs
from repro.core.machines import create_run, machine_names
from repro.core.simulator import simulate_trace
from repro.machine.batched import run_slice_batched
from repro.workloads.registry import WORKLOAD_NAMES, get_workload

CONFIG_NAMES = tuple(standard_configs())

#: both stepper kernels; every slice battery runs under each
KERNELS = ("scalar", "batched")

#: every registered machine (via the registry, not a hand-kept list), plus
#: the fully loaded OOOVA variant for load-elimination coverage
MACHINES = tuple(machine_names()) + ("ooo-late-sle-vle",)

#: how state crosses a cut: the same live machine, a JSON snapshot restored
#: into a fresh machine, or the same machine with the kernel flipped
HANDOFFS = ("same-machine", "snapshot", "alternate-kernels")


def _trace(workload, scale="small"):
    return get_workload(workload, scale).trace()


def _mono_stats(trace, config):
    return simulate_trace(trace, config).stats.to_dict()


def _step(machine, instructions, kernel):
    if kernel == "batched":
        run_slice_batched(machine, instructions)
    else:
        machine.run_slice(instructions)


def _handoff(machine, config, trace):
    """A fresh machine restored from ``machine``'s JSON-round-tripped state."""
    state = json.loads(json.dumps(machine.snapshot()))
    fresh = create_run(config.params, trace)
    fresh.restore(state)
    return fresh


def _every(length, size):
    return list(range(size, length, size))


def _sliced_stats(trace, config, cuts, kernel="scalar", handoff="snapshot"):
    """Run ``trace`` as the slices between ``cuts``; return the final stats."""
    other = KERNELS[1 - KERNELS.index(kernel)]
    bounds = [0, *cuts, len(trace)]
    machine = create_run(config.params, trace)
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        slice_kernel = kernel
        if index and handoff == "snapshot":
            machine = _handoff(machine, config, trace)
        elif handoff == "alternate-kernels" and index % 2:
            slice_kernel = other
        _step(machine, trace.instructions[start:stop], slice_kernel)
    return machine.finalise().to_dict()


class TestEquivalenceEveryWorkload:
    """Every workload at small scale, cut every N instructions, identical stats."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_small_scale_identical_stats(self, workload, kernel):
        # rotate configurations across workloads so the battery covers all
        # six without simulating the full cross product
        config = get_config(
            CONFIG_NAMES[WORKLOAD_NAMES.index(workload) % len(CONFIG_NAMES)])
        trace = _trace(workload)
        mono = _mono_stats(trace, config)
        for size in (211, 1024):
            sliced = _sliced_stats(trace, config, _every(len(trace), size),
                                   kernel=kernel)
            assert sliced == mono, (workload, config.name, size, kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_every_config_on_one_workload(self, config_name, kernel):
        config = get_config(config_name)
        trace = _trace("tomcatv")
        mono = _mono_stats(trace, config)
        cuts = _every(len(trace), 389)
        for handoff in HANDOFFS:
            sliced = _sliced_stats(trace, config, cuts, kernel=kernel,
                                   handoff=handoff)
            assert sliced == mono, (config_name, handoff, kernel)

    def test_stall_counters_and_figure10_inputs_survive_slicing(self):
        # the Figure 10 exhibit reads exactly these counters; spell the
        # assertion out even though to_dict equality subsumes it
        config = get_config("ooo-late-sle-vle")
        trace = _trace("trfd")
        mono = simulate_trace(trace, config).stats
        machine = create_run(config.params, trace)
        bounds = [0, *_every(len(trace), 300), len(trace)]
        for start, stop in zip(bounds, bounds[1:]):
            if start:
                machine = _handoff(machine, config, trace)
            machine.run_slice(trace.instructions[start:stop])
        sliced = machine.finalise()
        assert sliced.rename_stall_cycles == mono.rename_stall_cycles
        assert sliced.rob_stall_cycles == mono.rob_stall_cycles
        assert sliced.queue_stall_cycles == mono.queue_stall_cycles
        assert sliced.lost_decode_cycles() == mono.lost_decode_cycles()
        assert sliced.state_breakdown() == mono.state_breakdown()


class TestEquivalenceProperty:
    """Any cut points, including degenerate ones, yield identical stats."""

    @given(
        size=st.integers(min_value=1, max_value=700),
        config_name=st.sampled_from(CONFIG_NAMES),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=10, deadline=None)
    def test_arbitrary_slice_sizes(self, size, config_name, kernel):
        config = get_config(config_name)
        trace = _trace("su2cor", "tiny")
        sliced = _sliced_stats(trace, config, _every(len(trace), size),
                               kernel=kernel)
        assert sliced == _mono_stats(trace, config)

    @pytest.mark.parametrize("machine", MACHINES)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_arbitrary_cut_points_every_machine(self, machine, data):
        config = machine_config(machine)
        trace = _trace("su2cor", "tiny")
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=len(trace) - 1), max_size=8)))
        kernel = data.draw(st.sampled_from(KERNELS))
        handoff = data.draw(st.sampled_from(HANDOFFS))
        sliced = _sliced_stats(trace, config, cuts, kernel=kernel,
                               handoff=handoff)
        assert sliced == _mono_stats(trace, config), (machine, cuts, handoff)

    def test_slice_size_one_and_trace_length(self):
        config = get_config("reference")
        trace = _trace("nasa7", "tiny")
        mono = _mono_stats(trace, config)
        for size in (1, len(trace), len(trace) + 7):
            cuts = _every(len(trace), size)
            assert _sliced_stats(trace, config, cuts,
                                 handoff="same-machine") == mono, size
        # a snapshot handoff after every single instruction, on the batched
        # kernel, over a shorter prefix
        prefix = trace.instructions[:300]
        expected = create_run(config.params, trace)
        expected.run_slice(prefix)
        machine = create_run(config.params, trace)
        for dyn in prefix:
            machine = _handoff(machine, config, trace)
            run_slice_batched(machine, [dyn])
        assert machine.snapshot() == expected.snapshot()

    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_slice_is_a_no_op(self, machine, kernel):
        config = machine_config(machine)
        trace = _trace("flo52", "tiny")
        run = create_run(config.params, trace)
        _step(run, trace.instructions[:150], kernel)
        before = json.dumps(run.snapshot(), sort_keys=True)
        _step(run, [], kernel)
        assert json.dumps(run.snapshot(), sort_keys=True) == before


class TestSnapshotRestore:
    @pytest.mark.parametrize("config_name", MACHINES)
    def test_mid_run_snapshot_resumes_identically(self, config_name):
        config = machine_config(config_name)
        trace = _trace("flo52", "tiny")

        full = create_run(config.params, trace)
        full.run_slice(trace)
        expected = full.finalise().to_dict()

        first = create_run(config.params, trace)
        first.run_slice(trace.instructions[:200])
        state = first.snapshot()
        assert json.dumps(state)  # JSON-compatible by contract

        second = create_run(config.params, trace)
        second.restore(state)
        second.run_slice(trace.instructions[200:])
        assert second.finalise().to_dict() == expected

    @pytest.mark.parametrize("config_name", MACHINES)
    def test_restored_machine_matches_source_at_every_cut(self, config_name):
        config = machine_config(config_name)
        trace = _trace("hydro2d", "tiny")
        machine = create_run(config.params, trace)
        bounds = [0, *_every(len(trace), 97), len(trace)]
        for start, stop in zip(bounds, bounds[1:]):
            machine.run_slice(trace.instructions[start:stop])
            twin = _handoff(machine, config, trace)
            assert twin.digest() == machine.digest(), stop
            assert twin.snapshot() == machine.snapshot(), stop

    @pytest.mark.parametrize("config_name", MACHINES)
    def test_restore_replaces_all_prior_state(self, config_name):
        # restoring onto a machine that already ran a different prefix must
        # leave nothing of that prefix behind
        config = machine_config(config_name)
        trace = _trace("bdna", "tiny")
        cut = len(trace) // 2
        source = create_run(config.params, trace)
        source.run_slice(trace.instructions[:cut])
        state = json.loads(json.dumps(source.snapshot()))

        dirty = create_run(config.params, trace)
        dirty.run_slice(trace.instructions[: cut // 3])
        dirty.run_slice(trace.instructions[: cut // 5])
        dirty.restore(state)
        assert dirty.snapshot() == source.snapshot()

        source.run_slice(trace.instructions[cut:])
        dirty.run_slice(trace.instructions[cut:])
        assert dirty.finalise().to_dict() == source.finalise().to_dict()

    @pytest.mark.parametrize("config_name", MACHINES)
    def test_snapshot_is_detached_from_the_live_machine(self, config_name):
        # a snapshot is a value: running the machine on must not change it
        config = machine_config(config_name)
        trace = _trace("swm256", "tiny")
        machine = create_run(config.params, trace)
        machine.run_slice(trace.instructions[:250])
        state = machine.snapshot()
        frozen = json.dumps(state, sort_keys=True)
        machine.run_slice(trace.instructions[250:])
        assert json.dumps(state, sort_keys=True) == frozen


class TestSimulateTrace:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wraps_result_with_config_identity(self, kernel):
        config = get_config("ooo")
        trace = _trace("nasa7", "tiny")
        result = simulate_trace(trace, config, kernel=kernel)
        assert result.workload == trace.name
        assert result.config_name == "ooo"
        machine = create_run(config.params, trace)
        machine.run_slice(trace)
        assert result.stats.to_dict() == machine.finalise().to_dict()

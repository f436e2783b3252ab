"""Public-surface lock for :mod:`repro.api`.

``repro.api.__all__`` is the repository's public API contract: CI fails
when a name disappears or appears without this snapshot being updated on
purpose.  Removing or renaming an entry is a breaking change; additions
must extend the snapshot (and the README's PUBLIC API section) in the
same commit.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.api

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the locked surface — update deliberately, never incidentally
PUBLIC_SURFACE = (
    "CACHE_DIR_ENV",
    "CheckPass",
    "ExecutionPlan",
    "ExhibitResult",
    "ExhibitSet",
    "FLEET_ENV",
    "Finding",
    "JOBS_ENV",
    "KERNEL_ENV",
    "KERNEL_NAMES",
    "Machine",
    "MachineConfig",
    "MachineModel",
    "RunHandle",
    "RunRequest",
    "RunResult",
    "RunStatus",
    "SCALE_ALIASES",
    "Session",
    "Settings",
    "create_run",
    "engine_summary_dict",
    "get_machine_model",
    "machine_config",
    "machine_names",
    "model_for_params",
    "register_machine",
    "register_pass",
    "resolve_scale",
    "run_checks",
)


def test_public_surface_is_locked():
    assert tuple(sorted(repro.api.__all__)) == PUBLIC_SURFACE


def test_every_export_resolves():
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), f"repro.api.{name} does not resolve"


def test_every_class_and_function_is_documented():
    for name in repro.api.__all__:
        export = getattr(repro.api, name)
        if inspect.isclass(export) or inspect.isfunction(export):
            assert inspect.getdoc(export), f"repro.api.{name} has no docstring"


def test_session_public_methods_are_documented():
    from repro.api import Session

    for name, member in vars(Session).items():
        if name.startswith("_") or not callable(member):
            continue
        assert inspect.getdoc(member), f"Session.{name} has no docstring"


def test_surface_is_sorted_for_stable_diffs():
    assert list(repro.api.__all__) == sorted(repro.api.__all__)


def test_one_version_across_package_metadata():
    # a regex rather than tomllib, which Python 3.10 lacks
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    setup_py = (REPO_ROOT / "setup.py").read_text()
    declared = {
        "pyproject.toml": re.search(r'^version = "([^"]+)"', pyproject, re.M),
        "setup.py": re.search(r'version="([^"]+)"', setup_py),
    }
    for source, match in declared.items():
        assert match, f"no version found in {source}"
        assert match.group(1) == repro.__version__, (
            f"{source} says {match.group(1)}, repro.__version__ is "
            f"{repro.__version__}"
        )


#: names that left the package with chunked simulation and the deprecated
#: shims; each must stay gone rather than reappear as a silent alias
REMOVED_NAMES = (
    ("repro", "run_cached"),
    ("repro.core", "run_cached"),
    ("repro.core", "configure_engine"),
    ("repro.core.simulator", "run_cached"),
    ("repro.core.simulator", "simulate_point_chunked"),
    ("repro.core.runner", "configure_engine"),
    ("repro.core.runner", "_LEGACY_ENGINE_KWARGS"),
    ("repro.core.settings", "INTRA_JOBS_ENV"),
    ("repro.core.settings", "CHUNK_SIZE_ENV"),
    ("repro.api", "INTRA_JOBS_ENV"),
    ("repro.api", "CHUNK_SIZE_ENV"),
    ("repro.core.objectstore", "CHUNK_PREFIX"),
    ("repro.core.machines", "staged_machine_model"),
    ("repro.core.machines", "model_for_run"),
)


@pytest.mark.parametrize(("module", "name"), REMOVED_NAMES)
def test_removed_name_stays_gone(module, name):
    assert not hasattr(importlib.import_module(module), name), (
        f"{module}.{name} is back")


@pytest.mark.parametrize("module", ("repro.parallel", "repro.bench"))
def test_removed_module_is_not_importable(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def _field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize(("owner", "knob"), [
    ("Settings", "intra_jobs"),
    ("Settings", "chunk_size"),
    ("ExecutionPlan", "intra_jobs"),
    ("ExecutionPlan", "chunk_size"),
    ("RunRequest", "intra_jobs"),
    ("RunRequest", "chunk_size"),
])
def test_removed_knob_is_rejected(owner, knob):
    cls = getattr(repro.api, owner)
    assert knob not in _field_names(cls)
    with pytest.raises(TypeError):
        cls(**{knob: 1})


@pytest.mark.parametrize("knob", ("intra_jobs", "chunk_size"))
def test_settings_resolve_rejects_removed_knob(knob):
    with pytest.raises(TypeError):
        repro.api.Settings.resolve(env={}, **{knob: 1})


@pytest.mark.parametrize("variable", ("REPRO_INTRA_JOBS", "REPRO_CHUNK_SIZE"))
def test_removed_environment_variable_is_ignored(variable):
    env = {variable: "4"}
    assert repro.api.Settings.resolve(env=env) == repro.api.Settings.resolve(env={})


@pytest.mark.parametrize("argument", ("intra_jobs", "chunk_size"))
def test_session_simulate_lost_chunk_arguments(argument):
    parameters = inspect.signature(repro.api.Session.simulate).parameters
    assert argument not in parameters


def test_fleet_task_has_no_chunk_size():
    from repro.fleet.tasks import FleetTask

    assert "chunk_size" not in _field_names(FleetTask)


@pytest.mark.parametrize("hook", (
    "snapshot_kind", "quiescent", "anchor_of", "structural_of",
    "apply_structural", "apply_chunk", "plan_chunks",
))
def test_machine_model_has_no_chunk_hook(hook):
    assert hook not in _field_names(repro.api.MachineModel)


def test_machine_model_is_name_params_factory():
    assert [field.name for field in dataclasses.fields(repro.api.MachineModel)] == [
        "name", "params_type", "factory"]


@pytest.mark.parametrize("legacy", ({"jobs": 2}, {"kernel": "scalar"}))
def test_engine_rejects_legacy_keyword_arguments(legacy):
    from repro.core.runner import ExperimentEngine, ResultStore

    with pytest.raises(TypeError):
        ExperimentEngine(ResultStore(), **legacy)

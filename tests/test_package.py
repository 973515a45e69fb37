"""Package boundaries: every module imports on its own, the package's public
names are exactly its exports and each resolves, and the test oracles stay
out of the kernel's import graph."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qfivol

PACKAGE = Path(qfivol.__file__).resolve().parent
# __main__ runs the command line when imported
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__main__")


def _package_imports(module):
    """Sibling modules that ``module`` imports (``from .x import ...``)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (alias.name for alias in node.names))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    """A fresh interpreter per module, so no earlier import can hide a cycle."""
    name = "qfivol" if module == "__init__" else f"qfivol.{module}"
    pythonpath = os.environ.get("PYTHONPATH")
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + pythonpath if pythonpath else src)
    result = subprocess.run(
        [sys.executable, "-c", f"import {name}"], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_every_export_resolves():
    missing = [name for name in qfivol.__all__ if not hasattr(qfivol, name)]
    assert missing == []


# internals that are not exported: callers import each from its module
INTERNALS = {
    "as_hermitian": "matrices",
    "det_small": "matrices",
    "spectral_decompose": "matrices",
    "resolve_ensemble": "sampling",
    "sample_state": "sampling",
    "sample_observables": "sampling",
    "sample_pure_state": "sampling",
    "evaluate_sample": "sweep",
    "format_record": "sweep",
}


def test_the_public_attributes_are_all_and_only_all():
    public = {
        name for name, value in vars(qfivol).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qfivol.__all__)


@pytest.mark.parametrize("name, module", sorted(INTERNALS.items()))
def test_internals_resolve_at_their_module_only(name, module):
    assert not hasattr(qfivol, name)
    assert callable(getattr(importlib.import_module(f"qfivol.{module}"), name))


def test_only_the_gate_oracles_are_exported():
    exported = {
        name for name in qfivol.__all__
        if getattr(getattr(qfivol, name), "__module__", None) == "qfivol.oracles"
    }
    assert exported == {"identity_residual", "k_coefficient"}


def test_oracles_stay_out_of_the_kernel_imports():
    assert _package_imports("oracles") <= {"matrices", "monotone", "metrics"}
    assert _package_imports("volumes") <= {"matrices", "monotone", "record_v3"}
    importers = {module for module in MODULES if "oracles" in _package_imports(module)}
    assert importers == {"__init__"}


# what qfivol.record_v3 owns: the version-3 kernel, thresholds and line format
RECORD_V3_NAMES = {
    "evaluate_batch", "BatchReport", "commutator_rank", "_volume", "_dependent", "batched_grams",
    "_entry_sums", "_robertson", "MAIN_INEQUALITY_SLACK", "EQUALITY_RTOL", "DEPENDENCE_SV_TOL",
    "_SCREEN_MARGIN", "MONOTONICITY_SLACK", "RECORD_VERSION", "RECORD_FIELDS", "_templates",
    "_format_batch",
}


def _defined_names(module):
    """Names that ``module`` defines at its top level: functions, classes and
    assignment targets (imports bind, they do not define)."""
    found = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name))
    return found


def test_record_v3_alone_defines_the_version_3_record():
    """One module owns the version-3 record, and it reads only the matrix
    helpers and the monotone functions."""
    assert _package_imports("record_v3") == {"matrices", "monotone"}
    assert RECORD_V3_NAMES <= _defined_names("record_v3")
    elsewhere = {
        module: sorted(RECORD_V3_NAMES & _defined_names(module))
        for module in MODULES if module != "record_v3"
    }
    assert {module: names for module, names in elsewhere.items() if names} == {}


def _regularity_gates(module):
    """Line numbers in ``module`` of TildeUndefinedError(...) calls and of
    ``if`` statements whose test reads ``.regular`` and whose branches raise."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "TildeUndefinedError":
                found.append(node.lineno)
        elif isinstance(node, ast.If):
            reads = any(getattr(sub, "attr", None) == "regular" for sub in ast.walk(node.test))
            branches = (sub for stmt in node.body + node.orelse for sub in ast.walk(stmt))
            if reads and any(isinstance(sub, ast.Raise) for sub in branches):
                found.append(node.lineno)
    return found


def test_regularity_is_checked_only_by_the_monotone_gate():
    """f(0) > 0 is refused in one place, monotone.require_regular; every
    other module passes its functions there."""
    outside = {module: _regularity_gates(module) for module in MODULES if module != "monotone"}
    assert {module: lines for module, lines in outside.items() if lines} == {}
    assert _regularity_gates("monotone") != []


def _parameters(module):
    """(function name, parameter name) of every function defined in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            name = getattr(node, "name", "<lambda>")
            found += [(name, param.arg) for param in params if param is not None]
    return found


def test_a_randomspec_is_seed_dim_and_ensemble():
    """There is one draw stream, so a spec has no stream field to name."""
    fields = [field.name for field in dataclasses.fields(qfivol.RandomSpec)]
    assert fields == ["seed", "dim", "ensemble"]
    with pytest.raises(TypeError):
        qfivol.RandomSpec(7, 3, "density", 2)


def test_no_function_takes_a_stream_or_version():
    """There is one draw stream and replay reads one record version, so no
    draw or evaluation function takes either as an argument to thread."""
    threaded = {
        module: [(name, param) for name, param in _parameters(module)
                 if param in ("stream", "version")]
        for module in MODULES
    }
    assert {module: found for module, found in threaded.items() if found} == {}


def _calls(node, callee):
    """The ``callee(...)`` calls (by name or attribute) under ``node``."""
    return [
        sub for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and callee in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
    ]


def test_index_and_count_are_checked_only_by_the_draw():
    """A sample index and an observable count each have one as_integer
    check, in sampling, which every draw passes; sweeps and replay leave
    both to it."""
    found = {}
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for call in _calls(tree, "as_integer"):
            first = call.args[0] if call.args else None
            if isinstance(first, ast.Constant) and first.value in ("index", "n"):
                found.setdefault(first.value, []).append(module)
    assert found == {"index": ["sampling"], "n": ["sampling"]}


def test_replay_builds_no_sweep_config():
    tree = ast.parse((PACKAGE / "sweep.py").read_text())
    (replay,) = (
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "replay_record"
    )
    assert _calls(replay, "SweepConfig") == []
    assert len(_calls(replay, "RandomSpec")) == 1

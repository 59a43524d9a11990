"""What the benchmark uses of the program must keep working.

``bench/spans.py`` is read as text, never imported or edited, so a
deletion in ``src`` that would break the traced run fails here first.
The workloads pass ``seed=`` to the run functions, every workload's
set-up and inputs run here as ``bench/run.py`` drives them, and so do
one forward-21 operation and its checks. The harness's self-test runs
on the current program.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def traced_names():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED list")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module_name, attr in names:
        owner = importlib.import_module(f"fpcontrol.{module_name}")
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            assert name in vars(owner), f"{module_name}.{attr} is not defined on the class"
        assert callable(getattr(owner, name, None)), f"fpcontrol.{module_name}.{attr} is missing"


def test_submodule_import_binds_the_module():
    import fpcontrol.pncg as m

    assert isinstance(m, types.ModuleType)


def test_runs_the_workloads_call_accept_a_seed():
    from fpcontrol.pipeline import run_oracle, run_pipeline

    for run in (run_pipeline, run_oracle):
        assert "seed" in inspect.signature(run).parameters, run.__name__


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture(scope="module")
def bench_modules():
    """``bench/run.py``, ``workloads.py`` and ``checks.py``, imported with
    ``bench/`` on ``sys.path`` as ``bench/run.py`` runs them."""
    names = ("run", "workloads", "checks")
    sys.path.insert(0, str(BENCH))
    try:
        yield types.SimpleNamespace(**{name: importlib.import_module(name) for name in names})
    finally:
        sys.path.remove(str(BENCH))
        for name in names:
            sys.modules.pop(name, None)


def make_workload(bench, name, out_dir):
    mods = {layer: importlib.import_module(f"fpcontrol.{layer}") for layer in bench.run.LAYERS}
    return bench.workloads.WORKLOADS[name](mods, 1, out_dir)


def test_every_workload_sets_up_and_makes_inputs(bench_modules, tmp_path):
    assert set(bench_modules.workloads.WORKLOADS) == set(bench_modules.run.NAMES)
    for name in bench_modules.run.NAMES:
        workload = make_workload(bench_modules, name, tmp_path / name)
        workload.setup()
        workload.inputs(0)


def test_forward_21_operation_fails_only_on_the_known_fault(bench_modules, tmp_path):
    workload = make_workload(bench_modules, "forward-21", tmp_path)
    workload.setup()
    u = workload.inputs(0)
    failures = workload.check(0, u, workload.operate(u))
    kinds = {failure.kind for failure in failures}
    assert kinds <= {bench_modules.checks.KNOWN_FAULT}, failures

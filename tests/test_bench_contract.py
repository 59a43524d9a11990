"""What the benchmark uses of the program must keep working.

``bench/spans.py`` is read as text, never imported or edited, so a
deletion in ``src`` that would break the traced run fails here first.
The workloads pass ``seed=`` to the run functions, and the harness's
self-test runs on the current program.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import types
from pathlib import Path

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

"""The names the benchmark's traced run wraps must exist in the program.

``bench/spans.py`` is read as text, never imported or edited, so a
deletion in ``src`` that would break the traced run fails here first.
"""

import ast
import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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

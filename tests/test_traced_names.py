"""The benchmark harness wraps library functions by name; each must exist.

``perfbench/harness.py`` lists them as ``TRACED``, ``(module, function)``
pairs that its tracer fetches with ``getattr``.  The list is read from the
source with ``ast``, so the harness is neither imported nor run here.
"""

import ast
import importlib
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


def traced_names():
    tree = ast.parse(HARNESS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {HARNESS}")


def test_every_traced_name_is_a_library_callable():
    names = traced_names()
    assert names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"ritzbounds.{module}"), function, None))
    ]
    assert not missing, f"perfbench traces names the library lacks: {missing}"

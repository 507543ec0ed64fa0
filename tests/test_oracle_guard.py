"""The suite's high-precision truth has one home: only ``mp_oracle.py``
imports mpmath.  Imports are read with ``ast``, not executed."""

import ast
from pathlib import Path


def test_only_the_oracle_imports_mpmath():
    importers = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.name)
    assert importers == {"mp_oracle.py"}, sorted(importers)

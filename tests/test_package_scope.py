"""The package holds only what a command, a report or a ``verify`` check
runs: every top-level function of ``src/ritzbounds`` has a caller there.

A function that no code of the package names is run by the tests alone,
and belongs beside their oracles (``dense_oracles.py``, ``mp_oracle.py``).
The source is read with ``ast``.  A reference is a name or an attribute
spelled like the function anywhere in a module's code; the function's own
definition, docstrings and the re-exports of ``__init__`` are not callers.
"""

import ast
from pathlib import Path

import ritzbounds

PACKAGE = Path(ritzbounds.__file__).resolve().parent

#: Functions the package keeps without a caller in it, each with its reason.
WITHOUT_CALLER = {
    "models.fem_assemble": "perfbench's TRACED wraps it by name until the harness reads the library's own timings",
    "defect.dl_measure": "perfbench's TRACED wraps it by name until the harness reads the library's own timings",
    "models.fem_ritz": "the continuum periodic report, assembled from moment data, is to build its record from it",
    "densela.write_matrix_text": "the writer of the matrix text format, kept beside its reader read_matrix_text",
}


def _without_caller():
    """``module.function`` of each top-level function no other code names."""
    functions, references = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = node.name if isinstance(node, ast.FunctionDef) else None
            if own:
                functions[own] = f"{path.stem}.{own}"
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
                if name != own:
                    references.add(name)
    return {qualified for name, qualified in functions.items() if name not in references}


def test_every_package_function_has_a_caller_in_the_package():
    extra = sorted(_without_caller() - set(WITHOUT_CALLER))
    assert not extra, f"functions only the tests call; move them beside the test oracles: {extra}"


def test_functions_kept_without_a_caller_still_lack_one():
    # an entry whose function gained a caller, or is gone, leaves the list
    assert _without_caller() >= set(WITHOUT_CALLER), sorted(set(WITHOUT_CALLER) - _without_caller())

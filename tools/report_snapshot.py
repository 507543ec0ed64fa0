"""Snapshot every ``build_report`` a test run makes, or the output of a
fixed list of CLI invocations, and diff two snapshots.

As a pytest plugin it writes ``report_to_json`` of each report, in call
order, to ``DIR/NNNNN.json``, its inputs (H, the basis, ``lambda_ref`` when
supplied, ``q`` and the norm kind) to ``DIR/NNNNN.npz``, which ``rebuild``
reads back, and the test that made it to ``DIR/index.txt``::

    PYTHONPATH=src python -m pytest -q -p tools.report_snapshot --report-snapshot DIR

``recording(DIR)`` does the same around any other code.  Two snapshots
(for instance of a parent checkout and of a change) are compared with::

    python tools/report_snapshot.py diff A B

which pairs the reports by test and call order within the test, prints
every value that moved with its relative size, and exits 0 only when
every report is byte-identical.  It ends with a summary: the largest
relative move per key path (list indices dropped, so ``.etas[]`` covers
every defect) with the number of values that moved, rose and fell, once
over the reports whose largest defect in A is above
``WELL_CONDITIONED_ETA = 1e-8`` and once over those at or below it, where
the defects sit near their rounding floor and every value built from
them moves with it; then the number of flags that flipped, per flag and
value.

::

    PYTHONPATH=src python tools/report_snapshot.py cli DIR

writes the files of ``CLI_INPUTS`` under ``DIR/inputs``, runs every argv
of ``CLI_INVOCATIONS`` in-process through ``cli.main`` from ``DIR``, so
that the ``bounds`` runs name their files alike in every snapshot, and
writes its exit code, stdout and stderr to ``DIR/cli.json``.  When
either snapshot holds that file, ``diff`` also compares the invocations,
paired by argv, prints each one whose exit code or output differs, and
counts it as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import inspect
import io
import json
import math
import os
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np

#: The summary's split: reports whose largest defect in A is above this
#: are summarized apart from the near-invariant ones at or below it.
WELL_CONDITIONED_ETA = 1e-8

#: The files the ``bounds`` runs read, relative to ``DIR/inputs``: a 6 x 6
#: operator, a 2-column orthonormal basis and one matrix per reader error.
CLI_INPUTS = {
    "h.txt": "# tridiagonal\n6 6\n2 0.5 0 0 0 0\n0.5 3 0.5 0 0 0\n0 0.5 5 0.5 0 0\n"
    "0 0 0.5 7 0.5 0\n0 0 0 0.5 11 0.5\n0 0 0 0 0.5 13\n",
    "u.txt": "6 2\n1 0\n0 1\n0 0\n0 0\n0 0\n0 0\n",
    "header_3_tokens.txt": "2 2 2\n1 0\n0 1\n",
    "header_not_integer.txt": "2 2.0\n1 0\n0 1\n",
    "negative_dimension.txt": "2 -2\n",
    "short_row.txt": "2 2\n1 0\n0\n",
    "nan_entry.txt": "2 2\n1 0\n0 nan\n",
    "overflow_entry.txt": "2 2\n1 0\n0 1e999\n",
    "surplus_row.txt": "1 2\n1 0\n\n0 1\n",
    "surplus_row_bad_token.txt": "1 2\n1 0\n0 oops\n",
    "overstated_n.txt": "1000000000000 2\n1 0\n# end\n",
    "comments_only.txt": "# nothing\n\n# but comments\n",
}

_BOUNDS = ("bounds", "--matrix", "inputs/h.txt", "--subspace", "inputs/u.txt")

#: The argv lists ``cli DIR`` runs, in order: every subcommand, its
#: formats, error exits and negative numbers in e-notation; ``bounds`` on
#: each reader error of ``CLI_INPUTS`` and on a missing file.
CLI_INVOCATIONS = (
    ("kappa-demo",),
    ("kappa-demo", "--format", "csv", "--kappas", "10,1e3,1e7,1e9,1e150,1.3e154"),
    ("kappa-demo", "--format", "csv", "--kappas", "1e4,3,0.5"),
    ("kappa-demo", "--kappas", "1e160"),
    ("kappa-demo", "--kappas", "0"),
    ("kappa-demo", "--kappas", "-1e3"),
    ("schrodinger",),
    ("schrodinger", "--format", "csv", "--kappas", "5,1e6"),
    ("schrodinger", "--format", "csv", "--oracle-fd", "10", "2000"),
    ("schrodinger", "--kappas", "2"),
    ("fem-periodic",),
    ("fem-periodic", "--format", "csv", "--n-list", "16"),
    ("fem-periodic", "--format", "table", "--n-list", "8,40,1000000", "--alpha", "-3"),
    ("fem-periodic", "--n-list", "40,1000,100000,1000000", "--alpha", "0"),
    ("fem-periodic", "--n-list", "40,1000,100000,1000000", "--alpha", "0.24999"),
    ("fem-periodic", "--alpha", "0.3"),
    ("fem-periodic", "--alpha=-1e-3"),
    ("fem-periodic", "--alpha", "-1e-3"),
    ("fem-periodic", "--alpha", "-inf"),
    ("verify",),
    ("verify", "--seed", "0"),
    ("verify", "--seed", "5"),
    _BOUNDS + ("--format", "json"),
    _BOUNDS + ("--format", "csv"),
    _BOUNDS + ("--format", "table"),
    _BOUNDS + ("--strict",),
    *(
        ("bounds", "--matrix", f"inputs/{name}", "--subspace", "inputs/u.txt")
        for name in CLI_INPUTS
        if name not in ("h.txt", "u.txt")
    ),
    ("bounds", "--matrix", "inputs/missing.txt", "--subspace", "inputs/u.txt"),
)

#: The file of a ``cli DIR`` snapshot.
CLI_RECORDS = "cli.json"

# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def recording(directory):
    """Write the JSON and the inputs of every ``build_report`` call made
    inside the block.

    Every ``ritzbounds`` module already imported that holds the function
    gets the recording wrapper, so callers that imported it by name are
    covered too; modules imported later pick the wrapper up from those.
    """
    import ritzbounds.bounds as bounds
    import ritzbounds.cli  # noqa: F401  (binds build_report by name)
    import ritzbounds.verify  # noqa: F401

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.glob("*.json")):
        raise FileExistsError(f"{out} already holds a snapshot")
    original = bounds.build_report
    signature = inspect.signature(original)
    count = 0

    def build_report(*args, **kwargs):
        nonlocal count
        report = original(*args, **kwargs)
        count += 1
        name = f"{count:05d}.json"
        (out / name).write_text(bounds.report_to_json(report))
        _save_inputs(out / f"{count:05d}.npz", signature.bind(*args, **kwargs))
        source = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
        with (out / "index.txt").open("a") as index:
            index.write(f"{name} {source}\n")
        return report

    # a recording opened inside this one binds the arguments to this
    # signature; not functools.wraps, since perfbench's tests take a
    # ``__wrapped__`` left on build_report for a tracer not removed
    build_report.__signature__ = signature
    patched = [
        mod
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "ritzbounds" and getattr(mod, "build_report", None) is original
    ]
    for mod in patched:
        mod.build_report = build_report
    try:
        yield out
    finally:
        for mod in patched:
            mod.build_report = original


def _save_inputs(path, call):
    """The arguments of one ``build_report`` call, bound to its signature."""
    call.apply_defaults()
    args = call.arguments
    inputs = {
        "h": np.asarray(getattr(args["h"], "entries", args["h"]), dtype=float),
        "basis": args["subspace"].basis,
        "q": int(args["q"]),
        "norm_kind": str(getattr(args["norm_kind"], "value", args["norm_kind"])),
    }
    if args["lambda_ref"] is not None:
        inputs["lambda_ref"] = np.asarray(args["lambda_ref"], dtype=float)
    np.savez(path, **inputs)


def rebuild(path):
    """``build_report`` of the inputs recorded in the ``.npz`` at ``path``."""
    from ritzbounds.bounds import build_report
    from ritzbounds.defect import TestSubspace

    with np.load(path) as inputs:
        lambda_ref = inputs["lambda_ref"] if "lambda_ref" in inputs else None
        return build_report(
            inputs["h"], TestSubspace(inputs["basis"]), str(inputs["norm_kind"]), lambda_ref, int(inputs["q"])
        )


def record_cli(directory):
    """Write ``CLI_INPUTS`` under ``DIR/inputs``, run each argv of
    ``CLI_INVOCATIONS`` through ``cli.main`` from ``DIR`` and write
    ``DIR/cli.json``: its exit code, stdout and stderr per invocation."""
    from ritzbounds import cli

    directory = Path(directory)
    path = directory / CLI_RECORDS
    if path.exists():
        raise FileExistsError(f"{path} already exists")
    (directory / "inputs").mkdir(parents=True, exist_ok=True)
    for name, text in CLI_INPUTS.items():
        (directory / "inputs" / name).write_text(text)
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in CLI_INVOCATIONS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            records.append(
                {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            )
    finally:
        os.chdir(cwd)
    path.write_text(json.dumps(records, indent=1) + "\n")


def pytest_addoption(parser):
    parser.addoption(
        "--report-snapshot",
        metavar="DIR",
        help="write the JSON and the inputs of every build_report call, in call order, to DIR",
    )


def pytest_configure(config):
    directory = config.getoption("--report-snapshot")
    if directory:
        stack = contextlib.ExitStack()
        stack.enter_context(recording(directory))
        config.add_cleanup(stack.close)


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def _moved(a, b, path=""):
    """Yield ``(path, a, b, relative size)`` for every leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            yield from _moved(a.get(key), b.get(key), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _moved(x, y, f"{path}[{i}]")
    elif a != b:
        numbers = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)
        )
        if numbers and math.isfinite(a) and math.isfinite(b):
            scale = max(abs(a), abs(b))
            yield path, a, b, abs(a - b) / scale
        else:
            yield path, a, b, math.inf


def _reports(directory: Path) -> dict:
    """Report files by label ``<test id> #<k>``, the k-th call in that test,
    so that calls added or removed by other tests do not shift the pairing."""
    reports, seen = {}, {}
    index = directory / "index.txt"
    for line in index.read_text().splitlines() if index.exists() else ():
        name, _, source = line.partition(" ")
        seen[source] = seen.get(source, 0) + 1
        reports[f"{source} #{seen[source]}"] = directory / name
    return reports


def _invocations(directory: Path) -> dict:
    """CLI records by argv; none when the snapshot holds no ``cli.json``."""
    path = directory / CLI_RECORDS
    records = json.loads(path.read_text()) if path.exists() else []
    return {shlex.join(r["argv"]): r for r in records}


def _diff_cli(dir_a: Path, dir_b: Path, out) -> int:
    """Print every invocation whose exit code or output differs; their number."""
    runs_a, runs_b = _invocations(dir_a), _invocations(dir_b)
    changed = 0
    for label in sorted(runs_a.keys() ^ runs_b.keys()):
        print(f"cli {label}: only in {dir_a if label in runs_a else dir_b}", file=out)
        changed += 1
    for label in sorted(runs_a.keys() & runs_b.keys()):
        a, b = runs_a[label], runs_b[label]
        if a == b:
            continue
        changed += 1
        print(f"cli {label}: exit {a['exit']} -> {b['exit']}", file=out)
        for stream in ("stdout", "stderr"):
            out.writelines(
                difflib.unified_diff(
                    a[stream].splitlines(keepends=True),
                    b[stream].splitlines(keepends=True),
                    f"A {stream}",
                    f"B {stream}",
                )
            )
    total = len(runs_a.keys() | runs_b.keys())
    print(f"{total - changed} of {total} CLI invocations byte-identical, {changed} differ", file=out)
    return changed


def _diff_reports(dir_a: Path, dir_b: Path, out) -> int:
    """Print what differs between two report snapshots; the number of reports moved."""
    reports_a, reports_b = _reports(dir_a), _reports(dir_b)
    changed = same = 0
    # largest move and number of moves, rises and falls per key path, per
    # side of the split
    largest = {True: {}, False: {}}
    moves_per_path = {True: Counter(), False: Counter()}
    rises = {True: Counter(), False: Counter()}
    falls = {True: Counter(), False: Counter()}
    flips = Counter()
    for label in sorted(reports_a.keys() ^ reports_b.keys()):
        print(f"{label}: only in {dir_a if label in reports_a else dir_b}", file=out)
        changed += 1
    for label in sorted(reports_a.keys() & reports_b.keys()):
        text_a, text_b = reports_a[label].read_text(), reports_b[label].read_text()
        if text_a == text_b:
            same += 1
            continue
        changed += 1
        report_a = json.loads(text_a)
        above = max(report_a["etas"]) > WELL_CONDITIONED_ETA
        moves = list(_moved(report_a, json.loads(text_b)))
        if not moves:
            print(f"{label}: same values, different bytes", file=out)
        for path, a, b, rel in moves:
            print(f"{label} {path}: {a!r} -> {b!r} (relative {rel:.3g})", file=out)
            key = re.sub(r"\[\d+\]", "[]", path)
            if isinstance(a, bool) and isinstance(b, bool):
                flips[f"{key} {a} -> {b}"] += 1
            else:
                largest[above][key] = max(largest[above].get(key, 0.0), rel)
                moves_per_path[above][key] += 1
                if all(isinstance(v, (int, float)) for v in (a, b)):
                    rises[above][key] += b > a
                    falls[above][key] += b < a
    total = len(reports_a.keys() | reports_b.keys())
    print(f"{same} of {total} reports byte-identical, {changed} differ", file=out)
    for above, side in ((True, "above"), (False, "at or below")):
        print(
            f"largest relative move per key path, largest defect in A {side} "
            f"{WELL_CONDITIONED_ETA:g}:",
            file=out,
        )
        moved = largest[above]
        for key in sorted(moved, key=lambda k: (-moved[k], k)):
            print(
                f"  {key} {moved[key]:.3g} ({moves_per_path[above][key]} moved, "
                f"{rises[above][key]} rose, {falls[above][key]} fell)",
                file=out,
            )
    print(f"flipped flags: {sum(flips.values())}", file=out)
    for flip, count in sorted(flips.items()):
        print(f"  {flip}: {count}", file=out)
    return changed


def diff(dir_a, dir_b, out=sys.stdout) -> int:
    """Print what differs between two snapshots; the number of reports and
    CLI invocations that differ."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    kinds = [name for name in ("index.txt", CLI_RECORDS) if (dir_a / name).exists() or (dir_b / name).exists()]
    if not kinds:
        raise FileNotFoundError(f"neither {dir_a} nor {dir_b} holds a snapshot")
    changed = _diff_reports(dir_a, dir_b, out) if "index.txt" in kinds else 0
    return changed + (_diff_cli(dir_a, dir_b, out) if CLI_RECORDS in kinds else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_diff = sub.add_parser("diff", help="list every value that moved between two snapshots")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_cli = sub.add_parser("cli", help="record exit code and output of every CLI_INVOCATIONS argv")
    p_cli.add_argument("dir")
    args = parser.parse_args(argv)
    if args.command == "cli":
        record_cli(args.dir)
        return 0
    return 1 if diff(args.a, args.b) else 0


if __name__ == "__main__":
    sys.exit(main())

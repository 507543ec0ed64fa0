"""Snapshot every ``build_report`` a test run makes, or the output of a
fixed list of CLI invocations, and diff two snapshots.

As a pytest plugin it writes ``report_to_json`` of each report, in call
order, to ``DIR/NNNNN.json`` and the test that made it to ``DIR/index.txt``::

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

runs every argv of ``CLI_INVOCATIONS`` in-process through ``cli.main``
and writes its exit code, stdout and stderr to ``DIR/cli.json``.  When
either snapshot holds that file, ``diff`` also compares the invocations,
paired by argv, prints each one whose exit code or output differs, and
counts it as a difference.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import os
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

#: The summary's split: reports whose largest defect in A is above this
#: are summarized apart from the near-invariant ones at or below it.
WELL_CONDITIONED_ETA = 1e-8

#: The argv lists ``cli DIR`` runs, in order: every subcommand but
#: ``bounds`` (which reads files; the report snapshot covers it), its
#: formats, error exits and negative numbers in e-notation.
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
)

#: The file of a ``cli DIR`` snapshot.
CLI_RECORDS = "cli.json"

# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def recording(directory):
    """Write the JSON of every ``build_report`` call made inside the block.

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
    count = 0

    def build_report(*args, **kwargs):
        nonlocal count
        report = original(*args, **kwargs)
        count += 1
        name = f"{count:05d}.json"
        (out / name).write_text(bounds.report_to_json(report))
        source = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
        with (out / "index.txt").open("a") as index:
            index.write(f"{name} {source}\n")
        return report

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


def record_cli(directory):
    """Run each argv of ``CLI_INVOCATIONS`` through ``cli.main`` and write
    ``DIR/cli.json``: its exit code, stdout and stderr per invocation."""
    from ritzbounds import cli

    path = Path(directory) / CLI_RECORDS
    if path.exists():
        raise FileExistsError(f"{path} already exists")
    records = []
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")


def pytest_addoption(parser):
    parser.addoption(
        "--report-snapshot",
        metavar="DIR",
        help="write the JSON of every build_report call, in call order, to DIR",
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

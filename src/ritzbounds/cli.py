"""Command-line driver.

Subcommands
-----------
bounds        evaluate every bound for a matrix file and a test subspace
kappa-demo    closed forms vs. computed quantities for the 3x3 family
schrodinger   large-coupling model: series, sandwich, exact solution
fem-periodic  mesh-refinement reference table for the anti-periodic model
verify        run the named property checks on fixed seeds

Exit codes: 0 success, 1 verification failure or unexpected error,
2 usage, 3 input file missing, 4 matrix parse error (including a nan or
inf entry), 5 operator not positive definite, 6 hypothesis failure
(bounds --strict with a failing flag, or schrodinger with a kappa outside
the model's range).

Tables print scientific notation with 4 digits; csv and json carry full
precision and are byte-stable under parse/re-serialize round trips.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import __version__
from .bounds import build_report, csv_table, format_report_table, report_to_csv, report_to_json
from .defect import TestSubspace
from .densela import read_matrix_text, sym_eig
from .errors import (
    HypothesisError,
    MatrixParseError,
    NotPositiveDefiniteError,
    RitzBoundsError,
)
from .models import (
    DEFAULT_ALPHA,
    KappaRow,
    kappa_row,
    schrodinger_bounds,
    schrodinger_drop,
    schrodinger_eta2,
    schrodinger_eta2_fd,
    schrodinger_taylor,
    table1_row,
)
from .verify import DEFAULT_SEED, run_checks

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISSING_FILE = 3
EXIT_PARSE_ERROR = 4
EXIT_NOT_PD = 5
EXIT_HYPOTHESIS = 6

_LOWEST_RE = re.compile(r"^lowest-(\d+)$")

#: Mesh counts ``fem-periodic`` accepts.
MESH_MIN, MESH_MAX = 8, 10**6

#: Node counts ``schrodinger --oracle-fd L N`` accepts; L is finite, >= 2.
ORACLE_NODES_MIN, ORACLE_NODES_MAX = 100, 10**6

#: Default of ``fem-periodic --k-trunc``.  The option keeps its parsing and
#: its exit code 2 but changes no column: the moments are exact alias sums.
DEFAULT_K_TRUNC = 20000


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _text_table(columns, rows) -> str:
    lines = [columns, *([f"{v:.4e}" if isinstance(v, float) else str(v) for v in row] for row in rows)]
    return "".join("  ".join(f"{c:>12s}" for c in line) + "\n" for line in lines)


def _print_table(args, columns, rows, notes=()) -> int:
    """A model subcommand's table in ``args.format``, then one line per note."""
    text = csv_table(columns, rows) if args.format == "csv" else _text_table(columns, rows)
    _emit(text + "".join(f"{note}\n" for note in notes), args.out)
    return EXIT_OK


def _comma_list(text: str):
    """The tokens of a comma-separated option value, stripped, blank ones dropped."""
    return [tok for tok in map(str.strip, text.split(",")) if tok]


def _parse_float_list(text: str, what: str):
    try:
        values = [float(tok) for tok in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} list: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return values


def _bounded_int(text: str, what: str, lo: int, hi: float = math.inf) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not lo <= value <= hi:
        raise argparse.ArgumentTypeError(
            f"{what} must be an integer in [{lo}, {hi}], got {text!r}"
        )
    return value


def _finite_at_least(text: str, what: str, lo: float) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= lo):
        raise argparse.ArgumentTypeError(f"{what} must be a finite number >= {lo}, got {text!r}")
    return value


class _OracleFdAction(argparse.Action):
    """``--oracle-fd L N``, both checked while parsing: a bad value is a
    usage error before any grid is allocated."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            length = _finite_at_least(values[0], "L", 2.0)
            nodes = _bounded_int(values[1], "N", ORACLE_NODES_MIN, ORACLE_NODES_MAX)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, (length, nodes))


def _parse_mesh_list(text: str):
    values = [_bounded_int(tok, "mesh count", MESH_MIN, MESH_MAX) for tok in _comma_list(text)]
    if not values:
        raise argparse.ArgumentTypeError("empty mesh list")
    return values


def _load_subspace(args, parser, n: int) -> TestSubspace:
    match = _LOWEST_RE.match(args.subspace)
    if match:
        k = int(match.group(1))
        if not 1 <= k < n:
            parser.error(f"lowest-{k} needs 1 <= k < {n}")
        if args.precond is None:
            parser.error("--subspace lowest-K needs --precond with a matrix file")
        precond = read_matrix_text(args.precond)
        if precond.shape != (n, n):
            parser.error(
                f"preconditioner shape {precond.shape} does not match the "
                f"operator size {n}"
            )
        _, vectors = sym_eig(precond)
        return TestSubspace(vectors[:, :k])
    basis = read_matrix_text(args.subspace)
    if basis.shape[0] != n:
        parser.error(
            f"subspace has {basis.shape[0]} rows but the operator is {n} x {n}"
        )
    return TestSubspace.from_columns(basis)


def _cmd_bounds(args, parser) -> int:
    try:
        matrix = read_matrix_text(args.matrix)
        subspace = _load_subspace(args, parser, matrix.shape[0])
        report = build_report(matrix, subspace, norm_kind=args.norm, q=args.q)
    except FileNotFoundError as exc:
        print(f"error: input file not found: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (MatrixParseError, NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR if isinstance(exc, MatrixParseError) else EXIT_NOT_PD
    write = {"json": report_to_json, "csv": report_to_csv, "table": format_report_table}[args.format]
    _emit(write(report), args.out)
    failed = sorted(name for name, ok in report.flags.items() if not ok)
    if args.strict and failed:
        print(f"hypothesis failure under --strict: {', '.join(failed)}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _cmd_kappa_demo(args, parser) -> int:
    return _print_table(args, KappaRow._fields, [kappa_row(kappa) for kappa in sorted(args.kappas)])


def _cmd_schrodinger(args, parser) -> int:
    columns = ("kappa", "eta2", "taylor", "lower", "upper", "exact")
    rows = []
    oracle_lines = []
    for kappa in sorted(args.kappas):
        try:
            exact = schrodinger_drop(kappa)
            lower, upper = schrodinger_bounds(kappa)
        except HypothesisError as exc:
            print(f"error: kappa={kappa:g}: {exc}", file=sys.stderr)
            return EXIT_HYPOTHESIS
        rows.append(
            (kappa, schrodinger_eta2(kappa), schrodinger_taylor(kappa), lower, upper, exact)
        )
        if args.oracle_fd is not None:
            length, nodes = args.oracle_fd
            fd = schrodinger_eta2_fd(kappa, length=length, nodes=nodes)
            oracle_lines.append(
                f"# fd oracle kappa={kappa:g}: eta2={fd:.10e} "
                f"|closed form - oracle| = {abs(fd - schrodinger_eta2(kappa)):.3e}"
            )
    return _print_table(args, columns, rows, oracle_lines)


def _cmd_fem_periodic(args, parser) -> int:
    rows = [(n_mesh, *table1_row(n_mesh, alpha=args.alpha)) for n_mesh in sorted(args.n_list)]
    return _print_table(args, ("N", "lower", "middle", "upper"), rows)


def _cmd_verify(args, parser) -> int:
    names = None
    if args.only is not None:
        names = _comma_list(args.only)
        if not names:
            parser.error(f"--only names no check: {args.only!r}")
    try:
        results = run_checks(names=names, seed=args.seed)
    except KeyError as exc:
        parser.error(exc.args[0])
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} failing propert{'y' if len(failed) == 1 else 'ies'}: "
              + ", ".join(failed), file=sys.stderr)
        return EXIT_FAILURE
    print(f"all {len(results)} properties hold (seed {args.seed})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Takes ``-1e-3``, ``-.5``, ``-inf`` and ``-nan`` as values, where
    argparse's own pattern takes only ``-1`` and ``-1.5``; subparsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ritzbounds",
        description="Relative a-posteriori eigenvalue bounds from Ritz test subspaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser(
        "bounds", help="evaluate all bounds for a matrix and a test subspace"
    )
    p_bounds.add_argument("--matrix", required=True, help="operator in matrix text format")
    p_bounds.add_argument(
        "--subspace",
        required=True,
        help="basis columns in matrix text format (orthonormalized on load), "
        "or 'lowest-K' to take K eigenvectors of the --precond matrix",
    )
    p_bounds.add_argument("--precond", help="preconditioner matrix for 'lowest-K'")
    p_bounds.add_argument(
        "--norm", choices=("spectral", "frobenius", "trace"), default="frobenius"
    )
    p_bounds.add_argument(
        "--q",
        type=lambda s: _bounded_int(s, "q", 1),
        default=1,
        help="1-based target eigenvalue index, an integer >= 1",
    )
    p_bounds.add_argument("--out", help="output path (default stdout)")
    p_bounds.add_argument("--format", choices=("csv", "json", "table"), default="table")
    p_bounds.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any theorem hypothesis fails",
    )

    p_kappa = sub.add_parser("kappa-demo", help="3x3 coupling family demo")
    p_kappa.add_argument(
        "--kappas",
        type=lambda s: _parse_float_list(s, "kappa"),
        default=[10.0, 100.0, 1000.0],
        help="comma-separated coupling values (default 10,100,1000)",
    )
    p_kappa.add_argument("--out", help="output path (default stdout)")
    p_kappa.add_argument("--format", choices=("csv", "table"), default="table")

    p_schro = sub.add_parser("schrodinger", help="large-coupling model sweep")
    p_schro.add_argument(
        "--kappas",
        type=lambda s: _parse_float_list(s, "kappa"),
        default=[5.0, 10.0, 100.0, 1000.0],
        help="comma-separated coupling values (default 5,10,100,1000)",
    )
    p_schro.add_argument(
        "--oracle-fd",
        nargs=2,
        action=_OracleFdAction,
        metavar=("L", "N"),
        help="also run the finite-difference defect oracle on [0, L] with N nodes: "
        f"L finite and >= 2, N an integer in [{ORACLE_NODES_MIN}, {ORACLE_NODES_MAX}]",
    )
    p_schro.add_argument("--out", help="output path (default stdout)")
    p_schro.add_argument("--format", choices=("csv", "table"), default="table")

    p_fem = sub.add_parser("fem-periodic", help="anti-periodic reference table")
    p_fem.add_argument(
        "--n-list",
        type=_parse_mesh_list,
        default=[40, 60, 80, 100, 120],
        help=f"comma-separated mesh counts, integers in [{MESH_MIN}, {MESH_MAX}] "
        f"(default 40,60,80,100,120)",
    )
    p_fem.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="spectral shift (default %(default)s)")
    p_fem.add_argument(
        "--k-trunc",
        type=lambda s: _bounded_int(s, "k-trunc", 1),
        default=DEFAULT_K_TRUNC,
        help="accepted for compatibility, an integer K >= 1; the inverse moments "
        "are exact alias sums, so it changes no column (default %(default)s)",
    )
    p_fem.add_argument("--out", help="output path (default stdout)")
    p_fem.add_argument("--format", choices=("csv", "table"), default="csv")

    p_verify = sub.add_parser("verify", help="run the named property checks")
    p_verify.add_argument(
        "--seed", type=lambda s: _bounded_int(s, "seed", 0), default=DEFAULT_SEED,
        help="rng seed, an integer >= 0 (default %(default)s)",
    )
    p_verify.add_argument("--only", help="comma-separated subset of check names")

    return parser


_COMMANDS = {
    "bounds": _cmd_bounds,
    "kappa-demo": _cmd_kappa_demo,
    "schrodinger": _cmd_schrodinger,
    "fem-periodic": _cmd_fem_periodic,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (RitzBoundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

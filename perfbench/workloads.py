"""The benchmark's three workloads: inputs made from the seed, one
operation each, and the checks of every output against ``oracle``.

Each workload is a round of operations that the harness repeats whole.
Shapes, tilts and command lines are fixed per round slot; the seed draws
the entries, directions and coupling values, so every seed asks for the
same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, lapack

import oracle

SRC = Path(__file__).resolve().parent.parent / "src"

#: Environment of every program process: the checkout's sources, BLAS on
#: one thread (the harness process sets the same variables for itself).
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)

CLI = [sys.executable, "-m", "ritzbounds.cli"]

# The README's fixed report schema.
REPORT_KEYS = {
    "n", "m", "q", "norm_kind", "mu", "etas", "eta_route", "lambda_ref",
    "gaps", "flags", "aggregates", "entries",
}
GAP_KEYS = {"q", "g_q", "gamma_s", "lambda_qm1", "lambda_qpm", "mu_1", "mu_m"}
FLAG_KEYS = {
    "routes_agree", "cluster_multiplicity", "eta_vs_gamma", "mu_below_next",
    "two_eta_below_one", "tk_gap", "abs_gap",
}
AGGREGATE_KEYS = {
    "g_q", "g_1", "gamma_s", "g_q_lemma23", "g1_cor35", "dl", "eta_sum_squares",
    "cluster_T33", "sandwich_lower", "sandwich_upper", "trace_lower",
    "trace_upper", "prop36_lower", "residual_eta_lower", "residual_eta_upper",
    "abs_cluster", "classical_tk_lower", "exactness_ratio",
}
ENTRY_KEYS = {"index", "theorem", "lower", "upper", "valid"}
CSV_HEADER = ["index", "theorem", "lower", "upper", "valid"]

# Accuracy floors.  The program reaches about 1e-15 on the eigenvalues
# checked here, so a floor is broken only by a real fault, such as a 1e-8
# relative shift of one eigenvalue.  Report defects have no floor: their
# accuracy is what defect_digits measures, and on graded matrices the
# Schur route keeps only 7 to 12 digits today.
EIG_RTOL = 1e-11
KAPPA_ETA_RTOL = 1e-10
FEM_MIDDLE_RTOL = 1e-5  # the dense pencil gives about 1e-7 at N=160
KAPPA_ERROR_RTOL = 1e-5  # (mu - lambda_1)/mu loses about 8 digits to cancellation
SCHRODINGER_RTOL = 1e-9


@dataclass
class Verdict:
    """Check outcome of one operation."""

    violations: list = field(default_factory=list)
    value_digits: list = field(default_factory=list)
    defect_digits: list = field(default_factory=list)


@dataclass
class Op:
    """One slot of a round.  ``run`` performs the operation and returns its
    raw output; ``check`` judges an output against ``reference``.  The
    flags say whether the output holds values and defects to be scored."""

    label: str
    run: object
    check: object
    reference: object
    has_values: bool = True
    has_defects: bool = True


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _accurate_eigpairs(h):
    """Eigenpairs of SPD h to high relative accuracy, for building inputs:
    one-sided Jacobi SVD (LAPACK dgejsv) of the Cholesky factor."""
    sva, u, _, work, _, info = lapack.dgejsv(
        cholesky(h, lower=True), joba=3, jobu=0, jobv=3, jobr=0, jobt=0, jobp=0
    )
    if info != 0:
        raise RuntimeError(f"dgejsv failed with info={info}")
    lam = (sva * (work[0] / work[1])) ** 2
    order = np.argsort(lam)
    return lam[order], u[:, order]


def graded_case(rng, n, m, tilt):
    """H = D A D with A well conditioned (unit diagonal, condition <= ~10)
    and D powers of two down to 2^-20, so H is formed exactly and its
    diagonal and spectrum span 12 decades.  The basis tilts the m lowest
    eigenvectors by an energy-scaled perturbation of size ``tilt``."""
    q = _haar(rng, n)
    a = (q * 10.0 ** rng.uniform(0.0, 1.0, n)) @ q.T
    s = 1.0 / np.sqrt(np.diag(a))
    a = s[:, None] * a * s[None, :]
    a = 0.5 * (a + a.T)
    d = 2.0 ** -rng.permutation(np.round(np.linspace(0.0, 20.0, n)))
    h = d[:, None] * a * d[None, :]
    lam, vec = _accurate_eigpairs(h)
    c = rng.standard_normal((n - m, m))
    c /= np.linalg.norm(c, axis=0)
    tilt_dir = vec[:, m:] @ (c * np.sqrt(lam[None, :m] / lam[m:, None]))
    basis, _ = np.linalg.qr(vec[:, :m] + tilt * tilt_dir)
    return h, basis, vec[:, : m + 6]


def clustered_case(rng, n, m, tilt):
    """H = Q diag(Lambda) Q^T with an m-fold lowest eigenvalue c and the rest
    in [3c, 60c]; the basis is the invariant subspace tilted by ``tilt``
    (rotated by a random orthogonal m x m factor when tilt is 0)."""
    q = _haar(rng, n)
    c = 10.0 ** rng.uniform(-2.0, 2.0)
    lam = np.concatenate([np.full(m, c), c * (3.0 + 57.0 * np.sort(rng.random(n - m)))])
    h = (q * lam) @ q.T
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n - m, m))
    g /= np.linalg.norm(g, axis=0)
    basis, _ = np.linalg.qr(q[:, :m] + tilt * (q[:, m:] @ g))
    if tilt == 0.0:
        basis = basis @ _haar(rng, m)
    return h, basis, q[:, : m + 4], lam


def _write_matrix(path: Path, a: np.ndarray) -> None:
    """Plain matrix text: 'n m' then rows, 17 significant digits."""
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in a]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Report checks (library workloads and `bounds --format json`)
# ---------------------------------------------------------------------------


def report_reference(h, basis, guess, n_eigs):
    op = oracle.ExactOperator(h)
    mu, etas = oracle.ritz_and_defects(op, basis)
    lam = oracle.lowest_eigenvalues(op, guess, n_eigs)
    return {"mu": mu, "etas": etas, "lam": lam}


def _schema_violations(d) -> list:
    out = []
    if set(d) != REPORT_KEYS:
        out.append(f"report keys {sorted(set(d) ^ REPORT_KEYS)} differ from the schema")
        return out
    for key, want in (("gaps", GAP_KEYS), ("flags", FLAG_KEYS), ("aggregates", AGGREGATE_KEYS)):
        if set(d[key]) != want:
            out.append(f"{key} keys {sorted(set(d[key]) ^ want)} differ from the schema")
    for e in d["entries"]:
        if set(e) != ENTRY_KEYS:
            out.append(f"entry keys {sorted(e)} differ from the schema")
            break
    return out


def _compare(verdict, name, values, refs, rtol, bucket):
    if len(values) != len(refs):
        verdict.violations.append(f"{name}: {len(values)} values, expected {len(refs)}")
        return
    for i, (v, r) in enumerate(zip(values, refs)):
        err = oracle.rel_error(v, r)
        if rtol is not None and err > rtol:
            verdict.violations.append(
                f"{name}[{i}] = {v!r} has relative error {oracle.mp.nstr(err, 3)} > {rtol:g}"
            )
        bucket.append(oracle.digits(v, r))


def check_report(text, csv_text, ref, lambda_computed) -> Verdict:
    """Schema, accuracy against the oracle, and containment of the true
    relative error (mu_i - lambda_i)/mu_i in every entry flagged valid."""
    v = Verdict()
    d = json.loads(text)
    v.violations += _schema_violations(d)
    if v.violations:
        return v
    m = d["m"]
    _compare(v, "mu", d["mu"], ref["mu"], EIG_RTOL, v.value_digits)
    _compare(v, "etas", d["etas"], ref["etas"], None, v.defect_digits)
    if lambda_computed:
        _compare(v, "lambda_ref", d["lambda_ref"], ref["lam"][: d["q"] + m + 1], EIG_RTOL, v.value_digits)
    q = d["q"]
    truth = [(ref["mu"][i] - ref["lam"][q - 1 + i]) / ref["mu"][i] for i in range(m)]
    for e in d["entries"]:
        if not e["valid"]:
            continue
        t = truth[e["index"] - 1]
        if not oracle.mp.mpf(e["lower"]) <= t <= oracle.mp.mpf(e["upper"]):
            v.violations.append(
                f"valid {e['theorem']} entry {e['index']} [{e['lower']!r}, {e['upper']!r}] "
                f"misses the true relative error {oracle.mp.nstr(t, 6)}"
            )
    if csv_text is not None:
        rows = list(csv.reader(io.StringIO(csv_text)))
        expected = [
            [str(e["index"]), e["theorem"], e["lower"], e["upper"], "true" if e["valid"] else "false"]
            for e in d["entries"]
        ]
        got = [[r[0], r[1], float(r[2]), float(r[3]), r[4]] for r in rows[1:]] if rows else []
        if not rows or rows[0] != CSV_HEADER or got != expected:
            v.violations.append("CSV entries table differs from the JSON entries")
    return v


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

#: (n, m) of one report-graded round.  The seed changes how many Jacobi
#: sweeps the complement block needs, so one shape fills half the round and
#: the median of that class, not one matrix, sets op_p50_s.
GRADED_SLOTS = ((64, 16), (64, 1), (96, 16), (96, 4)) + ((128, 4),) * 9 + ((160, 16), (160, 1), (200, 1))
GRADED_TINY = ((24, 2), (32, 2))
NORMS = ("spectral", "frobenius", "trace")

#: Seeded tilts of report-converged stay in 10^[-6, -2]: below about 1e-7
#: the moment route fails on some draws only.  The converged regime is
#: kept by the seed-independent cases below, which fail on every run today.
CONVERGED_SLOTS = 21
CONVERGED_FIXED = ((24, 4, 1e-10), (36, 4, 1e-12), (12, 4, 0.0))
CONVERGED_FIXED_SEED = 7


def _report_op(label, h, basis, norm, lambda_ref, ref_fn, with_csv=False):
    import ritzbounds.bounds as bounds
    from ritzbounds.defect import TestSubspace
    from ritzbounds.densela import SymmetricMatrix

    hm, sub = SymmetricMatrix(h), TestSubspace(basis)

    def run():
        report = bounds.build_report(hm, sub, norm_kind=norm, lambda_ref=lambda_ref)
        text = bounds.report_to_json(report)
        return text, bounds.report_to_csv(report) if with_csv else None

    def check(output, ref):
        return check_report(output[0], output[1], ref, lambda_computed=lambda_ref is None)

    return Op(label, run, check, ref_fn)


def report_graded(seed, tiny=False):
    rng = np.random.default_rng([seed, 1])
    ops, arrays = [], []
    slots = GRADED_TINY if tiny else GRADED_SLOTS
    for i, (n, m) in enumerate(slots):
        tilt = 10.0 ** (-1.0 - 5.0 * (i * 7 % len(slots)) / (len(slots) - 1))
        h, basis, guess = graded_case(rng, n, m, tilt)
        ref = lambda h=h, basis=basis, guess=guess, m=m: report_reference(h, basis, guess, m + 2)
        ops.append(_report_op(f"graded n={n} m={m}", h, basis, NORMS[i % 3], None, ref))
        arrays.append((h, basis))
    return ops, arrays


def report_converged(seed, tiny=False):
    rng = np.random.default_rng([seed, 2])
    slots = []
    for i in range(4 if tiny else CONVERGED_SLOTS):
        n = (12, 24, 36, 48)[i % 4]
        m = 1 + (i // 4) % 4
        tilt = 10.0 ** (-2.0 - 4.0 * (i * 5 % CONVERGED_SLOTS) / (CONVERGED_SLOTS - 1))
        slots.append((rng, n, m, tilt, False))
    fixed_rng = np.random.default_rng(CONVERGED_FIXED_SEED)
    for n, m, tilt in CONVERGED_FIXED[:1] if tiny else CONVERGED_FIXED:
        slots.append((fixed_rng, n, m, tilt, True))
    ops, arrays = [], []
    for i, (r, n, m, tilt, fixed) in enumerate(slots):
        h, basis, guess, lam = clustered_case(r, n, m, tilt)
        ref = lambda h=h, basis=basis, guess=guess, m=m: report_reference(h, basis, guess, m + 1)
        label = f"converged n={n} m={m} tilt={tilt:.1e}" + (" fixed" if fixed else "")
        ops.append(_report_op(label, h, basis, NORMS[i % 3], lam, ref, with_csv=True))
        arrays.append((h, basis))
    return ops, arrays


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def run_cli(argv, in_process):
    """(exit code, stdout, stderr) of one ritzbounds command: a fresh process,
    or ``cli.main`` in this process for the traced run."""
    if not in_process:
        p = subprocess.run(CLI + argv, env=CHILD_ENV, capture_output=True, text=True, timeout=170)
        return p.returncode, p.stdout, p.stderr
    import ritzbounds.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error ends the CLI process with 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _csv_rows(verdict, stdout, header):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows or rows[0] != header:
        verdict.violations.append(f"CSV header {rows[0] if rows else None} != {header}")
        return []
    return [dict(zip(header, map(float, r))) for r in rows[1:]]


def _check_table(verdict, rows, refs, value_cols, defect_cols):
    if len(rows) != len(refs):
        verdict.violations.append(f"{len(rows)} table rows, expected {len(refs)}")
        return False
    for row, ref in zip(rows, refs):
        for col in value_cols:
            verdict.value_digits.append(oracle.digits(row[col], ref[col]))
        for col in defect_cols:
            verdict.defect_digits.append(oracle.digits(row[col], ref[col]))
    return True


def _exit_ok(verdict, output):
    code, _, stderr = output
    if code != 0:
        verdict.violations.append(f"exit code {code}, documented 0: {stderr.strip()[-200:]}")
        return False
    return True


def check_fem(output, refs) -> Verdict:
    v = Verdict()
    if not _exit_ok(v, output):
        return v
    rows = _csv_rows(v, output[1], ["N", "lower", "middle", "upper"])
    if rows and _check_table(v, rows, refs, ("lower", "middle", "upper"), ()):
        for row, ref in zip(rows, refs):
            if not row["lower"] <= row["middle"] <= row["upper"]:
                v.violations.append(f"N={row['N']:g}: lower <= middle <= upper fails")
            if oracle.rel_error(row["middle"], ref["middle"]) > FEM_MIDDLE_RTOL:
                v.violations.append(f"N={row['N']:g}: middle {row['middle']!r} misses the closed form")
    return v


def check_kappa(output, refs) -> Verdict:
    v = Verdict()
    if not _exit_ok(v, output):
        return v
    cols = ["kappa", "res_norm", "eta", "eta_computed", "rel_error", "ratio"]
    rows = _csv_rows(v, output[1], cols)
    if rows and _check_table(v, rows, refs, ("res_norm", "rel_error", "ratio"), ("eta", "eta_computed")):
        for row, ref in zip(rows, refs):
            if row["kappa"] != ref["kappa"]:
                v.violations.append(f"kappa {row['kappa']!r} is not the input {ref['kappa']}")
            if oracle.rel_error(row["eta_computed"], ref["eta"]) > KAPPA_ETA_RTOL:
                v.violations.append(f"kappa={row['kappa']:g}: eta_computed misses the closed form")
            if oracle.rel_error(row["rel_error"], ref["rel_error"]) > KAPPA_ERROR_RTOL:
                v.violations.append(f"kappa={row['kappa']:g}: rel_error misses the exact value")
    return v


def check_schrodinger(output, refs) -> Verdict:
    v = Verdict()
    if not _exit_ok(v, output):
        return v
    cols = ["kappa", "eta2", "taylor", "lower", "upper", "exact"]
    rows = _csv_rows(v, output[1], cols)
    if rows and _check_table(v, rows, refs, ("taylor", "lower", "upper", "exact"), ("eta2",)):
        for row, ref in zip(rows, refs):
            if not oracle.mp.mpf(row["lower"]) <= ref["exact"] <= oracle.mp.mpf(row["upper"]):
                v.violations.append(f"kappa={row['kappa']:g}: sandwich misses the exact value")
            if oracle.rel_error(row["exact"], ref["exact"]) > SCHRODINGER_RTOL:
                v.violations.append(f"kappa={row['kappa']:g}: exact {row['exact']!r} misses the root")
    fd_lines = [ln for ln in output[1].splitlines() if ln.startswith("# fd oracle")]
    if len(fd_lines) != len(refs):
        v.violations.append(f"{len(fd_lines)} finite-difference oracle lines, expected {len(refs)}")
    return v


def check_verify(output, _ref) -> Verdict:
    v = Verdict()
    if _exit_ok(v, output):
        last = output[1].strip().splitlines()[-1:] or [""]
        if not (last[0].startswith("all ") and "properties hold" in last[0]):
            v.violations.append(f"verify summary line {last[0]!r}")
    return v


def check_bounds(output, ref) -> Verdict:
    v = Verdict()
    if _exit_ok(v, output):
        return check_report(output[1], None, ref, lambda_computed=True)
    return v


FEM_MESHES = (40, 80, 120, 160)
FEM_ALPHA = 0.2499  # the CLI default, kept so lower <= middle is checked where it is tight
BOUNDS_N, BOUNDS_M = 48, 2


def cli_paper(seed, workdir: Path, in_process=False, tiny=False):
    rng = np.random.default_rng([seed, 3])
    kappas = [10.0 ** rng.uniform(lo, hi) for lo, hi in ((1, 2), (2, 3), (3, 3.5))]
    kappas = [float(f"{k:.6g}") for k in kappas]
    skappas = [rng.uniform(5.0, 10.0)] + [10.0 ** rng.uniform(lo, hi) for lo, hi in ((1, 2), (2, 3), (3, 3.5))]
    skappas = sorted(float(f"{k:.6g}") for k in skappas)
    meshes = (16, 24) if tiny else FEM_MESHES
    n = 16 if tiny else BOUNDS_N
    h, basis, guess, _ = clustered_case(rng, n, BOUNDS_M, 10.0 ** rng.uniform(-5.0, -2.0))
    matrix, subspace = workdir / "H.txt", workdir / "S.txt"
    _write_matrix(matrix, h)
    _write_matrix(subspace, basis)

    def op(label, argv, check, ref, has_values=True, has_defects=True):
        return Op(label, lambda: run_cli(argv, in_process), check, ref, has_values, has_defects)

    join = lambda xs: ",".join(repr(x) for x in xs)
    ops = [
        op("fem-periodic", ["fem-periodic", "--n-list", ",".join(map(str, meshes)), "--format", "csv"],
           check_fem, lambda: [oracle.fem_periodic_row(nm, FEM_ALPHA) for nm in meshes], has_defects=False),
        op("kappa-demo", ["kappa-demo", "--kappas", join(kappas), "--format", "csv"],
           check_kappa, lambda: [oracle.kappa_demo_row(k) for k in kappas]),
        op("schrodinger", ["schrodinger", "--kappas", join(skappas), "--oracle-fd", "10", "20000", "--format", "csv"],
           check_schrodinger, lambda: [oracle.schrodinger_row(k) for k in skappas]),
        op("verify", ["verify"], check_verify, lambda: None, False, False),
        op("bounds", ["bounds", "--matrix", str(matrix), "--subspace", str(subspace), "--format", "json"],
           check_bounds, lambda: report_reference(h, basis, guess, BOUNDS_M + 2)),
    ]
    return ops

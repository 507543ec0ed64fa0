"""Dense symmetric linear algebra kernels.

Everything downstream (defect operators, bound evaluation, model problems)
is built on the routines in this module: a cyclic Jacobi eigensolver for
real symmetric matrices, the symmetric-definite generalized eigensolver via
Cholesky reduction, inverse square roots, singular values, and the family
of unitary-invariant norms (spectral, Frobenius, trace).

The eigensolver is one-path Jacobi rather than a LAPACK call on purpose:
two-sided Jacobi computes small eigenvalues of badly scaled positive
definite matrices to high *relative* accuracy, which the bound evaluation
needs when diagonal entries span many orders of magnitude.  Rotations are
applied in round-robin parallel orderings so a sweep costs a handful of
vectorized array operations per round instead of one Python call per pair.

Storage is dense float64 throughout; the intended problem sizes are desk
scale (n up to ~2000).
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    MatrixParseError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

#: Convergence declaration for the Jacobi sweep: off-diagonal Frobenius norm
#: relative to the full Frobenius norm.  Sweeps continue past this point
#: while rotations still fire, so the achieved accuracy is usually much
#: better; this is the guaranteed floor.
OFFDIAG_TOL = 1e-12

#: Hard cap on Jacobi sweeps before declaring non-convergence.
MAX_SWEEPS = 100

_SYMMETRY_RTOL = 1e-12


class NormKind(enum.Enum):
    """Unitary-invariant norm selector."""

    SPECTRAL = "spectral"
    FROBENIUS = "frobenius"
    TRACE = "trace"

    @classmethod
    def coerce(cls, kind) -> "NormKind":
        if isinstance(kind, cls):
            return kind
        try:
            return cls(str(kind).lower())
        except ValueError:
            names = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {names}") from None


@dataclass(frozen=True)
class SymmetricMatrix:
    """Immutable dense real symmetric matrix.

    The constructor admits finite input whose asymmetry is at most 1e-12
    relative to the largest entry and symmetrizes it by averaging; anything
    worse is rejected.  The stored array is read-only, so instances are
    safe to share between threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (found nan or inf)")
        if a.size:
            scale = np.max(np.abs(a))
            asym = np.max(np.abs(a - a.T))
            if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
                raise NotSymmetricError(
                    f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
                    f"exceeds {_SYMMETRY_RTOL:.0e} * max|A| = {_SYMMETRY_RTOL * scale:.3e}"
                )
            a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def is_positive_definite(self) -> bool:
        """Check positive definiteness on demand via Cholesky."""
        try:
            cholesky_lower(self.entries)
        except NotPositiveDefiniteError:
            return False
        return True


def as_symmetric(a) -> SymmetricMatrix:
    """Coerce an array-like (or pass through a SymmetricMatrix)."""
    if isinstance(a, SymmetricMatrix):
        return a
    return SymmetricMatrix(np.asarray(a, dtype=float))


def _as_array(a) -> np.ndarray:
    return a.entries if isinstance(a, SymmetricMatrix) else np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# Jacobi eigensolver
# ---------------------------------------------------------------------------

_ROUND_CACHE: dict[int, list] = {}


def _round_robin_rounds(n: int) -> list:
    """Disjoint pair schedule covering every index pair exactly once.

    Standard circle method: with n (padded to even) players, fix player 0
    and rotate the rest; n-1 rounds of n/2 disjoint pairs.
    """
    rounds = _ROUND_CACHE.get(n)
    if rounds is not None:
        return rounds
    m = n if n % 2 == 0 else n + 1
    others = list(range(1, n)) + ([-1] if m != n else [])
    rounds = []
    for _ in range(m - 1):
        seq = [0] + others
        ps, qs = [], []
        for i in range(m // 2):
            a, b = seq[i], seq[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps, dtype=np.intp), np.asarray(qs, dtype=np.intp)))
        others = others[-1:] + others[:-1]
    if n <= 512:
        _ROUND_CACHE[n] = rounds
    return rounds


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def _jacobi(a: np.ndarray, tol: float = OFFDIAG_TOL, max_sweeps: int = MAX_SWEEPS):
    """Diagonalize a symmetric matrix in place with cyclic Jacobi rotations.

    Returns (diagonal, accumulated rotations V) with a = V @ diag @ V.T.
    Rotations keep firing while any off-diagonal entry exceeds machine
    epsilon relative to the geometric mean of its diagonal pair, which is
    what preserves high relative accuracy of small eigenvalues.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diag(a).copy(), v
    eps = np.finfo(float).eps
    rounds = _round_robin_rounds(n)
    for _ in range(max_sweeps):
        rotated = False
        for p_all, q_all in rounds:
            apq = a[p_all, q_all]
            app = a[p_all, p_all]
            aqq = a[q_all, q_all]
            thr = eps * np.sqrt(np.abs(app * aqq))
            active = np.abs(apq) > thr
            # zero thresholds (a zero diagonal pair) still rotate any
            # nonzero coupling
            active &= apq != 0.0
            if not active.any():
                continue
            rotated = True
            p = p_all[active]
            q = q_all[active]
            apq = apq[active]
            app = app[active]
            aqq = aqq[active]
            tau = (aqq - app) / (2.0 * apq)
            t = np.where(
                tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
            )
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            cc = c[:, None]
            ss = s[:, None]
            rows_p = a[p, :]
            rows_q = a[q, :]
            a[p, :] = cc * rows_p - ss * rows_q
            a[q, :] = ss * rows_p + cc * rows_q
            cols_p = a[:, p].copy()
            cols_q = a[:, q].copy()
            a[:, p] = cols_p * c - cols_q * s
            a[:, q] = cols_p * s + cols_q * c
            # closed-form pair algebra avoids the cancellation of the
            # rotated quadratic form on the diagonal
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
            vec_p = v[:, p].copy()
            vec_q = v[:, q].copy()
            v[:, p] = vec_p * c - vec_q * s
            v[:, q] = vec_p * s + vec_q * c
        if not rotated:
            break
    else:
        off = _off_diagonal_norm(a)
        fro = float(np.sqrt((a * a).sum()))
        if off > tol * max(fro, 1e-300):
            raise ConvergenceError(
                f"Jacobi sweep cap {max_sweeps} reached with off-diagonal norm "
                f"{off:.3e} > {tol:.0e} * ||A||_F = {tol * fro:.3e}",
                off_diagonal_norm=off,
                sweeps=max_sweeps,
            )
    return np.diag(a).copy(), v


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (deterministic)."""
    if vectors.size == 0:
        return vectors
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(a):
    """Full eigendecomposition of a real symmetric matrix.

    Parameters
    ----------
    a : SymmetricMatrix or array-like
        Matrix to diagonalize.

    Returns
    -------
    values : ndarray, ascending eigenvalues
    vectors : ndarray, orthonormal columns, ``a @ vectors[:, i] == values[i] * vectors[:, i]``
    """
    m = as_symmetric(a)
    if m.n == 0:
        return np.empty(0), np.empty((0, 0))
    values, vectors = _jacobi(m.entries)
    order = np.argsort(values, kind="stable")
    return values[order], _normalize_signs(vectors[:, order])


def cholesky_lower(a, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Raises NotPositiveDefiniteError naming the first failing pivot index.
    """
    a = _as_array(a)
    n = a.shape[0]
    ell = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - ell[j, :j] @ ell[j, :j]
        if not np.isfinite(d) or d <= 0.0:
            raise NotPositiveDefiniteError(
                f"{what} is not positive definite: Cholesky pivot {j} is {d:.6e}",
                pivot_index=j,
            )
        ell[j, j] = np.sqrt(d)
        if j + 1 < n:
            ell[j + 1 :, j] = (a[j + 1 :, j] - ell[j + 1 :, :j] @ ell[j, :j]) / ell[j, j]
    return ell


def solve_lower(ell: np.ndarray, b) -> np.ndarray:
    """Forward substitution L x = b (b may have several columns)."""
    x = np.array(b, dtype=float)
    for i in range(ell.shape[0]):
        x[i] = (x[i] - ell[i, :i] @ x[:i]) / ell[i, i]
    return x


def solve_lower_t(ell: np.ndarray, b) -> np.ndarray:
    """Back substitution L^T x = b."""
    x = np.array(b, dtype=float)
    for i in reversed(range(ell.shape[0])):
        x[i] = (x[i] - ell[i + 1 :, i] @ x[i + 1 :]) / ell[i, i]
    return x


def gen_sym_eig(a, b):
    """Generalized symmetric-definite eigenproblem A v = lambda B v.

    Reduces to a standard problem with the Cholesky factor of B and
    back-transforms, so the returned vectors are B-orthonormal.  Eigenvalues
    come back ascending.
    """
    a = _as_array(as_symmetric(a))
    bm = as_symmetric(b)
    if a.shape != bm.entries.shape:
        raise ValueError(f"shape mismatch: A is {a.shape}, B is {bm.entries.shape}")
    if bm.n == 0:
        return np.empty(0), np.empty((0, 0))
    ell = cholesky_lower(bm.entries, what="B")
    c = solve_lower(ell, solve_lower(ell, a).T)
    values, q = _jacobi(0.5 * (c + c.T))
    order = np.argsort(values, kind="stable")
    vectors = solve_lower_t(ell, q[:, order])
    return values[order], _normalize_signs(vectors)


def inv_sqrt(a) -> SymmetricMatrix:
    """Inverse square root R of a positive-definite matrix, R A R = I."""
    m = as_symmetric(a)
    if m.n == 0:
        return m
    values, vectors = sym_eig(m)
    if values[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"inverse square root needs a positive-definite matrix; "
            f"smallest eigenvalue is {values[0]:.6e}",
            eigenvalue=values[0],
        )
    r = (vectors * values**-0.5) @ vectors.T
    return SymmetricMatrix(0.5 * (r + r.T))


def singular_values(a) -> np.ndarray:
    """Singular values of a rectangular matrix, descending.

    One-sided Jacobi on the smaller side: plane rotations orthogonalize the
    column pairs, after which the column norms are the singular values
    (equivalently, the square roots of the Gram-matrix eigenvalues, but
    computed to high relative accuracy).  min(n_rows, n_cols) values are
    returned.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if min(a.shape) == 0:
        return np.empty(0)
    w = np.array(a if a.shape[0] >= a.shape[1] else a.T)
    m = w.shape[1]
    if m == 1:
        return np.array([float(np.sqrt((w * w).sum()))])
    eps = np.finfo(float).eps
    rounds = _round_robin_rounds(m)
    for sweep in range(MAX_SWEEPS):
        rotated = False
        for p_all, q_all in rounds:
            wp = w[:, p_all]
            wq = w[:, q_all]
            gpp = (wp * wp).sum(axis=0)
            gqq = (wq * wq).sum(axis=0)
            gpq = (wp * wq).sum(axis=0)
            active = np.abs(gpq) > eps * np.sqrt(gpp * gqq)
            if not active.any():
                continue
            rotated = True
            p = p_all[active]
            q = q_all[active]
            tau = (gqq[active] - gpp[active]) / (2.0 * gpq[active])
            t = np.where(
                tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau))
            )
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            wp = w[:, p].copy()
            wq = w[:, q].copy()
            w[:, p] = wp * c - wq * s
            w[:, q] = wp * s + wq * c
        if not rotated:
            break
    else:
        gram = w.T @ w
        off = _off_diagonal_norm(gram)
        fro = float(np.sqrt((gram * gram).sum()))
        if off > OFFDIAG_TOL * max(fro, 1e-300):
            raise ConvergenceError(
                f"one-sided Jacobi sweep cap {MAX_SWEEPS} reached with Gram "
                f"off-diagonal norm {off:.3e}",
                off_diagonal_norm=off,
                sweeps=MAX_SWEEPS,
            )
    s = np.sqrt((w * w).sum(axis=0))
    return np.sort(s)[::-1]


def ui_norm(a, kind) -> float:
    """Unitary-invariant norm: spectral s_1, Frobenius sqrt(sum s_i^2), trace sum s_i."""
    kind = NormKind.coerce(kind)
    a = _as_array(a)
    if a.ndim == 1:
        a = a[:, None]
    if a.size == 0:
        return 0.0
    if kind is NormKind.FROBENIUS:
        return float(np.sqrt((a * a).sum()))
    s = singular_values(a)
    if kind is NormKind.SPECTRAL:
        return float(s[0])
    return float(s.sum())


# ---------------------------------------------------------------------------
# Matrix text format
# ---------------------------------------------------------------------------
#
#   first non-comment line:  "n m"
#   then n lines of m whitespace-separated decimal values
#   '#' starts a comment line; values are written with 17 significant digits


def _format_value(x: float) -> str:
    return f"{x:.17g}"


def write_matrix_text(path, a, header_comment: str | None = None) -> None:
    """Write a dense matrix in the plain text format."""
    a = _as_array(a)
    if a.ndim == 1:
        a = a[:, None]
    lines = []
    if header_comment:
        for chunk in header_comment.splitlines():
            lines.append(f"# {chunk}")
    lines.append(f"{a.shape[0]} {a.shape[1]}")
    for row in a:
        lines.append(" ".join(_format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_text(source) -> np.ndarray:
    """Read a matrix from the plain text format.

    ``source`` is a path or an open text stream.  Malformed content,
    including a ``nan`` or ``inf`` entry, raises MatrixParseError with the
    1-based line and token column.
    """
    if isinstance(source, io.TextIOBase):
        text = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
        text = Path(source).read_text()

    rows: list[list[float]] = []
    shape: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if shape is None:
            if len(tokens) != 2:
                raise MatrixParseError(
                    f"{name}:{lineno}: header must be 'n m', got {len(tokens)} tokens",
                    line=lineno,
                    column=1,
                )
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixParseError(
                    f"{name}:{lineno}: header dimensions must be integers",
                    line=lineno,
                    column=1,
                ) from None
            if n < 0 or m < 0:
                raise MatrixParseError(
                    f"{name}:{lineno}: dimensions must be nonnegative", line=lineno, column=1
                )
            shape = (n, m)
            continue
        if len(tokens) != shape[1]:
            raise MatrixParseError(
                f"{name}:{lineno}: expected {shape[1]} values, got {len(tokens)}",
                line=lineno,
                column=len(tokens),
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise MatrixParseError(
                    f"{name}:{lineno}: bad value {tok!r} at column {col}",
                    line=lineno,
                    column=col,
                )
            row.append(value)
        rows.append(row)
        if len(rows) > shape[0]:
            raise MatrixParseError(
                f"{name}:{lineno}: more than the declared {shape[0]} rows",
                line=lineno,
                column=1,
            )
    if shape is None:
        raise MatrixParseError(f"{name}: empty file", line=1, column=1)
    if len(rows) != shape[0]:
        raise MatrixParseError(
            f"{name}: declared {shape[0]} rows but found {len(rows)}",
            line=len(text.splitlines()),
            column=1,
        )
    if shape[0] == 0 or shape[1] == 0:
        return np.empty(shape)
    return np.asarray(rows, dtype=float)

"""Dense symmetric linear algebra kernels.

Everything downstream (defect operators, bound evaluation, model problems)
is built on the routines in this module: an eigensolver for real symmetric
matrices, the symmetric-definite generalized eigensolver via Cholesky
reduction, inverse square roots, singular values, and the family of
unitary-invariant norms (spectral, Frobenius, trace).

The bound evaluation needs small eigenvalues of badly scaled
positive-definite matrices to high *relative* accuracy, which LAPACK's
symmetric eigensolvers do not give: ``numpy.linalg.eigh`` is accurate only
relative to the largest eigenvalue.  So ``sym_eig`` factors a
positive-definite matrix, with its diagonal sorted to decrease, as
``L L^T`` and takes the eigenvalues as the squared singular values of
``L`` from LAPACK's values-only SVD, whose dqds stage keeps relative
accuracy, and ``sym_eigvals`` returns those values without the vectors;
``singular_values`` sorts rows and columns by decreasing norm for the
same reason.  ``cholesky_lower`` is LAPACK's and loops in Python only to
name the pivot that fails.  The private ``_inv_upper`` and ``_solve_upper``
invert and solve with triangular matrices in blocks, with LAPACK on the
diagonal blocks.  Only numpy's own LAPACK is used: the first call of
scipy's accurate Jacobi SVD (``dgejsv``) or of ``scipy.linalg.eigh``
raises a process's peak memory by 1.3-1.6 MB, three to four times what
numpy's values-only SVD costs (see the README's numerical notes).

Storage is dense float64 throughout; the intended problem sizes are desk
scale.
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

_SYMMETRY_RTOL = 1e-12
_EPS = np.finfo(float).eps


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
    relative to the largest entry and symmetrizes it by averaging, as
    ``0.5 A + 0.5 A^T`` so that no sum overflows; anything worse is
    rejected.  The stored array is read-only, so instances are safe to
    share between threads.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (found nan or inf)")
        if a.size:
            scale = max(a.max(), -a.min())
            diff = a - a.T
            asym = np.abs(diff, out=diff).max()
            del diff
            if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
                raise NotSymmetricError(
                    f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
                    f"exceeds {_SYMMETRY_RTOL:.0e} * max|A| = {_SYMMETRY_RTOL * scale:.3e}"
                )
            # the bits of 0.5 a + 0.5 a^T, with one temporary: each half
            # rounds as it does there
            a *= 0.5
            a += a.T.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def as_symmetric(a) -> SymmetricMatrix:
    """Coerce an array-like (or pass through a SymmetricMatrix)."""
    if isinstance(a, SymmetricMatrix):
        return a
    return SymmetricMatrix(np.asarray(a, dtype=float))


def _as_array(a) -> np.ndarray:
    return a.entries if isinstance(a, SymmetricMatrix) else np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# Eigensolvers
# ---------------------------------------------------------------------------


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (deterministic)."""
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0, -vectors, vectors)


def _lapack(routine, *args, **kwargs):
    """Call a numpy LAPACK routine, surfacing its LinAlgError as ConvergenceError."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"LAPACK {routine.__name__} failed: {err}") from err


def sym_eig(a):
    """Full eigendecomposition of a real symmetric matrix.

    A positive-definite matrix is factored by ``sorted_cholesky``,
    ``P^T A P = L L^T``.  The eigenvalues are the squared
    singular values of ``L`` from LAPACK's values-only SVD (dqds), which
    keeps small eigenvalues of graded matrices to high relative accuracy;
    the eigenvectors are ``P`` times the left singular vectors of ``L``.
    Anything whose Cholesky factorization fails goes to ``numpy.linalg.eigh``.

    Parameters
    ----------
    a : SymmetricMatrix or array-like
        Matrix to diagonalize.

    Returns
    -------
    values : ndarray, ascending eigenvalues
    vectors : ndarray, orthonormal columns, ``a @ vectors[:, i] == values[i] * vectors[:, i]``
    """
    return _sym_eig(as_symmetric(a).entries)


def _sym_eig(a: np.ndarray):
    """``sym_eig`` of an exactly symmetric, finite array, which it does not
    admit again."""
    if not len(a):
        return np.empty(0), np.empty((0, 0))
    try:
        perm, ell = sorted_cholesky(a)
    except NotPositiveDefiniteError:
        values, vectors = _lapack(np.linalg.eigh, a)
        return values, _normalize_signs(vectors)
    # the values returned along with the vectors come from divide and
    # conquer, which loses the relative accuracy of the small ones
    sigma = singular_values(ell)
    left = _lapack(np.linalg.svd, ell)[0]
    vectors = np.empty_like(left)
    vectors[perm] = left[:, ::-1]
    return sigma[::-1] ** 2, _normalize_signs(vectors)


def sym_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, the values
    ``sym_eig`` returns without its eigenvectors: the squared values-only
    SVD of the ``sorted_cholesky`` factor, or ``numpy.linalg.eigvalsh``
    when that factorization fails."""
    m = as_symmetric(a)
    if m.n == 0:
        return np.empty(0)
    try:
        _, ell = sorted_cholesky(m)
    except NotPositiveDefiniteError:
        return _lapack(np.linalg.eigvalsh, m.entries)
    return singular_values(ell)[::-1] ** 2


def sorted_cholesky(a, what: str = "matrix"):
    """``(perm, L)``: ``P^T A P = L L^T`` with ``P^T x == x[perm]`` and a
    decreasing diagonal, which keeps the singular values of ``L`` relatively
    accurate on graded A; a failing pivot is named by its row of ``a``."""
    a = _as_array(a)
    perm = (-a.diagonal()).argsort(kind="stable")
    try:
        return perm, cholesky_lower(a.take(perm, axis=0).take(perm, axis=1), what=what)
    except NotPositiveDefiniteError as err:
        row = int(perm[err.pivot_index])
        message = str(err).replace(f"pivot {err.pivot_index} ", f"pivot {row} ")
        raise NotPositiveDefiniteError(message, pivot_index=row) from None


def cholesky_lower(a, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The factor is ``numpy.linalg.cholesky``'s.  Only when LAPACK fails, or
    leaves a non-finite entry, does a row loop factor the matrix again, to
    raise NotPositiveDefiniteError naming the first failing pivot index.
    """
    a = _as_array(a)
    try:
        ell = np.linalg.cholesky(a)
        if np.isfinite(ell).all():
            return ell
    except np.linalg.LinAlgError:
        pass
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


#: Order of the diagonal blocks that ``_inv_upper`` and ``_solve_upper``
#: hand to LAPACK.
_LEAF = 64


def _inv_upper(r: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper triangular matrix by recursive 2x2
    blocking, ``X12 = -X11 R12 X22`` (Du Croz and Higham, 1992), with
    leaves ``numpy.linalg.solve(r, I)`` of order at most ``_LEAF``, whose
    LU swaps no row of a triangular matrix.  A leaf of order k is an LU
    solve with k right-hand sides, about 8 k^3/3 flops, and every n <=
    ``_LEAF`` is one leaf.  Well above ``_LEAF`` the dense products
    dominate, about 2 n^3/3 flops in all."""
    n = r.shape[0]
    if n <= _LEAF:
        return np.linalg.solve(r, np.eye(n))
    k = n // 2
    x = np.zeros((n, n))
    x[:k, :k] = _inv_upper(r[:k, :k])
    x[k:, k:] = _inv_upper(r[k:, k:])
    x[:k, k:] = -x[:k, :k] @ (r[:k, k:] @ x[k:, k:])
    return x


def _solve_upper(r: np.ndarray, b) -> np.ndarray:
    """Back substitution R x = b (b may have several columns), blocked:
    ``numpy.linalg.solve`` on diagonal blocks of order at most ``_LEAF``,
    which swaps no row of a triangular block, and products above them."""
    x = np.array(b, dtype=float)
    for hi in range(r.shape[0], 0, -_LEAF):
        lo = max(hi - _LEAF, 0)
        x[lo:hi] = np.linalg.solve(r[lo:hi, lo:hi], x[lo:hi] - r[lo:hi, hi:] @ x[hi:])
    return x


def gen_sym_eig(a, b):
    """Generalized symmetric-definite eigenproblem A v = lambda B v.

    Reduces to a standard problem with the Cholesky factor of B and
    back-transforms, so the returned vectors are B-orthonormal.  Eigenvalues
    come back ascending.  ``etas_moments`` solves the moment pencil with it.
    """
    a = _as_array(as_symmetric(a))
    bm = as_symmetric(b)
    if a.shape != bm.entries.shape:
        raise ValueError(f"shape mismatch: A is {a.shape}, B is {bm.entries.shape}")
    if bm.n == 0:
        return np.empty(0), np.empty((0, 0))
    ell = cholesky_lower(bm.entries, what="B")
    c = solve_lower(ell, solve_lower(ell, a).T)
    values, q = sym_eig(0.5 * (c + c.T))
    return values, _normalize_signs(solve_lower_t(ell, q))


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

    LAPACK's values-only SVD (bidiagonalization, then dqds) of the matrix
    with its rows and its columns sorted by decreasing norm.  The order
    changes no singular value, but without it the bidiagonalization loses
    the small singular values of a graded matrix (relative errors of 1e3
    and more with scales spanning 24 decades, at most 4e-13 sorted).
    min(n_rows, n_cols) values are returned.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if min(a.shape) == 0:
        return np.empty(0)
    rows = (-np.einsum("ij,ij->i", a, a)).argsort(kind="stable")
    cols = (-np.einsum("ij,ij->j", a, a)).argsort(kind="stable")
    return _lapack(np.linalg.svd, a.take(rows, axis=0).take(cols, axis=1), compute_uv=False)


def ui_norm(a, kind) -> float:
    """Unitary-invariant norm: spectral s_1, Frobenius sqrt(sum s_i^2), trace sum s_i."""
    kind = NormKind.coerce(kind)
    a = _as_array(a)
    if kind is NormKind.FROBENIUS:
        # the singular values' 2-norm is the entries' 2-norm
        return values_norm(a.ravel(), kind)
    return values_norm(singular_values(a), kind)


def values_norm(values, kind) -> float:
    """Unitary-invariant norm of ``diag(values)``, from the singular values
    ``|values|``; this is where ``ui_norm`` evaluates every norm."""
    kind = NormKind.coerce(kind)
    s = np.abs(np.asarray(values, dtype=float))
    if s.size == 0:
        return 0.0
    if kind is NormKind.SPECTRAL:
        return float(s.max())
    if kind is NormKind.FROBENIUS:
        return float(np.sqrt((s * s).sum()))
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


def write_matrix_text(path, a) -> None:
    """Write a dense matrix in the plain text format."""
    a = _as_array(a)
    if a.ndim == 1:
        a = a[:, None]
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(_format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_text(source) -> np.ndarray:
    """Read a matrix from the plain text format.

    ``source`` is a path or an open text stream.  Malformed content,
    including a ``nan`` or ``inf`` entry, raises MatrixParseError with the
    1-based line and token column.  Each row is parsed once into a float64
    array and the rows are stacked once; nothing is sized from the header.
    """
    if isinstance(source, io.TextIOBase):
        name, lines = getattr(source, "name", "<stream>"), source.read().splitlines()
    else:
        name, lines = str(source), Path(source).read_text().splitlines()

    def error(message, line, column=1, located=True):
        where = f"{name}:{line}" if located else name
        return MatrixParseError(f"{where}: {message}", line=line, column=column)

    shape, rows = None, []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if shape is None:
            if len(tokens) != 2:
                raise error(f"header must be 'n m', got {len(tokens)} tokens", lineno)
            try:
                shape = n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise error("header dimensions must be integers", lineno) from None
            if n < 0 or m < 0:
                raise error("dimensions must be nonnegative", lineno)
            continue
        if len(tokens) != m:
            raise error(f"expected {m} values, got {len(tokens)}", lineno, len(tokens))
        try:
            row = np.array(list(map(float, tokens)))
        except ValueError:
            row = None
        if row is None or not np.isfinite(row).all():
            for col, tok in enumerate(tokens, start=1):
                try:
                    if math.isfinite(float(tok)):
                        continue
                except ValueError:
                    pass
                raise error(f"bad value {tok!r} at column {col}", lineno, col)
        rows.append(row)
        if len(rows) > n:
            raise error(f"more than the declared {n} rows", lineno)
    if shape is None:
        raise error("empty file", 1, located=False)
    # a row of m = 0 values is a blank line, which is skipped like a comment
    if m and len(rows) != n:
        raise error(f"declared {n} rows but found {len(rows)}", len(lines), located=False)
    return np.array(rows).reshape(shape)

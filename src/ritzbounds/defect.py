"""Ritz data, the block splitting of a positive-definite operator along a
test subspace, and the approximation defects.

Given a symmetric positive-definite H and an m-dimensional test subspace
spanned by the orthonormal columns of B, the central objects are

* the Ritz values/vectors of H compressed to the subspace,
* the block-diagonal part ``H_P = P H P + (I-P) H (I-P)`` with P the
  orthogonal projector onto the subspace, kept as its two blocks: the
  Ritz values and the spectrum of the complement block ``W``,
* the scaled coupling block ``K_s`` of ``H_P^{-1/2} (H - H_P) H_P^{-1/2}``,
  taken in an orthonormal basis of the complement in which W is
  represented by ``R R^T`` (see ``p_diagonal_split``),
* the approximation defects ``eta_1 <= ... <= eta_m``: the singular values
  of K_s, padded with zeros.  They vanish exactly when the subspace is
  invariant, are dimensionless, and are invariant under scaling H -> c H.

Two routes compute the defects from one sorted Cholesky factor of H, and
neither forms W: the singular values of the block (``etas_schur``), from
products with the factor, and the eigenvalues of the inverse-moment pencil
``Omega c = eta^2 Psi c`` (``etas_residual``), from one solve with it; the
report and ``verify`` cross-check the two.  For Ritz vectors ``Psi = M^-1
+ Omega``, ``M = diag(mu)``, and ``Z^T Z = M^{1/2} Omega M^{1/2}`` for Z,
the residual block ``H U - U M`` solved by ``_scaled_residual``, so the
squared defects are ``s^2 / (1 + s^2)`` for the singular values s of Z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .densela import (
    SymmetricMatrix,
    _inv_upper,
    _lapack,
    _solve_upper,
    as_symmetric,
    cholesky_lower,
    singular_values,
    solve_lower,
    sorted_cholesky,
    sym_eig,
    sym_eigvals,
)
from .errors import NotPositiveDefiniteError, SingularOperatorError

#: Relative invertibility floor for resolvent-type factors (smallest
#: singular value against spectral norm).
INVERTIBILITY_RTOL = 1e-12

#: ``_lowest_eigenvalues`` reads the eigenvalues of H from the split's
#: inverse Gram only when those it returns lie within this factor of the
#: smallest, ``lambda_k <= SPREAD lambda_1``, where ``eigvalsh`` keeps
#: about ``eps lambda_k/lambda_1`` relative accuracy; else it takes dqds.
SPREAD = 64.0

#: ``TestSubspace.from_columns`` warns when orthonormalization moves an
#: entry of the spanning columns by more than this.
ORTHONORMALIZATION_WARN = 1e-8


def _check_shape(basis: np.ndarray) -> None:
    if basis.ndim != 2:
        raise ValueError(f"basis must be a 2-d array, got ndim={basis.ndim}")
    n, m = basis.shape
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= dim < ambient dim, got basis shape {basis.shape}")


@dataclass(frozen=True)
class TestSubspace:
    """Orthonormal basis of the trial space, shape (n, m) with 1 <= m < n."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        _check_shape(b)
        if not np.isfinite(b).all():
            raise ValueError("basis entries must be finite (found nan or inf)")
        gram_defect = np.max(np.abs(b.T @ b - np.eye(b.shape[1])))
        if gram_defect > 1e-12:
            raise ValueError(
                f"basis columns are not orthonormal: max |B^T B - I| = {gram_defect:.3e}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_columns(cls, columns) -> "TestSubspace":
        """Build a subspace from possibly non-orthonormal spanning columns.

        Columns are orthonormalized by QR; a warning is emitted when the
        adjustment exceeds ``ORTHONORMALIZATION_WARN``.
        """
        c = np.asarray(columns, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        _check_shape(c)
        q, r = np.linalg.qr(c)
        if np.min(np.abs(np.diag(r))) <= 1e-12 * max(np.max(np.abs(r)), 1e-300):
            raise ValueError("spanning columns are numerically rank deficient")
        q = q * np.sign(np.diag(r))
        adjustment = np.max(np.abs(q - c))
        if adjustment > ORTHONORMALIZATION_WARN:
            warnings.warn(
                f"subspace basis adjusted by {adjustment:.3e} during "
                f"orthonormalization",
                stacklevel=2,
            )
        return cls(q)


@dataclass(frozen=True)
class RitzData:
    """Ritz values (ascending) and Ritz vectors.

    The vectors diagonalize the Rayleigh quotient: in their basis it is
    ``Xi = diag(mu)``.
    """

    mu: np.ndarray
    vectors: np.ndarray

    @property
    def m(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class DefectSpectrum:
    """Approximation defects eta_1 <= ... <= eta_m and the route used."""

    etas: np.ndarray
    route: str

    def __post_init__(self):
        e = np.array(self.etas, dtype=float)
        if e.ndim != 1:
            raise ValueError("etas must be a 1-d array")
        if e.size and (np.any(np.diff(e) < 0) or e[0] < 0):
            raise ValueError("etas must be nonnegative and ascending")
        if e.size and e[-1] >= 1.0:
            raise ValueError(
                f"largest defect {e[-1]:.6e} >= 1; the split operator is not "
                f"positive definite"
            )
        e.setflags(write=False)
        object.__setattr__(self, "etas", e)

    @property
    def m(self) -> int:
        return len(self.etas)

    @property
    def eta_max(self) -> float:
        return float(self.etas[-1]) if self.etas.size else 0.0

    def sum_squares(self) -> float:
        return float((self.etas**2).sum())


@dataclass(frozen=True)
class SplitOperator:
    """Block data of H in the adapted basis (Ritz vectors, completion).

    The block-diagonal part is diag(Xi, W) with ``Xi = diag(mu)`` from
    ``ritz``, the Ritz data the basis starts with, and W the complement
    block ``V^T H V``.  ``k_s`` is the (n-m) x m coupling block of the
    scaled defect operator in an orthonormal basis of the complement in
    which W is ``R11 R11^T``; its nonzero singular values are the nonzero
    approximation defects.  ``inv_gram`` is the inverse Gram ``S = X^T X``
    of the triangular inverse ``X = R^-1`` of the split's n x n QR factor
    R (see ``p_diagonal_split``): its eigenvalues are ``1/lambda_j``, and
    its leading (n-m) x (n-m) block ``S11 = X11^T X11`` is ``W^-1`` in
    the column basis of R11.  ``s11_values`` holds every eigenvalue
    ``theta_j = 1/w_j`` of S11, descending, and the ``w_values`` property
    every eigenvalue ``w_j`` of W, ascending; ``eigvalsh`` gives each
    ``w_j`` to about ``n eps w_j/w_1`` relative.  ``residual`` is the
    block ``H U - U Xi`` and ``h_factor`` H's ``sorted_cholesky``.
    """

    k_s: np.ndarray
    residual: np.ndarray
    ritz: RitzData
    s11_values: np.ndarray = field(repr=False)
    inv_gram: np.ndarray = field(repr=False)
    h_factor: tuple = field(repr=False)

    @property
    def w_values(self) -> np.ndarray:
        return 1.0 / self.s11_values

    @property
    def mu(self) -> np.ndarray:
        return self.ritz.mu

    @property
    def m(self) -> int:
        return len(self.mu)


def orthonormal_completion(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column span."""
    n, m = basis.shape
    q_full, _ = np.linalg.qr(basis, mode="complete")
    comp = q_full[:, m:]
    # QR may flip the leading block's signs; the complement is unaffected,
    # but guard against loss of orthogonality to the input columns
    defect = np.max(np.abs(basis.T @ comp)) if comp.size else 0.0
    if defect > 1e-12:
        raise ValueError(f"completion failed, max |B^T C| = {defect:.3e}")
    return comp


def ritz(h, subspace: TestSubspace) -> RitzData:
    """Ritz values and vectors of H from the test subspace.

    Solves the m x m compression ``B^T H B``; the returned vectors span the
    same subspace but diagonalize the Rayleigh quotient.
    """
    hm = as_symmetric(h)
    b = subspace.basis
    if hm.n != subspace.ambient_dim:
        raise ValueError("operator and subspace dimensions differ")
    compressed = b.T @ hm.entries @ b
    mu, y = sym_eig(0.5 * (compressed + compressed.T))
    if mu.size and mu[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"operator is not positive definite on the test subspace: "
            f"smallest Ritz value {mu[0]:.6e}",
            eigenvalue=mu[0],
        )
    vectors = b @ y
    return RitzData(mu=mu, vectors=vectors)


def p_diagonal_split(h, subspace: TestSubspace) -> SplitOperator:
    """Block splitting of H along the subspace, with the scaled coupling.

    In the adapted orthonormal basis (Ritz vectors U, completion V) the
    block-diagonal part is diag(Xi, W), and ``K_s = W^{-1/2} V^T (H U - U
    Xi) Xi^{-1/2}``.  With ``P^T H P = L L^T``, ``G = L^T P^T V`` and the
    Householder QR ``[G[:, cols], L^T P^T U] = Q R`` with G's columns
    sorted by decreasing norm, ``W = G^T G``, the leading block R11 of R
    is the R factor of ``G[:, cols]``, and its upper right block divided
    by ``Xi^{1/2}`` is ``K_s`` in the orthonormal basis of range(G) in
    which W is ``R11 R11^T``.  The column order is the one column
    pivoting starts from in Cox and Higham's row-wise error analysis of
    Householder QR.  Since ``R^T R = [V[:, cols], U]^T H [V[:, cols], U]``,
    the inverse Gram ``S = X^T X`` of ``X = R^-1`` (``_inv_upper``) has
    the eigenvalues ``1/lambda_j`` of H^-1, and its leading block
    ``X11^T X11`` has those of ``W^-1``, kept as ``s11_values``.
    """
    hm = as_symmetric(h)
    rd = ritz(hm, subspace)
    u = rd.vectors
    perm, ell = h_factor = sorted_cholesky(hm, what="operator")
    g = ell.T @ orthonormal_completion(u)[perm]
    cols = np.argsort(-np.einsum("ij,ij->j", g, g), kind="stable")
    # the R factor of [G[:, cols], L^T P^T U] holds R11 and Q^T L^T P^T U
    # without forming Q
    r = np.linalg.qr(np.hstack([g[:, cols], ell.T @ u[perm]]), mode="r")
    del g  # n (n-m) floats fewer held through the triangular inverse
    k = r.shape[0] - rd.m
    x = _inv_upper(r)
    s = x.T @ x
    return SplitOperator(
        k_s=r[:k, k:] / np.sqrt(rd.mu), residual=hm.entries @ u - u * rd.mu, ritz=rd,
        s11_values=_lapack(np.linalg.eigvalsh, s[:k, :k])[::-1], inv_gram=s, h_factor=h_factor,
    )


def _lowest_eigenvalues(split: SplitOperator, count: int) -> np.ndarray:
    """The ``min(n, count)`` smallest eigenvalues of H, ascending.

    They are ``1/eigvalsh(S)`` of the split's inverse Gram when they lie
    within ``SPREAD`` of ``lambda_1`` and no two of them tie within their
    error bounds; else all n values are ``sigma(L)^2`` from LAPACK's
    values-only SVD of H's Cholesky factor (dqds), the values
    ``sym_eig(H)`` returns.
    """
    n = len(split.inv_gram)
    inv = _lapack(np.linalg.eigvalsh, split.inv_gram)[::-1][: min(n, count)]
    if inv[-1] * SPREAD >= inv[0]:
        values = 1.0 / inv
        # eigvalsh errs by about n eps times the largest eigenvalue
        # 1/lambda_1 of S, which is n eps lambda_k/lambda_1 relative
        error = n * np.finfo(float).eps * values**2 / values[0]
        if np.all(np.diff(values) > error[1:] + error[:-1]):
            return values
    return singular_values(split.h_factor[1])[::-1] ** 2


def etas_schur(split: SplitOperator) -> DefectSpectrum:
    """Defects as singular values of the scaled coupling block.

    Zero-padded up to m when the block has fewer nonzero singular values.
    """
    s = singular_values(split.k_s)
    etas = np.zeros(split.m)
    etas[split.m - len(s) :] = np.sort(s)
    return DefectSpectrum(etas=etas, route="schur_block")


def etas_residual(split: SplitOperator):
    """Moment-route ``(defects, dl, ratios)`` from one solve ``Z = L^-1 P^T R
    M^{-1/2}``: ``s/sqrt(1 + s^2)`` and ``dl = max s^2`` for Z's singular
    values s, and the residual quotients ``mu_i Omega_ii``, Z's squared
    column norms.  ``etas_moments`` and ``dl_measure`` are the pencil form."""
    z = _scaled_residual(split.h_factor, split.residual, split.mu)
    s = singular_values(z)[::-1]
    return DefectSpectrum(s / np.sqrt(1.0 + s * s), "moments"), float(s[-1] ** 2), np.einsum("ij,ij->j", z, z)


def moment_matrices(h, rd: RitzData):
    """Inverse-moment matrix Psi and the Galerkin-error Gram matrix Omega.

    ``Psi[i, j] = (u_i, H^{-1} u_j)`` and ``Omega = M^-1 R^T H^-1 R M^-1``,
    from the residuals ``R = H U - U M``, ``M = diag(mu)``.  For Ritz
    vectors ``Psi = M^-1 + Omega``, and both come from ``Z^T Z = M^{1/2}
    Omega M^{1/2}`` (``_scaled_residual``): Omega is positive semidefinite
    by construction, and nothing cancels once the subspace is nearly
    invariant.  The quadruple-product definition is kept as a test oracle.
    """
    hm = as_symmetric(h)
    u = rd.vectors
    z = _scaled_residual(sorted_cholesky(hm, what="operator"), hm.entries @ u - u * rd.mu, rd.mu)
    omega = SymmetricMatrix(z.T @ z / np.sqrt(np.outer(rd.mu, rd.mu)))
    return SymmetricMatrix(np.diag(1.0 / rd.mu) + omega.entries), omega


def _scaled_residual(h_factor, residual: np.ndarray, mu) -> np.ndarray:
    """``Z = L^-1 P^T R M^{-1/2}`` from H's ``sorted_cholesky`` ``(perm, L)``,
    the residual block R and the Ritz values mu."""
    perm, ell = h_factor
    # L z = b is the upper triangular system of the flipped factor
    return _solve_upper(ell[::-1, ::-1], (residual[perm] / np.sqrt(mu))[::-1])[::-1]


def etas_moments(psi, omega) -> DefectSpectrum:
    """Defects from the moment pencil: eta_i^2 solves Omega c = eta^2 Psi c.

    With ``Psi = L L^T`` the squares are the eigenvalues of ``L^-1 Omega
    L^-T``, from ``sym_eigvals``.
    """
    psi, omega = as_symmetric(psi), as_symmetric(omega)
    try:
        ell = cholesky_lower(psi, what="Psi")
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError(
            f"inverse-moment matrix is not positive definite (rank-deficient "
            f"test subspace?): {err}",
            pivot_index=err.pivot_index,
        ) from err
    c = solve_lower(ell, solve_lower(ell, omega.entries).T)
    squares = sym_eigvals(0.5 * (c + c.T))
    if squares.size and squares[0] < -1e-6:
        raise ValueError(
            f"moment pencil produced eigenvalue {squares[0]:.3e} far below "
            f"zero; inputs are inconsistent"
        )
    squares = np.clip(squares, 0.0, None)
    return DefectSpectrum(etas=np.sqrt(squares), route="moments")


def dl_measure(psi, mu) -> float:
    """Spectral norm of the scaled deviation diag(sqrt(mu)) (Psi - D) diag(sqrt(mu))."""
    psi = as_symmetric(psi)
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise ValueError("Ritz values must be positive")
    root = np.sqrt(mu)
    scaled = root[:, None] * (psi.entries - np.diag(1.0 / mu)) * root[None, :]
    values = _lapack(np.linalg.eigvalsh, 0.5 * (scaled + scaled.T))
    return float(np.max(np.abs(values))) if values.size else 0.0


def wilkinson_schur(a, x, b) -> SymmetricMatrix:
    """Schur complement A - X B^{-1} X^T of a symmetric 2x2 block matrix.

    B must be invertible but may be indefinite.  When the block matrix
    [[A, X], [X^T, B]] has a null space of dimension equal to the order of
    A, the complement vanishes.
    """
    am = as_symmetric(a)
    bm = as_symmetric(b)
    x = np.asarray(x, dtype=float)
    if x.shape != (am.n, bm.n):
        raise ValueError(
            f"coupling block must be {am.n} x {bm.n}, got {x.shape}"
        )
    b_values, b_vectors = sym_eig(bm)
    if bm.n:
        b_norm = np.max(np.abs(b_values))
        smallest = np.min(np.abs(b_values))
        if smallest <= INVERTIBILITY_RTOL * max(b_norm, 1e-300):
            raise SingularOperatorError(
                f"B block is numerically singular: smallest |eigenvalue| = "
                f"{smallest:.6e}",
                smallest_magnitude=smallest,
            )
    b_inv_xt = (b_vectors / b_values) @ (b_vectors.T @ x.T)
    s = am.entries - x @ b_inv_xt
    return SymmetricMatrix(0.5 * (s + s.T))


def _resolvent_term(split: SplitOperator, lambda_q: float) -> np.ndarray:
    """``lambda_q K_s^T (W - lambda_q)^{-1} K_s``.

    In the basis of ``k_s`` W is ``R11 R11^T``; with ``X11 = R11^-1`` the
    term is ``lambda_q K_s^T X11^T (I - lambda_q X11 X11^T)^-1 X11 K_s``,
    and by push-through ``lambda_q K_s^T (I - lambda_q S11)^-1 S11 K_s``
    with the leading block ``S11 = X11^T X11`` of the split's inverse
    Gram, whose eigenvalues are the ``s11_values`` ``theta_j = 1/w_j``.
    Forming ``R11 R11^T - lambda_q`` instead cancels on graded H.  A
    lambda_q that collides with spec(W), where the smallest ``|1 -
    lambda_q theta|`` over every theta falls to ``INVERTIBILITY_RTOL``
    times the largest, raises ``SingularOperatorError``.
    """
    factors = np.abs(1.0 - lambda_q * split.s11_values)
    smallest = factors.min()
    if smallest <= INVERTIBILITY_RTOL * max(factors.max(), 1e-300):
        raise SingularOperatorError(
            f"reference value {lambda_q!r} collides with the complement "
            f"spectrum: smallest |1 - lambda/w| = {smallest:.6e}",
            smallest_magnitude=smallest,
        )
    k = len(split.k_s)
    s11 = split.inv_gram[:k, :k]
    return lambda_q * (split.k_s.T @ np.linalg.solve(np.eye(k) - lambda_q * s11, s11 @ split.k_s))


def relative_residual_identity(split: SplitOperator, rd: RitzData, lambda_q: float):
    """Both sides of the exact relative block-residual identity.

    Returns ``(lhs, rhs, defect)`` with ``lhs = I - lambda_q Xi^{-1}``,
    ``rhs = K_s^T (I - lambda_q W^{-1})^{-1} K_s``, evaluated as ``K_s^T
    K_s + lambda_q K_s^T (W - lambda_q)^{-1} K_s`` (``_resolvent_term``),
    and the Frobenius norm of their difference.  When lambda_q is an
    eigenvalue of H whose multiplicity equals the subspace dimension, the
    identity is exact and the defect is at rounding level.
    """
    lam = float(lambda_q)
    lhs = np.eye(split.m) - lam * np.diag(1.0 / rd.mu)
    rhs = split.k_s.T @ split.k_s + _resolvent_term(split, lam)
    rhs = 0.5 * (rhs + rhs.T)
    defect = float(np.sqrt(((lhs - rhs) ** 2).sum()))
    return SymmetricMatrix(lhs), SymmetricMatrix(rhs), defect

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

This module measures and ``ritzbounds.bounds`` bounds: ``measure`` takes
every number a report reads of H and the subspace into a small, read-only
``Measurements`` record, which ``bounds.assemble`` turns into the report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .densela import (
    NormKind,
    SymmetricMatrix,
    _EPS,
    _inv_upper,
    _lapack,
    _solve_upper,
    _sym_eig,
    as_symmetric,
    gen_sym_eig,
    singular_values,
    sorted_cholesky,
    sym_eig,
    ui_norm,
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


def _read_only(a) -> np.ndarray:
    """``a`` when it is read-only, else a read-only view of it, so that an
    array a caller passes in keeps its flags; the library's own arrays are
    marked read-only in place where they are built."""
    a = np.asarray(a)
    if a.flags.writeable:
        a = a.view()
        a.setflags(write=False)
    return a


def _freeze(record, *names) -> None:
    """Store the named array fields of a frozen record ``_read_only``."""
    for name in names:
        object.__setattr__(record, name, _read_only(getattr(record, name)))


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

    def __post_init__(self):
        _freeze(self, "mu", "vectors")


@dataclass(frozen=True)
class DefectSpectrum:
    """Approximation defects eta_1 <= ... <= eta_m and the route used."""

    etas: np.ndarray
    route: str

    def __post_init__(self):
        e = np.array(self.etas, dtype=float)
        if e.ndim != 1:
            raise ValueError("etas must be a 1-d array")
        if e.size and ((e[1:] < e[:-1]).any() or e[0] < 0):
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

    def __post_init__(self):
        _freeze(self, "k_s", "residual", "s11_values", "inv_gram")
        object.__setattr__(self, "h_factor", tuple(map(_read_only, self.h_factor)))

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
    q_full, _ = np.linalg.qr(basis, mode="complete")
    return q_full[:, basis.shape[1]:]


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
    # symmetrized here once, so sym_eig's admission is skipped
    compressed = 0.5 * (compressed + compressed.T)
    if not np.isfinite(compressed).all():
        raise ValueError("matrix entries must be finite (found nan or inf)")
    mu, y = _sym_eig(compressed)
    if mu.size and mu[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"operator is not positive definite on the test subspace: "
            f"smallest Ritz value {mu[0]:.6e}",
            eigenvalue=mu[0],
        )
    vectors = b @ y
    for a in (mu, vectors):
        a.setflags(write=False)
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
    n, k = g.shape
    cols = (-np.einsum("ij,ij->j", g, g)).argsort(kind="stable")
    # the R factor of [G[:, cols], L^T P^T U] holds R11 and Q^T L^T P^T U
    # without forming Q.  G's columns are gathered 64 rows at a time, so no
    # n x k copy of G is made, and each n x n array is freed after its last
    # read: beside L, the QR holds only its input, numpy's copy of it and R.
    a = np.empty((n, n))
    for lo in range(0, n, 64):
        a[lo : lo + 64, :k] = g[lo : lo + 64, cols]
    del g
    a[:, k:] = ell.T @ u[perm]
    r = np.linalg.qr(a, mode="r")
    del a
    k_s = r[:k, k:] / np.sqrt(rd.mu)
    x = _inv_upper(r)
    del r
    s = x.T @ x
    del x
    residual = hm.entries @ u - u * rd.mu
    s11_values = _lapack(np.linalg.eigvalsh, s[:k, :k])[::-1]
    for a in (k_s, residual, s11_values, s, *h_factor):
        a.setflags(write=False)
    return SplitOperator(
        k_s=k_s, residual=residual, ritz=rd, s11_values=s11_values, inv_gram=s, h_factor=h_factor,
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
        error = n * _EPS * values**2 / values[0]
        if np.all(np.diff(values) > error[1:] + error[:-1]):
            return values
    return singular_values(split.h_factor[1])[::-1] ** 2


def etas_schur(split: SplitOperator) -> DefectSpectrum:
    """Defects as singular values of the scaled coupling block.

    Zero-padded up to m when the block has fewer nonzero singular values.
    """
    s = singular_values(split.k_s)
    etas = np.zeros(split.m)
    etas[split.m - len(s) :] = s[::-1]
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

    The squares are the eigenvalues of the pencil from ``gen_sym_eig(Omega,
    Psi)``, the library's one pencil solver.
    """
    try:
        squares = gen_sym_eig(omega, psi)[0]
    except NotPositiveDefiniteError as err:
        raise NotPositiveDefiniteError(
            f"inverse-moment matrix is not positive definite (rank-deficient "
            f"test subspace?): {err}",
            pivot_index=err.pivot_index,
        ) from err
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
    # I - lambda_q S11 in one array: 0 - lambda_q S11 keeps the identity's
    # +0.0 off the diagonal, and 1 + (-y) is 1 - y
    a = np.multiply(s11, lambda_q)
    np.subtract(0.0, a, out=a)
    a.flat[:: k + 1] += 1.0
    return lambda_q * (split.k_s.T @ np.linalg.solve(a, s11 @ split.k_s))


def exactness_ratio(split: SplitOperator, lambda_q: float) -> float:
    """Ratio of the true error aggregate to the defect aggregate.

    Evaluates ``1 + tr(lambda_q K_s^T (W - lambda_q)^{-1} K_s) / sum
    eta_i^2``, which equals ``[sum_i (mu_i - lambda_q)/mu_i] / [sum
    eta_i^2]`` when lambda_q is the exact cluster eigenvalue of full
    multiplicity.  The correction term comes from the leading block
    ``S11``, W^-1 in a basis of the complement, of the split's inverse
    Gram (see ``_resolvent_term``).  Tends to 1 as the complement block
    grows away from lambda_q.
    """
    lam = float(lambda_q)
    sum_sq = float((split.k_s**2).sum())
    if sum_sq <= 1e-28:
        # defects at rounding level: the subspace is invariant for all
        # practical purposes and the quotient is pure noise
        raise SingularOperatorError(
            "exactness ratio is undefined for an invariant subspace "
            "(zero defect)"
        )
    correction = float(_resolvent_term(split, lam).trace())
    return 1.0 + correction / sum_sq


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


@dataclass(frozen=True)
class Measurements:
    """What a report reads of H and the subspace, O(m + q) numbers that
    ``measure`` takes for ``bounds.assemble``.  ``lambda_ref`` is
    ``lambda_1..lambda_min(n, q+m+1)``, ``w_values`` the q smallest
    eigenvalues of W, ``mu_1_rounding`` ``n eps |u_1|^T |H| |u_1|``, the
    a-priori rounding bound of ``mu_1 = u_1^T H u_1``, ``r_spectral`` the
    spectral norm of ``R = H U - U M``, and ``r0_squares`` and
    ``r_squares`` the squared sums of its column 0 and of all of it.
    """

    n: int
    q: int
    mu: np.ndarray
    schur: DefectSpectrum
    moments: DefectSpectrum
    dl: float
    ratios: np.ndarray
    lambda_ref: np.ndarray
    w_values: np.ndarray
    mu_1_rounding: float
    r0_squares: float
    r_spectral: float
    r_squares: float
    exactness_ratio: float | None

    def __post_init__(self):
        _freeze(self, "mu", "ratios", "lambda_ref", "w_values")


def measure(h, subspace: TestSubspace, lambda_ref, q: int) -> Measurements:
    """Every step of a report that reads H, the basis or an n-sized array:
    the split, both defect routes, the ``min(n, q+m+1)`` lowest reference
    values unless ``lambda_ref`` supplies them (``_lowest_eigenvalues``),
    ``w_1..w_q``, which by interlacing (``w_q >= lambda_q``) hold the w
    nearest lambda_q and lambda_1 in relative distance, and the exactness
    ratio at lambda_q.  ``bounds.build_report`` checks the arguments.
    """
    hm = as_symmetric(h)
    split = p_diagonal_split(hm, subspace)
    schur = etas_schur(split)
    moments, dl, ratios = etas_residual(split)
    if lambda_ref is None:
        lambda_ref = _lowest_eigenvalues(split, q + split.m + 1)
    try:
        exact_ratio = exactness_ratio(split, float(lambda_ref[q - 1]))
    except SingularOperatorError:
        exact_ratio = None
    u_1, r = np.abs(split.ritz.vectors[:, 0]), split.residual
    lambda_ref, w_values = lambda_ref[: q + split.m + 1].copy(), 1.0 / split.s11_values[:q]
    for a in (ratios, lambda_ref, w_values):
        a.setflags(write=False)
    return Measurements(
        n=hm.n, q=q, mu=split.mu, schur=schur, moments=moments, dl=dl, ratios=ratios,
        lambda_ref=lambda_ref, w_values=w_values,
        mu_1_rounding=hm.n * _EPS * float(u_1 @ np.abs(hm.entries) @ u_1),
        r0_squares=float(r[:, 0] @ r[:, 0]), r_spectral=ui_norm(r, NormKind.SPECTRAL),
        r_squares=float((r * r).sum()), exactness_ratio=exact_ratio,
    )

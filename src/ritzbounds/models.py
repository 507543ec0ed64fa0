"""Exactly analyzable model problems with closed-form reference values.

Three generators exercise the bound machinery end to end:

* the 3x3 coupling family ``diag(1/101, 1/100, 1 + kappa^2)`` with a
  -1/101 corner coupling, whose Ritz data for the first coordinate vector
  has closed forms (``hkappa_reference``); ``kappa_row`` sets them beside
  the computed defect and the true relative error, the row ``kappa-demo``
  prints and ``verify``'s kappa checks read,
* the half-line Schroedinger operator ``-d^2/dx^2 + kappa^2`` on
  ``[1, inf)`` with a Dirichlet wall at 0, whose bound-state energies
  solve a one-line transcendental equation and admit a convergent
  large-coupling expansion,
* the anti-periodic problem ``-psi'' - alpha psi`` on ``[0, 2 pi]`` with
  ``-psi(0) = psi(2 pi)``, whose eigenvalues ``(k + 1/2)^2 - alpha`` and
  inverse moments are exactly available, discretized with P1 finite
  elements on a uniform mesh.

The periodic model is the source of the mesh-refinement reference table:
``table1_row`` returns the defect aggregate, the true relative-error
aggregate, and the quadratic cluster bound for the two nearly singular
lowest modes at ``alpha = 0.2499``.  Those modes and their value come in
closed form (``fem_ritz``), and their inverse moments are multiples of
the identity given by two scalar sums over the aliases ``1/2 + jN`` of
their frequency (``periodic_moment_matrix``), exact to rounding at every
admitted N.  Those sums cancel as alpha falls, so the model admits alpha
in ``[ALPHA_MIN, 1/4)``.  ``fem_assemble`` keeps the dense pencil as the
reference the tests solve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import cluster_upper_bound
from .defect import RitzData, TestSubspace, etas_moments, etas_schur, p_diagonal_split
from .densela import SymmetricMatrix, sym_eigvals, values_norm
from .errors import HypothesisError

PI = math.pi


# ---------------------------------------------------------------------------
# 3x3 coupling family
# ---------------------------------------------------------------------------


class KappaReference(NamedTuple):
    res_norm: float
    eta: float


def _check_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")


def hkappa_matrix(kappa: float) -> SymmetricMatrix:
    """The 3x3 family member; positive definite for every kappa > 0."""
    _check_kappa(kappa)
    return SymmetricMatrix(
        np.array(
            [
                [1 / 101, 0.0, -1 / 101],
                [0.0, 1 / 100, 0.0],
                [-1 / 101, 0.0, 1.0 + kappa * kappa],
            ]
        )
    )


def hkappa_reference(kappa: float) -> KappaReference:
    """Closed-form residual norm and defect for the first coordinate vector.

    The residual of ``e_1`` (Rayleigh quotient 1/101) keeps norm 1/101 for
    every kappa, while the approximation defect decays like 1/kappa:

        eta(kappa)^2 = (1/101) / (1 + kappa^2).

    The defect form follows from the rank-one coupling: the scaled block
    has the single entry ``(-1/101) / sqrt((1/101)(1 + kappa^2))``.  It is
    consistent with the exact expansion of the relative eigenvalue error,
    ``(mu - lambda_1)/mu = 1/(101 kappa^2) + O(kappa^-4)``, whose quotient
    with eta^2 tends to one.  eta is evaluated as ``1/(sqrt(101) hypot(1,
    kappa))``, which does not overflow where ``1 + kappa^2`` is finite.
    """
    _check_kappa(kappa)
    return KappaReference(
        res_norm=1 / 101,
        eta=1.0 / (math.sqrt(101.0) * math.hypot(1.0, kappa)),
    )


class KappaRow(NamedTuple):
    kappa: float
    res_norm: float
    eta: float
    eta_computed: float
    rel_error: float
    ratio: float


def kappa_row(kappa: float) -> KappaRow:
    """``kappa-demo``'s row: ``hkappa_reference``'s closed forms, the
    Schur-route defect ``eta_computed`` of the split along ``e_1``, the
    true ``rel_error = (mu - lambda_1)/mu`` at mu = 1/101 and ``ratio =
    rel_error / eta_computed^2``.  The secular equation ``(mu - lambda)(1 +
    kappa^2 - lambda) = mu^2`` gives ``rel_error = mu/(1 + kappa^2 -
    lambda_1)``, which subtracts nothing small, and ``ratio - 1 =
    lambda_1/(1 + kappa^2 - lambda_1)``, about 0.0099/kappa^2.
    """
    h = hkappa_matrix(kappa)
    ref = hkappa_reference(kappa)
    eta_computed = etas_schur(p_diagonal_split(h, TestSubspace(np.eye(3)[:, :1]))).eta_max
    rel_error = (1 / 101) / (1.0 + kappa * kappa - sym_eigvals(h)[0])
    # dividing by eta twice keeps eta^2 from underflowing
    return KappaRow(kappa, ref.res_norm, ref.eta, eta_computed, rel_error, rel_error / eta_computed / eta_computed)


# ---------------------------------------------------------------------------
# Large-coupling Schroedinger model
# ---------------------------------------------------------------------------


def _matching_offset(kappa: float, q: int) -> float:
    """``delta = q pi - sqrt(lambda_q)`` from the matching equation.

    With ``s = q pi - delta`` the equation ``sqrt(kappa^2 - s^2) = -s
    cot(s)`` reads ``sqrt((kappa - s)(kappa + s)) tan(delta) = s``, whose
    left side less its right increases on ``delta in (0, pi/2)``.  The
    tangent is taken of delta itself, never of s near q pi, so delta keeps
    full relative accuracy; the root sits near ``q pi / kappa``, and
    bisection takes geometric steps while the bracket spans more than a
    factor 2, then halves it until its ends are adjacent doubles.
    """
    _check_kappa(kappa)
    if q < 1:
        raise ValueError(f"mode index must be >= 1, got {q}")
    if not kappa > q * PI:
        raise HypothesisError(
            f"mode q={q} is not resolvable at kappa={kappa}: the matching "
            f"root requires kappa > {q * PI:.6f}"
        )

    def mismatch(delta: float) -> float:
        s = q * PI - delta
        return math.sqrt(kappa - s) * math.sqrt(kappa + s) * math.tan(delta) - s

    # at the root tan(delta) > (q - 1/2) pi / kappa, which is below 1, and
    # atan(x) > x/2 there, so the lower end has a negative mismatch
    lo, hi = 0.5 * (q - 0.5) * PI / kappa, 0.5 * PI
    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mismatch(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def schrodinger_lambda(kappa: float, q: int = 1) -> float:
    """q-th bound-state energy ``(q pi - delta)^2`` from the matching
    equation, with delta from ``_matching_offset``; needs kappa > q pi."""
    s = q * PI - _matching_offset(kappa, q)
    return s * s


def schrodinger_drop(kappa: float) -> float:
    """Relative energy drop ``(pi^2 - lambda_1) / pi^2 = delta (2 pi -
    delta) / pi^2`` of the lowest mode, free of the cancellation that
    subtracting lambda_1 from pi^2 would cost at large kappa."""
    delta = _matching_offset(kappa, 1)
    return delta * (2.0 * PI - delta) / PI**2


def schrodinger_taylor(kappa: float) -> float:
    """Four-term large-coupling expansion of the relative energy drop.

    ``(lambda^inf_1 - lambda^kappa_1) / lambda^inf_1`` expanded about
    kappa = infinity, evaluated in powers of 1/kappa; the neglected
    remainder is O(kappa^-5) with a coefficient near 70.
    """
    _check_kappa(kappa)
    c3 = 8.0 * (0.5 + PI**2 / 24.0)
    c4 = 10.0 * (0.5 + 4.0 * PI**2 / 24.0)
    return (((c3 - c4 / kappa) / kappa - 3.0) / kappa + 2.0) / kappa


def schrodinger_eta2(kappa: float) -> float:
    """Squared defect 2 / (3 + kappa) of the sine test function.

    The test function is sqrt(2) sin(pi x) on [0, 1], extended by zero;
    its Rayleigh quotient is pi^2 and the inverse moment evaluates to
    (kappa + 3) / (pi^2 (kappa + 1)), which collapses the defect quotient
    to 2 / (3 + kappa).
    """
    _check_kappa(kappa)
    return 2.0 / (3.0 + kappa)


def _inverse_quadratic_form(diag, off: float, rhs) -> float:
    """``rhs^T T^-1 rhs`` for the symmetric tridiagonal T with diagonal
    ``diag`` and every off-diagonal entry equal to ``off``.

    One forward sweep of ``T = L D L^T``: the pivots ``p_i = d_i -
    off^2 / p_(i-1)`` and ``y = L^-1 rhs``, ``y_i = rhs_i - (off /
    p_(i-1)) y_(i-1)``, give ``y^T D^-1 y = sum y_i^2 / p_i``.  On the
    positive definite matrices it is used on every pivot is positive, so
    no term of the sum cancels.
    """
    # a memoryview of a float64 array yields Python floats one at a time,
    # without the two lists ``tolist`` would build
    diag, rhs = (memoryview(np.ascontiguousarray(a, dtype=float)) for a in (diag, rhs))
    pivot, y, total = math.inf, 0.0, 0.0
    for d, r in zip(diag, rhs):
        ratio = off / pivot
        pivot = d - off * ratio
        y = r - ratio * y
        total += y * y / pivot
    return total


def schrodinger_eta2_fd(kappa: float, length: float = 10.0, nodes: int = 20000) -> float:
    """Finite-difference oracle for the squared defect of the sine vector.

    Central differences on [0, length] with a homogeneous Dirichlet
    truncation; the domain truncation error is exponentially small in
    kappa (length - 1) and the discretization error is O(h^2).  Evaluates
    ``((psi, H^{-1} psi) - 1/mu) / (psi, H^{-1} psi)`` with mu = pi^2, the
    moment ``(psi, H^{-1} psi)`` from one forward sweep over the nodes
    (``_inverse_quadratic_form``).
    """
    _check_kappa(kappa)
    if not length >= 2.0:
        raise ValueError("truncated domain must extend past the potential step")
    if nodes < 100:
        raise ValueError("need at least 100 grid nodes")
    if not length < nodes:
        raise ValueError("the grid step length/nodes must be below 1 to place nodes in [0, 1]")
    h = length / nodes
    x = h * np.arange(1, nodes)
    psi = np.where(x <= 1.0, np.sqrt(2.0) * np.sin(PI * x), 0.0)
    kappa2 = kappa * kappa
    potential = np.where(x >= 1.0, kappa2, 0.0)
    # half weight where a node sits exactly on the potential jump keeps
    # the scheme second order
    on_jump = np.abs(x - 1.0) <= 0.25 * h
    potential[on_jump] = 0.5 * kappa2
    moment = h * _inverse_quadratic_form(2.0 / h**2 + potential, -1.0 / h**2, psi)
    return (moment - 1.0 / PI**2) / moment


def schrodinger_bounds(kappa: float):
    """Two-sided estimate for the relative energy drop of the lowest mode.

    Returns ``(2/(3+kappa), ((D + pi^2)/(D - pi^2)) * 2/(3+kappa))`` with
    the certified second-eigenvalue lower bound
    ``D(kappa) = (1 - sqrt(2/(3+kappa))) 4 pi^2``; requires kappa >= 5, so
    that ``D >= 2 pi^2``.
    """
    if kappa < 5.0:
        raise HypothesisError(f"the sandwich needs kappa >= 5, got {kappa}")
    eta2 = schrodinger_eta2(kappa)
    d = (1.0 - math.sqrt(eta2)) * 4.0 * PI**2
    return eta2, (d + PI**2) / (d - PI**2) * eta2


# ---------------------------------------------------------------------------
# Anti-periodic model problem and its P1 discretization
# ---------------------------------------------------------------------------

DEFAULT_ALPHA = 0.2499

#: Aliases summed term by term on each side of omega = 1/2 for the
#: O(omega^-4) parts of the periodic moments; the rest is carried by its
#: leading asymptotic term (``periodic_moment_matrix``).
ALIAS_TERMS = 10_000

#: Least shift the periodic model admits: below it the alias sums of
#: ``periodic_moment_matrix`` cancel past 1e-12 (README, model problems).
ALPHA_MIN = -1e4


def periodic_exact(alpha: float, k: int):
    """k-th smallest exact eigenvalue and its integer frequency.

    The eigenvalues are ``(j + 1/2)^2 - alpha`` over integer frequencies j,
    each double (at j and -j-1); ties are broken by frequency, so the k-th
    has ``j = (k-1)//2`` at frequency -j-1 for odd k and j for even k.
    Raises when the requested eigenvalue is not positive.
    """
    if k < 1:
        raise ValueError(f"eigenvalue index must be >= 1, got {k}")
    j = (k - 1) // 2
    lam = float((j + 0.5) ** 2 - alpha)
    if lam <= 0.0:
        raise ValueError(f"eigenvalue {k} is not positive for alpha = {alpha}: {lam}")
    return lam, -j - 1 if k % 2 else j


def fem_assemble(n_mesh: int, alpha: float = DEFAULT_ALPHA):
    """P1 stiffness (with the -alpha mass shift) and consistent mass matrix.

    Uniform mesh of [0, 2 pi] with n_mesh intervals; the anti-periodic
    identification glues the last node to minus the first, which flips the
    sign of the wrap-around couplings.
    """
    if n_mesh < 4:
        raise ValueError(f"mesh count must be >= 4, got {n_mesh}")
    h = 2.0 * PI / n_mesh
    stiff = np.zeros((n_mesh, n_mesh))
    mass = np.zeros((n_mesh, n_mesh))
    for p in range(n_mesh):
        q = (p + 1) % n_mesh
        sign = -1.0 if q < p else 1.0
        stiff[p, p] += 2.0 / h
        mass[p, p] += 2.0 * h / 3.0
        stiff[p, q] += sign * (-1.0 / h)
        stiff[q, p] += sign * (-1.0 / h)
        mass[p, q] += sign * (h / 6.0)
        mass[q, p] += sign * (h / 6.0)
    return (
        SymmetricMatrix(stiff - alpha * mass),
        SymmetricMatrix(mass),
    )


def _check_shift(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha < 0.25):
        raise ValueError(f"alpha must be finite and below 1/4, got alpha = {alpha}")
    if alpha < ALPHA_MIN:
        raise ValueError(
            f"alpha must be at least {ALPHA_MIN:g}, below which the periodic moments "
            f"cancel, got alpha = {alpha}"
        )


def _half_mode(n_mesh: int):
    """``(z, sin z, z - sin z, mu - lambda_1)`` for the lowest discrete pair.

    With ``z = pi/(2 n_mesh)`` and s = sin z, the pair sits
    ``(2 s^2 - 3 (z - s)(z + s)/z^2) / (4 (3 - 2 s^2))`` above lambda_1 for
    every alpha: no cancellation once z - sin z is summed from its series,
    whose eight terms reach rounding level for every n_mesh >= 4.
    """
    if n_mesh < 4:
        raise ValueError(f"mesh count must be >= 4, got {n_mesh}")
    z = PI / (2 * n_mesh)
    s = math.sin(z)
    z_minus_s = sum(
        (-1) ** j * z ** (2 * j + 3) / math.factorial(2 * j + 3) for j in range(7, -1, -1)
    )
    return z, s, z_minus_s, (2 * s * s - 3 * z_minus_s * (z + s) / z**2) / (4 * (3 - 2 * s * s))


def fem_ritz(n_mesh: int, alpha: float = DEFAULT_ALPHA) -> RitzData:
    """The lowest pair of the discretized pencil, in closed form.

    Each frequency omega = k + 1/2 diagonalizes the P1 pencil with the
    double value ``12 sin^2(omega h/2) / (h^2 (2 + cos omega h)) - alpha``.
    At omega = 1/2 the nodal vectors are cos(x_p/2) and sin(x_p/2), of
    squared mass norm pi (2 + cos omega h) / 3; the value is lambda_1 plus
    the distance of ``_half_mode``.
    """
    _check_shift(alpha)
    _, s, _, distance = _half_mode(n_mesh)
    mu = (0.25 - alpha) + distance
    half_nodes = PI * np.arange(n_mesh) / n_mesh
    vectors = np.column_stack([np.cos(half_nodes), np.sin(half_nodes)])
    return RitzData(mu=np.full(2, mu), vectors=vectors / math.sqrt(PI * (1 - 2 * s * s / 3)))


def periodic_moment_matrix(n_mesh: int, alpha: float = DEFAULT_ALPHA):
    """``(Psi, Omega)`` of ``fem_ritz``'s pair, as ``defect.moment_matrices``
    returns them: multiples of I, from sums over the aliases ``omega_j =
    1/2 + j n_mesh`` with ``lambda_j = omega_j^2 - alpha``.

    The pair's Fourier coefficients live on +-omega_j, with the weights
    ``(N sin z)^4 / (pi^4 (1 - 2/3 sin^2 z) omega_j^4)``, so Psi sums
    ``1/(omega_j^4 lambda_j)`` and Omega, in residual form, ``(lambda_j -
    mu)^2 / (omega_j^4 lambda_j mu^2)``, never subtracting 1/mu.  The j = 0
    terms take d = mu - lambda_1 from ``_half_mode``; the 1/omega^2 part of
    Omega's other terms sums to ``4 (z - sin z)(z + sin z)/sin^2 z``, and
    the O(omega^-4) rest is summed over ``J = ALIAS_TERMS`` aliases a side
    plus the tail ``-2 (alpha + 2 mu) / (3 n_mesh^4 J^3)`` beyond them,
    which would otherwise grow with |alpha| (5.6e-13 relative at n_mesh =
    8, alpha = -100).
    """
    _check_shift(alpha)
    z, s, z_minus_s, distance = _half_mode(n_mesh)
    lam1 = 0.25 - alpha
    mu = lam1 + distance
    j = np.arange(1, ALIAS_TERMS + 1) * n_mesh
    omega2 = np.concatenate([(j + 0.5) ** 2, (j - 0.5) ** 2])
    lam = omega2 - alpha
    omega4 = omega2 * omega2
    b = 16.0 / lam1 + np.sum(1.0 / (omega4 * lam))
    a = (
        16.0 * distance**2 / lam1
        + 4.0 * z_minus_s * (z + s) / (s * s)
        + np.sum((mu * mu / lam - (alpha + 2.0 * mu)) / omega4)
        - 2.0 * (alpha + 2.0 * mu) / (3.0 * float(n_mesh) ** 4 * ALIAS_TERMS**3)
    )
    scale = (n_mesh * s) ** 4 / (PI**4 * (1 - 2 * s * s / 3))
    eye = np.eye(2)
    return SymmetricMatrix(scale * b * eye), SymmetricMatrix(scale * a / mu**2 * eye)


def table1_row(n_mesh: int, alpha: float = DEFAULT_ALPHA):
    """Reference-table row for the two lowest anti-periodic modes.

    Returns ``(lower, middle, upper)``:

    * lower  - Frobenius norm of diag(eta_1^2, eta_2^2), the defects of
      ``periodic_moment_matrix``,
    * middle - Frobenius norm of I - lambda Xi^{-1} with the exact double
      eigenvalue lambda, ``sqrt(2) d/mu`` from ``_half_mode``'s distance d,
    * upper  - the quadratic cluster bound at the exact relative gap.

    The gap ``(lambda_3 - lambda_1)/lambda_3`` is the least ``|lambda_1 -
    lambda|/lambda`` over the exact spectrum beyond the cluster: by min-max
    the discrete pencil values there lie above lambda_3, so they never set it.
    Its numerator is ``(3/2)^2 - (1/2)^2 = 2`` for every alpha, so the gap is
    ``2/lambda_3`` with no subtraction.
    """
    defects = etas_moments(*periodic_moment_matrix(n_mesh, alpha))
    lam1, _ = periodic_exact(alpha, 1)
    lam3, _ = periodic_exact(alpha, 3)
    distance = _half_mode(n_mesh)[3]
    lower = values_norm(defects.etas**2, "frobenius")
    middle = math.sqrt(2.0) * distance / (lam1 + distance)
    upper = cluster_upper_bound(defects, 2.0 / lam3, "frobenius")
    return lower, middle, upper

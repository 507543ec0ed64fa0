"""Reference values computed apart from ritzbounds.

Nothing here imports the program.  Eigenvalues, Ritz values and defects
come from the very float64 entries and basis the program receives: large
products are exact (``Dyadic``), small eigenproblems are solved in mpmath
at 40 significant digits.  The model problems use their closed forms (or
an mpmath root of the matching equation).  float64 LAPACK only supplies
starting guesses and correction steps whose convergence is checked, so an
oracle value that is not accurate to far more than 16 digits raises
``OracleError`` instead of being returned.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.linalg import cho_factor, cho_solve

DPS = 40
mp.mp.dps = DPS

#: Relative size of the last refinement correction at which a solve counts
#: as converged; the next correction would be about 1e-14 times smaller.
_SOLVE_TOL = 1e-30

#: Agreement required between two successive Rayleigh-Ritz refinements.
_EIG_TOL = 1e-24


class OracleError(RuntimeError):
    """The high-precision reference failed to converge."""


class Dyadic:
    """Exact binary fractions: an integer array (Python ints) times 2**exp.

    float64 values are binary fractions, so products and sums of the
    program's inputs are formed here without any rounding.
    """

    def __init__(self, ints: np.ndarray, exp: int):
        self.ints = ints
        self.exp = exp

    @classmethod
    def from_float(cls, a) -> "Dyadic":
        a = np.asarray(a, dtype=float)
        mant, exps = np.frexp(a)
        ints = np.ldexp(mant, 53).astype(np.int64)
        exps = exps.astype(np.int64) - 53
        nonzero = ints != 0
        exp = int(exps[nonzero].min()) if nonzero.any() else 0
        shifts = np.where(nonzero, exps - exp, 0)
        return cls(ints.astype(object) << shifts.astype(object), exp)

    @classmethod
    def from_mp(cls, values) -> "Dyadic":
        """Exact copy of a 2-d array of mpf values."""
        parts = [[abs(v).man_exp + (v < 0,) for v in row] for row in values]
        exp = min(e for row in parts for m, e, _ in row if m)
        ints = np.array(
            [[(-m if neg else m) << (e - exp) if m else 0 for m, e, neg in row] for row in parts],
            dtype=object,
        )
        return cls(ints, exp)

    @property
    def T(self) -> "Dyadic":
        return Dyadic(self.ints.T, self.exp)

    def __matmul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.ints @ other.ints, self.exp + other.exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        exp = min(self.exp, other.exp)
        return Dyadic((self.ints << (self.exp - exp)) - (other.ints << (other.exp - exp)), exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        exp = min(self.exp, other.exp)
        return Dyadic((self.ints << (self.exp - exp)) + (other.ints << (other.exp - exp)), exp)

    def scale_columns(self, factors: "Dyadic") -> "Dyadic":
        """Multiply column j by factors[0, j]."""
        return Dyadic(self.ints * factors.ints[0][None, :], self.exp + factors.exp)

    def to_float(self) -> np.ndarray:
        bits = max((abs(int(v)).bit_length() for v in self.ints.flat), default=0)
        drop = max(0, bits - 900)
        floats = np.array([float(int(v) >> drop) for v in self.ints.flat]).reshape(self.ints.shape)
        return np.ldexp(floats, self.exp + drop)

    def to_mp(self) -> mp.matrix:
        out = mp.matrix(*self.ints.shape)
        for i in range(self.ints.shape[0]):
            for j in range(self.ints.shape[1]):
                out[i, j] = mp.ldexp(mp.mpf(int(self.ints[i, j])), self.exp)
        return out


def _sym_pencil_eig(a: mp.matrix, b: mp.matrix):
    """Eigenvalues (ascending) and B-orthonormal vectors of A v = lam B v."""
    k = b.rows
    d = [1 / mp.sqrt(b[i, i]) for i in range(k)]
    a_s = mp.matrix(k, k)
    b_s = mp.matrix(k, k)
    for i in range(k):
        for j in range(k):
            a_s[i, j] = d[i] * d[j] * (a[i, j] + a[j, i]) / 2
            b_s[i, j] = d[i] * d[j] * (b[i, j] + b[j, i]) / 2
    ell_inv = mp.inverse(mp.cholesky(b_s))
    values, vectors = mp.eigsy(ell_inv * a_s * ell_inv.T)
    order = sorted(range(k), key=lambda i: values[i])
    back = ell_inv.T * vectors
    coeffs = mp.matrix(k, k)
    for new, old in enumerate(order):
        for i in range(k):
            coeffs[i, new] = d[i] * back[i, old]
    return [values[i] for i in order], coeffs


class ExactOperator:
    """Exact products with one float64 SPD matrix, and solves refined to
    far beyond double precision.

    ``solve`` is mixed-precision iterative refinement: residuals are exact,
    corrections come from the float64 Cholesky factor, which is accurate in
    the graded sense, so each step gains about 14 digits even when the
    entries span 24 decades.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        self.h = Dyadic.from_float(h)
        self._chol = cho_factor(h, lower=True)

    def solve(self, b: Dyadic) -> Dyadic:
        z, r = None, b
        for _ in range(8):
            dz = cho_solve(self._chol, r.to_float())
            step = Dyadic.from_float(dz)
            z = step if z is None else z + step
            size = np.max(np.abs(z.to_float()), axis=0)
            if np.all(np.max(np.abs(dz), axis=0) < _SOLVE_TOL * size):
                return z
            r = b - self.h @ z
        raise OracleError("iterative refinement did not converge")


def lowest_eigenvalues(op: ExactOperator, guess: np.ndarray, k: int) -> list:
    """The k lowest eigenvalues of H, refined from float64 guess vectors.

    Inverse iteration on the guess columns (more columns than k, so the
    k-th value has a gap behind it), each step followed by Rayleigh-Ritz in
    mpmath, until two successive sets of Ritz values agree to ``_EIG_TOL``
    relative.
    """
    y = Dyadic.from_float(guess)
    if y.ints.shape[1] <= k:
        raise ValueError("need more guess vectors than requested eigenvalues")
    previous = None
    for _ in range(8):
        y_next = op.solve(y)
        values, _ = _sym_pencil_eig((y_next.T @ y).to_mp(), (y_next.T @ y_next).to_mp())
        values = values[:k]
        if previous is not None and all(
            abs(a - b) <= _EIG_TOL * abs(b) for a, b in zip(previous, values)
        ):
            return values
        previous, y = values, y_next
    raise OracleError("eigenvalue refinement did not converge")


def ritz_and_defects(op: ExactOperator, basis: np.ndarray):
    """Exact Ritz values and approximation defects of span(basis).

    The Ritz problem of the subspace is solved in mpmath, so the reference
    belongs to the subspace the columns span.  With Ritz vectors U,
    residuals R = HU - U M and M = diag(mu), the Galerkin-error Gram matrix
    is the positive semidefinite ``Omega = M^-1 R^T H^-1 R M^-1`` and the
    inverse moments are ``Psi = M^-1 + Omega``; the squared defects are the
    eigenvalues of the pencil ``Omega c = eta^2 Psi c``.
    """
    b = Dyadic.from_float(basis)
    hb = op.h @ b
    mu, coeffs = _sym_pencil_eig((b.T @ hb).to_mp(), (b.T @ b).to_mp())
    t = Dyadic.from_mp(coeffs.tolist())
    u, hu = b @ t, hb @ t
    r = hu - u.scale_columns(Dyadic.from_mp([mu]))
    omega = (r.T @ op.solve(r)).to_mp()
    m = len(mu)
    psi = mp.matrix(m, m)
    for i in range(m):
        for j in range(m):
            omega[i, j] = omega[i, j] / (mu[i] * mu[j])
            psi[i, j] = omega[i, j] + (1 / mu[i] if i == j else 0)
    squares, _ = _sym_pencil_eig(omega, psi)
    return mu, [mp.sqrt(max(s, 0)) for s in squares]


# ---------------------------------------------------------------------------
# Model problems
# ---------------------------------------------------------------------------


def kappa_demo_row(kappa: float) -> dict:
    """Closed forms for the 3x3 family diag(1/101, 1/100, 1+kappa^2) with a
    -1/101 corner coupling and the first coordinate vector."""
    k = mp.mpf(kappa)
    a = mp.mpf(1) / 101
    c = 1 + k**2
    lam1 = (a + c) / 2 - mp.sqrt(((c - a) / 2) ** 2 + a**2)
    eta = 1 / mp.sqrt(101 * (1 + k**2))
    rel_error = (a - lam1) / a
    return {
        "kappa": k,
        "res_norm": a,
        "eta": eta,
        "eta_computed": eta,
        "rel_error": rel_error,
        "ratio": rel_error / eta**2,
    }


def schrodinger_row(kappa: float) -> dict:
    """Closed forms of the half-line model and the exact relative energy
    drop from an mpmath root of sqrt(kappa^2 - s^2) = -s cot(s)."""
    k = mp.mpf(kappa)
    pi2 = mp.pi**2
    eta2 = 2 / (3 + k)
    taylor = 2 / k - 3 / k**2 + 8 * (mp.mpf(1) / 2 + pi2 / 24) / k**3 - 10 * (
        mp.mpf(1) / 2 + 4 * pi2 / 24
    ) / k**4
    d = (1 - mp.sqrt(eta2)) * 4 * pi2
    s = mp.findroot(
        lambda t: mp.sqrt(k**2 - t**2) + t / mp.tan(t),
        (mp.pi / 2 + mp.mpf(10) ** -30, mp.pi - mp.mpf(10) ** -30),
        solver="anderson",
    )
    return {
        "kappa": k,
        "eta2": eta2,
        "taylor": taylor,
        "lower": eta2,
        "upper": (d + pi2) / (d - pi2) * eta2,
        "exact": (pi2 - s**2) / pi2,
    }


def fem_periodic_row(n_mesh: int, alpha: float) -> dict:
    """Reference-table row of the anti-periodic P1 model in closed form.

    The two lowest discrete modes are the P1 interpolants of
    exp(+-i x/2), with the pencil value
    ``6(1 - cos wh)/(h^2 (2 + cos wh)) - alpha`` at w = 1/2.  Their
    continuum Fourier coefficients live on the aliases w + jN with weights
    ``sin^2(wh/2)/((w + jN) h/2)^2``, which gives the inverse moment and
    hence the common defect of both modes.
    """
    a = mp.mpf(alpha)
    h = 2 * mp.pi / n_mesh
    w = mp.mpf(1) / 2
    mu = 6 * (1 - mp.cos(w * h)) / (h**2 * (2 + mp.cos(w * h))) - a
    lam1 = w**2 - a
    lam3 = (w + 1) ** 2 - a
    s2 = mp.sin(w * h / 2) ** 2

    def weight(j):
        return (s2 / ((w + j * n_mesh) * h / 2) ** 2) ** 2

    norm = mp.nsum(weight, [-mp.inf, mp.inf])
    moment = mp.nsum(lambda j: weight(j) / ((w + j * n_mesh) ** 2 - a), [-mp.inf, mp.inf])
    eta2 = 1 - norm / (mu * moment)
    lower = mp.sqrt(2) * eta2
    return {
        "lower": lower,
        "middle": mp.sqrt(2) * abs(1 - lam1 / mu),
        "upper": lower * lam3 / (lam3 - lam1),
    }


# ---------------------------------------------------------------------------
# Accuracy measure
# ---------------------------------------------------------------------------


def rel_error(value, reference) -> mp.mpf:
    reference = mp.mpf(reference)
    diff = abs(mp.mpf(value) - reference)
    if reference == 0:
        return mp.inf if diff else mp.mpf(0)
    return diff / abs(reference)


def digits(value, reference) -> float:
    """Correct significant digits of a float against its reference, 0..16."""
    err = rel_error(value, reference)
    if err == 0:
        return 16.0
    return float(min(16, max(0, -mp.log10(err))))

"""The test suite's one mpmath oracle: every high-precision reference value
the tests compare against, computed from the stored doubles.

Each function works in the ``dps`` digits its caller names and rounds to
doubles once, at the end; ``exact_ritz`` and ``complement_bases`` return
mpmath objects for further work inside ``mpmath.workdps(dps)``.  No other
test module imports mpmath (``test_oracle_guard.py``).
"""

import math
from typing import NamedTuple

import mpmath
import numpy as np
import scipy.linalg


def _mp(a):
    return mpmath.matrix(np.asarray(a).tolist())


def _floats(values):
    return np.array([float(x) for x in values])


def _columns(q):
    # Fortran order, the layout the suite's bases were always built from:
    # it steers the summation order of BLAS products, and so their bits
    return np.array(q.tolist(), dtype=float, order="F")


def spectrum(h, dps, vectors=False):
    """Ascending eigenvalues of the stored symmetric ``h``; with
    ``vectors``, also its orthonormal eigenvectors as columns."""
    with mpmath.workdps(dps):
        if not vectors:
            return _floats(mpmath.eigsy(_mp(h), eigvals_only=True))
        values, q = mpmath.eigsy(_mp(h))
        return _floats(values), _columns(q)


def pencil_values(a, b, dps):
    """Ascending eigenvalues of the pencil ``(a, b)``, ``b`` positive
    definite: those of ``(C + C^T)/2`` with ``C = L^-1 a L^-T``, ``b = L L^T``."""
    with mpmath.workdps(dps):
        inv = mpmath.cholesky(_mp(b)) ** -1
        c = inv * _mp(a) * inv.T
        return _floats(mpmath.eigsy((c + c.T) / 2, eigvals_only=True))


def singular_values(g, dps):
    """Descending singular values of ``g``: the square roots of the
    eigenvalues of ``G^T G``, formed and diagonalized in ``dps`` digits."""
    with mpmath.workdps(dps):
        m = _mp(g)
        return np.sqrt(_floats(mpmath.eigsy(m.T * m, eigvals_only=True)))[::-1]


class ExactRitz(NamedTuple):
    mu: mpmath.matrix
    vectors: mpmath.matrix
    residual: mpmath.matrix


def exact_ritz(h, basis, dps):
    """The exact Ritz data of the stored basis B and H, in mpmath: the
    ascending Ritz values mu and vectors U = B T of the pencil
    ``(B^T H B, B^T B)``, orthonormalized by the Cholesky factor of
    ``B^T B``, and the residual block ``R = H U - U diag(mu)``."""
    with mpmath.workdps(dps):
        b = _mp(basis)
        hb = _mp(h) * b
        inv = mpmath.cholesky(b.T * b) ** -1
        mu, y = mpmath.eigsy(inv * (b.T * hb) * inv.T)
        t = inv.T * y
        u = b * t
        return ExactRitz(mu, u, hb * t - u * mpmath.diag(mu))


def _relative_errors(mu, lam):
    return [float((x - lam[i]) / x) for i, x in enumerate(mu)]


def ritz_errors(h, basis, dps):
    """``(mu_i - lambda_i)/mu_i`` for the exact Ritz values mu_i of the
    stored basis and the lowest exact eigenvalues lambda_i of H."""
    with mpmath.workdps(dps):
        lam = mpmath.eigsy(_mp(h), eigvals_only=True)
        return _relative_errors(exact_ritz(h, basis, dps).mu, lam)


def tilted_eigenbasis(h, tilt, c, dps):
    """An orthonormal basis of the m lowest exact eigenvectors of H,
    tilted by ``tilt`` along the unit columns of the ``(n-m) x m`` array
    ``c`` over the other eigenvectors, each component scaled by
    ``sqrt(lambda_i/lambda_j)`` so that ``tilt`` measures energy.  Returns
    the basis and ``ritz_errors`` of it, from one eigendecomposition."""
    m = c.shape[1]
    with mpmath.workdps(dps):
        values, q = mpmath.eigsy(_mp(h))
        lam, vec = _floats(values), _columns(q)
        basis, _ = np.linalg.qr(vec[:, :m] + tilt * vec[:, m:] @ (c * np.sqrt(lam[:m] / lam[m:, None])))
        return basis, _relative_errors(exact_ritz(h, basis, dps).mu, values)


def dl(h, basis, dps):
    """``dl`` of the exact Ritz data: ``||M^{1/2} Omega M^{1/2}||_2 =
    ||M^{-1/2} R^T H^-1 R M^{-1/2}||_2``."""
    m = basis.shape[1]
    with mpmath.workdps(dps):
        hm = _mp(h)
        mu, _, r = exact_ritz(h, basis, dps)
        h_inv_r = [mpmath.lu_solve(hm, r[:, j]) for j in range(m)]
        scaled = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(m):
                scaled[i, j] = (r[:, i].T * h_inv_r[j])[0] / mpmath.sqrt(mu[i] * mu[j])
        return float(max(mpmath.eigsy(scaled, eigvals_only=True)))


def complement_bases(h, basis, dps):
    """H in mpmath with orthonormal bases B and V of the span of ``basis``
    and of its orthogonal complement."""
    with mpmath.workdps(dps):
        hm = _mp(h)
        b = _mp(basis)
        b = b * (mpmath.cholesky(b.T * b) ** -1).T
        v = _mp(scipy.linalg.null_space(basis.T))
        v = v - b * (b.T * v)
        return hm, b, v * (mpmath.cholesky(v.T * v) ** -1).T


def complement_values(h, basis, dps):
    """Ascending eigenvalues of ``W = V^T H V`` on the orthogonal
    complement of the span of ``basis``."""
    with mpmath.workdps(dps):
        hm, _, v = complement_bases(h, basis, dps)
        return _floats(mpmath.eigsy(v.T * hm * v, eigvals_only=True))


def exactness_correction(h, basis, lam, dps):
    """``exactness_ratio - 1`` for the exact H, subspace and ``lam``:
    ``lam tr(A^-1 C^T W^-1 (W - lam)^-1 C) / tr(A^-1 C^T W^-1 C)`` with
    ``A = B^T H B``, ``C = V^T H B``, ``W = V^T H V`` for orthonormal B and
    V spanning the subspace and its complement, which is the ratio's
    quotient of traces over ``K_s`` in any bases."""
    m = basis.shape[1]
    with mpmath.workdps(dps):
        hm, b, v = complement_bases(h, basis, dps)
        w, c = v.T * hm * v, v.T * hm * b
        a_inv = (b.T * hm * b) ** -1
        w_inv_c = w**-1 * c
        shifted = (w - lam * mpmath.eye(w.rows)) ** -1 * w_inv_c
        num, den = a_inv * c.T * shifted, a_inv * c.T * w_inv_c
        return float(lam * sum(num[i, i] for i in range(m)) / sum(den[i, i] for i in range(m)))


def solve_upper(r, b, dps):
    """Back substitution ``R^-1 b`` for the columns of ``b``, ``R`` upper
    triangular."""
    k = len(r)
    with mpmath.workdps(dps):
        rm = _mp(r)
        out = np.empty(b.shape)
        for j in range(b.shape[1]):
            x = [mpmath.mpf(0)] * k
            for i in reversed(range(k)):
                acc = mpmath.mpf(float(b[i, j]))
                for col in range(i + 1, k):
                    acc -= rm[i, col] * x[col]
                x[i] = acc / rm[i, i]
            out[:, j] = [float(v) for v in x]
    return out


def _p1_mode(omega, n, alpha):
    h = 2 * mpmath.pi / n
    wh = mpmath.mpf(omega) * h
    return 12 * mpmath.sin(wh / 2) ** 2 / (h**2 * (2 + mpmath.cos(wh))) - mpmath.mpf(alpha)


def p1_mode(omega, n, alpha, dps):
    """The periodic P1 pencil's eigenvalue at frequency ``omega`` on ``n``
    cells, ``12 sin^2(omega h/2) / (h^2 (2 + cos omega h)) - alpha`` with
    ``h = 2 pi/n``, written with ``sin^2`` against cancellation."""
    with mpmath.workdps(dps):
        return float(_p1_mode(omega, n, alpha))


def table1_row(n, alpha, dps):
    """The mesh-refinement table's row ``sqrt(2) (eta^2, (mu - lambda_1)/mu,
    eta^2 lambda_3/(lambda_3 - lambda_1))`` for the mode pair at omega = 1/2.
    The cos/sin pair only sees the aliases ``1/2 + jN``, with weights
    proportional to ``(sin^2(h/4) / ((1/2 + jN) h/2)^2)^2``, so Psi and
    Omega are the full class sums, divided by the weight sum, times I;
    Omega in residual form."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        h = 2 * mpmath.pi / n
        w = mpmath.mpf(0.5)
        mu = _p1_mode(w, n, alpha)
        lam1, lam3 = w**2 - a, (w + 1) ** 2 - a

        def weight(j):
            return (mpmath.sin(w * h / 2) ** 2 / ((w + j * n) * h / 2) ** 2) ** 2

        def class_sum(f):
            return mpmath.nsum(lambda j: weight(j) * f((w + j * n) ** 2 - a), [-mpmath.inf, mpmath.inf])

        psi = class_sum(lambda lam: 1 / lam)
        omega = class_sum(lambda lam: (lam - mu) ** 2 / lam) / mu**2
        eta2 = omega / psi
        root2 = mpmath.sqrt(2)
        return [
            float(root2 * eta2),
            float(root2 * (mu - lam1) / mu),
            float(root2 * eta2 * lam3 / (lam3 - lam1)),
        ]


def schrodinger_drop(kappa, dps):
    """``(pi^2 - s^2)/pi^2`` for the root s in ``(pi/2, pi)`` of the
    matching equation ``sqrt(kappa^2 - s^2) = -s cot(s)``."""
    with mpmath.workdps(dps):
        k = mpmath.mpf(kappa)
        s = mpmath.findroot(
            lambda t: mpmath.sqrt(k**2 - t**2) + t / mpmath.tan(t),
            (mpmath.pi / 2 + mpmath.mpf(10) ** -40, mpmath.pi - mpmath.mpf(10) ** -40),
            solver="anderson",
        )
        return float((mpmath.pi**2 - s**2) / mpmath.pi**2)


def fd_eta2(diag, off, rhs, step, dps):
    """``(m - 1/pi^2)/m`` for the finite-difference moment ``m = step
    rhs^T T^-1 rhs``, T tridiagonal with ``diag`` and constant ``off``,
    summed over one forward LDL^T sweep; pi is the double ``math.pi``."""
    with mpmath.workdps(dps):
        off = mpmath.mpf(off)
        pivot, y, total = mpmath.inf, mpmath.mpf(0), mpmath.mpf(0)
        for d, r in zip(diag.tolist(), rhs.tolist()):
            pivot, y = d - off * off / pivot, r - off / pivot * y
            total += y * y / pivot
        moment = mpmath.mpf(step) * total
        return float((moment - 1 / mpmath.mpf(math.pi) ** 2) / moment)


class KappaTruth(NamedTuple):
    eta: float
    rel_error: float
    ratio: float


def kappa_family(kappa, dps):
    """The 3x3 kappa family's closed forms for ``e_1``: ``eta =
    1/sqrt(101 (1 + kappa^2))`` and ``(mu - lambda_1)/mu`` at ``mu = 1/101``
    from the larger root of the 2x2 block ``[[a, -a], [-a, c]]``, ``a =
    1/101``, ``c = 1 + kappa^2``, which subtracts nothing small: with
    ``x = (c - a)/2`` and ``s = sqrt(x^2 + a^2)``, ``lambda_2 = (a + c)/2 +
    s`` and the drop is ``(a + a^2/(s + x))/lambda_2``; ``ratio`` is that
    drop over eta^2."""
    with mpmath.workdps(dps):
        a, c = mpmath.mpf(1) / 101, 1 + mpmath.mpf(kappa) ** 2
        x = (c - a) / 2
        s = mpmath.sqrt(x**2 + a**2)
        rel_error = (a + a**2 / (s + x)) / ((a + c) / 2 + s)
        return KappaTruth(float(1 / mpmath.sqrt(101 * c)), float(rel_error), float(rel_error * 101 * c))


def valid_entries_contain(report, truth):
    """Every entry the report flags valid brackets ``truth[i - 1]``, the
    true relative error of its i-th Ritz value."""
    for e in report.entries:
        if e.valid:
            assert e.lower <= truth[e.index - 1] <= e.upper, e


def measurements(h, basis, q, dps):
    """The fields of ``bounds.Measurements`` but ``n``, ``q`` and
    ``mu_1_rounding`` for the exact Ritz data of the stored H and basis, each
    rounded to a double once (``schur`` and ``moments`` as their etas), and
    the true relative errors ``(mu_i - lambda)/mu_i`` against ``lambda_q``
    and against ``lambda_(q+i-1)``.  With ``C = V^T R`` on the complement
    and ``S(A) = M^-1/2 A M^-1/2``, the Schur route's squared defects are the
    eigenvalues of ``S(C^T W^-1 C)``; the moment route's are ``s^2/(1 +
    s^2)`` for those ``s^2`` of ``S(R^T H^-1 R)``, whose largest is ``dl``
    and whose diagonal holds the residual quotients."""
    m = basis.shape[1]
    with mpmath.workdps(dps):
        hm, _, v = complement_bases(h, basis, dps)
        lam = sorted(mpmath.eigsy(hm, eigvals_only=True))
        mu, _, r = exact_ritz(h, basis, dps)

        def scaled(a):
            return mpmath.matrix([[a[i, j] / mpmath.sqrt(mu[i] * mu[j]) for j in range(m)] for i in range(m)])

        def values(a):
            return sorted(mpmath.eigsy(a, eigvals_only=True))

        w, c = v.T * hm * v, v.T * r
        w_inv_c = w**-1 * c
        ktk, ztz, rtr = scaled(c.T * w_inv_c), scaled(r.T * hm**-1 * r), r.T * r
        s2 = values(ztz)
        lam_q = lam[q - 1]
        shifted = scaled(c.T * (w - lam_q * mpmath.eye(w.rows)) ** -1 * w_inv_c)
        fields = dict(
            mu=_floats(mu),
            # both are rank n - m at most: a zero may come out a hair below 0
            schur=_floats([mpmath.sqrt(max(x, 0)) for x in values(ktk)]),
            moments=_floats([mpmath.sqrt(max(x, 0) / (1 + x)) for x in s2]),
            dl=float(s2[-1]),
            ratios=_floats([ztz[i, i] for i in range(m)]),
            lambda_ref=_floats(lam[: q + m + 1]),
            w_values=_floats(values(w)[:q]),
            r0_squares=float(rtr[0, 0]),
            r_spectral=float(mpmath.sqrt(values(rtr)[-1])),
            r_squares=float(sum(rtr[i, i] for i in range(m))),
            exactness_ratio=float(1 + lam_q * sum(shifted[i, i] for i in range(m)) / sum(ktk[i, i] for i in range(m))),
        )
        return (
            fields,
            [float((x - lam_q) / x) for x in mu],
            [float((x - lam[q + i - 1]) / x) for i, x in enumerate(mu)],
        )

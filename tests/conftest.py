import numpy as np
import pytest

from ritzbounds.defect import TestSubspace
from ritzbounds.models import hkappa_matrix
from ritzbounds.verify import _haar as haar_orthogonal, _random_spd as random_spd


def random_subspace(rng, n, m):
    """Orthonormal basis of a random m-dimensional subspace of R^n."""
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q


def clustered_spd(rng, n, m, lam_cluster=1.0, gap=3.0, spread=50.0):
    """SPD matrix whose m lowest eigenvalues all equal lam_cluster.

    Returns (matrix, exact eigenvalues ascending, orthonormal basis of the
    cluster eigenspace).
    """
    q = haar_orthogonal(rng, n)
    rest = lam_cluster * gap * (1.0 + spread * np.sort(rng.random(n - m)))
    lam = np.concatenate([np.full(m, lam_cluster), rest])
    h = (q * lam) @ q.T
    return 0.5 * (h + h.T), lam, q[:, :m]


def tilted_basis(rng, basis, amount=0.05):
    """Perturb an orthonormal basis and re-orthonormalize it."""
    n, m = basis.shape
    q, _ = np.linalg.qr(basis + amount * rng.standard_normal((n, m)))
    return q


def kappa_matrix(k):
    """The 3x3 kappa family as an array."""
    return hkappa_matrix(k).entries


def graded_dad(rng, n, top):
    """``D A D`` with cond(A) <= 10, unit diag(A) and ``D = 2^-j`` for n
    exponents j spread over [0, top], so H is formed exactly and its
    diagonal spans ``2 top log10(2)`` decades."""
    q = haar_orthogonal(rng, n)
    a = (q * 10.0 ** rng.uniform(0.0, 1.0, n)) @ q.T
    s = 1.0 / np.sqrt(np.diag(a))
    a = s[:, None] * a * s[None, :]
    d = 2.0 ** -rng.permutation(np.round(np.linspace(0.0, top, n)))
    return d[:, None] * (0.5 * (a + a.T)) * d[None, :]


def span_e1(n=3):
    """The first coordinate vector of R^n as a test subspace."""
    basis = np.zeros((n, 1))
    basis[0, 0] = 1.0
    return TestSubspace(basis)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)

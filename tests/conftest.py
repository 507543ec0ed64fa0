import numpy as np
import pytest

from ritzbounds.defect import TestSubspace


def haar_orthogonal(rng, n):
    """Haar-distributed orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, log_cond=4.0):
    """Random SPD matrix with eigenvalues spread over log_cond decades."""
    q = haar_orthogonal(rng, n)
    lam = 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, size=n)
    return (q * lam) @ q.T


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
    return np.array(
        [
            [1 / 101, 0.0, -1 / 101],
            [0.0, 1 / 100, 0.0],
            [-1 / 101, 0.0, 1 + k**2],
        ]
    )


def span_e1(n=3):
    """The first coordinate vector of R^n as a test subspace."""
    basis = np.zeros((n, 1))
    basis[0, 0] = 1.0
    return TestSubspace(basis)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)

"""Dense reference forms the tests check the library against, in double
precision.

No command, report or ``verify`` check runs these functions, so they live
beside ``mp_oracle.py`` rather than in the package:

* ``inv_sqrt``, the inverse square root of a positive-definite matrix,
  which the acceptance suite uses to orthonormalize the P1 pair in the
  mass inner product;
* ``relative_residual_identity``, both sides of the exact relative
  block-residual identity, from the split's ``_resolvent_term`` that
  ``defect.exactness_ratio`` evaluates;
* ``abs_cluster_bounds``, the absolute cluster bound from a coupling block,
  the matrix form of the scalar ``bounds._abs_cluster`` that ``assemble``
  evaluates from a report's measurements.
"""

import numpy as np

from ritzbounds.bounds import _abs_cluster
from ritzbounds.defect import RitzData, SplitOperator, _resolvent_term
from ritzbounds.densela import NormKind, SymmetricMatrix, as_symmetric, sym_eig, ui_norm
from ritzbounds.errors import NotPositiveDefiniteError


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


def abs_cluster_bounds(k_block, mu, lambda_mp1: float, kind) -> float:
    """Absolute cluster bound in the unscaled geometry.

    For the coupling block K of H in the adapted basis,
    ``|||diag(mu_i - lambda)||| <= |||K||| ||K|| / (lambda_{m+1} - mu_m -
    ||K||)``.  The trace variant uses the residual sum ||K||_F^2 in place
    of |||K||| ||K||.  Requires ||K|| < lambda_{m+1} - mu_m.  The residual
    block ``R = H U - U M`` may stand for K: ``V^T R = K``, ``U^T R = 0``.
    """
    k = np.asarray(k_block, dtype=float)
    norms = ui_norm(k, NormKind.SPECTRAL), float((k * k).sum())
    return _abs_cluster(NormKind.coerce(kind), *norms, float(np.asarray(mu, dtype=float)[-1]), lambda_mp1)

"""Relative and absolute a-posteriori eigenvalue bounds.

The functions here turn the defect spectrum and gap information into
two-sided estimates for the relative eigenvalue errors ``(mu_i -
lambda_i)/mu_i`` of a Ritz cluster:

* first-order localization, ``(1 - eta_m) mu <= lambda <= (1 + eta_m) mu``,
  which ``assemble`` writes as the relative interval ``(-eta_m, eta_m)``,
* the quadratic cluster bound ``(eta_m / g_q) |||diag(eta)|||`` in any
  unitary-invariant norm,
* the two-sided sandwich ``|||diag(eta^2)||| <= |||I - lambda Xi^{-1}|||
  <= (1/g_1) |||diag(eta^2)|||`` together with its trace form,
* the diagonal-residual sandwich for ``sum eta_i^2``,
* the trace lower bound built from the per-vector residual quotients,
* the classical residual/gap inequalities in the unscaled geometry
  (single-vector lower bound and the absolute cluster bound), kept for
  comparison, and
* the exactness ratio, which quantifies how close the sandwich lower end
  sits to the true error aggregate.

Every evaluator is a pure formula; hypothesis checking is the caller's
business.  ``assemble`` is that caller: from the ``Measurements`` that
``measure`` takes of an operator/test-subspace pair, O(m + q) numbers, it
evaluates all bounds, records one flag per checked hypothesis, marks an
entry valid when every flag its theorem lists in ``THEOREMS`` holds, and
never refuses to evaluate a formula just because a hypothesis failed (the
flag records it instead).  ``build_report`` is ``assemble(measure(...))``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_quote

import numpy as np

from .defect import (
    DefectSpectrum,
    SplitOperator,
    TestSubspace,
    _lowest_eigenvalues,
    _resolvent_term,
    etas_residual,
    etas_schur,
    p_diagonal_split,
)
from .densela import _EPS, NormKind, as_symmetric, ui_norm, values_norm
from .errors import HypothesisError, SingularOperatorError

INF = float("inf")

#: ``routes_agree`` holds when each of the ``min(m, n - m)`` largest defects
#: of the two routes differ by at most ``ROUTES_RTOL`` times the larger one
#: plus ``ROUTES_ATOL``.  The other ``m - min(m, n - m)`` defects are zero
#: by structure; the Schur route pads them with zeros, the moment route
#: returns rounding noise for them.  Defects are dimensionless, and below
#: ``ROUTES_ATOL`` both routes return rounding noise.
ROUTES_RTOL = 1e-8
ROUTES_ATOL = 1e-13


# ---------------------------------------------------------------------------
# Gap quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapData:
    """Relative gap data for the q-th target eigenvalue.

    ``g_q`` is the relative distance from lambda_q to the unwanted part of
    the split operator spectrum (+inf when that part is empty); ``gamma_s``
    is the two-sided relative separation between the Ritz cluster and its
    neighboring reference eigenvalues.
    """

    q: int
    g_q: float
    gamma_s: float
    lambda_qm1: float
    lambda_qpm: float
    mu_1: float
    mu_m: float

    def __post_init__(self):
        if self.g_q < 0:
            raise ValueError(f"relative gap must be nonnegative, got {self.g_q}")
        if self.gamma_s > 1.0 + 1e-12:
            raise ValueError(f"gamma_s cannot exceed 1, got {self.gamma_s}")


def relative_gap_gq(spec_rest, lambda_q: float) -> float:
    """min over mu in the unwanted spectrum of |lambda_q - mu| / mu.

    ``spec_rest`` holds the positive spectrum of the split operator with
    the m Ritz values removed; an empty collection returns +inf.
    """
    rest = np.asarray(spec_rest, dtype=float)
    if rest.size == 0:
        return INF
    if (rest <= 0).any():
        raise ValueError("unwanted spectrum must be positive")
    return float((np.abs(lambda_q - rest) / rest).min())


def gamma_s(lambda_qm1: float, lambda_qpm: float, mu1: float, mum: float) -> float:
    """Two-sided relative separation of the cluster from its neighbors.

    With the formal convention lambda_0 = 0 the left branch degenerates to
    1 for the lowest cluster; an infinite right neighbor also contributes 1.
    """
    if min(lambda_qm1, lambda_qpm, mu1, mum) < 0:
        raise ValueError("gamma_s arguments must be nonnegative")
    left = 1.0 if lambda_qm1 == 0.0 else (mu1 - lambda_qm1) / (mu1 + lambda_qm1)
    right = 1.0 if math.isinf(lambda_qpm) else (lambda_qpm - mum) / (lambda_qpm + mum)
    return min(left, right)


def gq_lower_bound_lemma(
    eta_m: float, mu1: float, mum: float, lambda_qm1: float, lambda_qpm: float
) -> float:
    """Computable lower bound for g_q from the largest defect.

    Valid under eta_m / (1 - eta_m) < gamma_s; the caller flags that.  The
    lowest-cluster case lambda_{q-1} = 0 sends the left branch to +inf.
    """
    if not 0.0 <= eta_m < 1.0:
        raise ValueError(f"need 0 <= eta_m < 1, got {eta_m}")
    f = eta_m / (1.0 - eta_m)
    if lambda_qm1 == 0.0:
        left = INF
    else:
        left = (mu1 * (1.0 - eta_m) - (1.0 + f) * lambda_qm1) / ((1.0 + f) * lambda_qm1)
    if math.isinf(lambda_qpm):
        right = 1.0
    else:
        right = ((1.0 - f) * lambda_qpm - (1.0 + eta_m) * mum) / ((1.0 - f) * lambda_qpm)
    return min(left, right)


def g1_from_spectral_gap(lambda_mp1: float, mum: float) -> float:
    """Relative-gap lower bound (lambda_{m+1} - mu_m) / (lambda_{m+1} + mu_m)."""
    if lambda_mp1 <= mum:
        raise HypothesisError(
            f"spectral gap hypothesis fails: lambda_(m+1) = {lambda_mp1!r} "
            f"<= mu_m = {mum!r}"
        )
    if math.isinf(lambda_mp1):
        return 1.0
    return (lambda_mp1 - mum) / (lambda_mp1 + mum)


# ---------------------------------------------------------------------------
# Bound evaluators
# ---------------------------------------------------------------------------


def classical_temple_kato(mu: float, res_norm_sq: float, lambda2_lb: float) -> float:
    """Classical second-order lower bound mu - ||r||^2 / (lambda_2 - mu)."""
    if res_norm_sq < 0:
        raise ValueError("squared residual norm must be nonnegative")
    if lambda2_lb <= mu:
        raise HypothesisError(
            f"gap hypothesis fails: lambda_2 lower bound {lambda2_lb!r} <= mu = {mu!r}"
        )
    return mu - res_norm_sq / (lambda2_lb - mu)


def cluster_upper_bound(etas: DefectSpectrum, g_q: float, kind) -> float:
    """Quadratic cluster bound (eta_m / g_q) |||diag(eta_1..eta_m)|||.

    In the Frobenius norm this dominates [sum_i (lambda_q - mu_i)^2 /
    mu_i^2]^(1/2).  Uses the convention c / inf = 0.
    """
    if g_q <= 0:
        raise HypothesisError(f"relative gap must be positive, got {g_q!r}")
    if math.isinf(g_q):
        return 0.0
    return etas.eta_max / g_q * values_norm(etas.etas, kind)


def sandwich_bounds(etas: DefectSpectrum, g1: float, kind):
    """Two-sided bound for |||I - lambda_q Xi^{-1}|||.

    Returns (|||diag(eta^2)|||, |||diag(eta^2)||| / g_1).
    """
    if g1 <= 0:
        raise HypothesisError(f"relative gap must be positive, got {g1!r}")
    lower = values_norm(etas.etas**2, kind)
    upper = 0.0 if math.isinf(g1) and lower == 0.0 else lower / g1
    return lower, upper


def trace_sandwich(etas: DefectSpectrum, g1: float):
    """Two-sided bound for sum_i (mu_i - lambda_i) / mu_i: the trace-norm
    ``sandwich_bounds``, (sum eta_i^2, (1/g_1) sum eta_i^2)."""
    return sandwich_bounds(etas, g1, NormKind.TRACE)


def prop_lower_bound(mu, residual_ratios) -> float:
    """Residual-quotient lower bound (mu_1 / (2 mu_m)) sum_i ratios_i.

    ``ratios_i`` are the relative residual quotients
    ``||H u_i - mu_i u_i||^2_{H^{-1}} / ||H u_i||^2_{H^{-1}}``; the result
    bounds sum_i (mu_i - lambda_i) / mu_i from below (under 2 eta_m < 1,
    flagged by the caller).
    """
    mu = np.asarray(mu, dtype=float)
    ratios = np.asarray(residual_ratios, dtype=float)
    if np.any(ratios < 0):
        raise ValueError("residual quotients must be nonnegative")
    return float(mu[0] / (2.0 * mu[-1]) * ratios.sum())


def residual_eta_sandwich(omega_diag_mu, dl: float):
    """Sandwich for sum eta_i^2 from the diagonal residual quotients.

    ``omega_diag_mu`` holds the per-vector quotients Omega_ii mu_i; the
    result is (sum / (1 + dl), sum).
    """
    if dl < 0:
        raise ValueError("deviation measure must be nonnegative")
    total = float(np.sum(np.asarray(omega_diag_mu, dtype=float)))
    return total / (1.0 + dl), total


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


def _abs_cluster(kind: NormKind, spectral, squares, mu_m, lambda_mp1) -> float:
    """``abs_cluster_bounds`` from K's spectral norm and squared sum, whose
    square root is its Frobenius norm."""
    gap = float(lambda_mp1 - mu_m)
    if spectral >= gap:
        raise HypothesisError(
            f"absolute gap hypothesis fails: ||K|| = {spectral:.6e} >= "
            f"lambda_(m+1) - mu_m = {gap:.6e}"
        )
    if math.isinf(gap):
        return 0.0
    if kind is NormKind.TRACE:
        return squares / (gap - spectral)
    return (spectral if kind is NormKind.SPECTRAL else math.sqrt(squares)) * spectral / (gap - spectral)


def exactness_ratio(split: SplitOperator, lambda_q: float) -> float:
    """Ratio of the true error aggregate to the defect aggregate.

    Evaluates ``1 + tr(lambda_q K_s^T (W - lambda_q)^{-1} K_s) / sum
    eta_i^2``, which equals ``[sum_i (mu_i - lambda_q)/mu_i] / [sum
    eta_i^2]`` when lambda_q is the exact cluster eigenvalue of full
    multiplicity.  The correction term comes from the leading block
    ``S11``, W^-1 in a basis of the complement, of the split's inverse
    Gram (see ``defect._resolvent_term``).  Tends to 1 as the complement
    block grows away from lambda_q.
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


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

#: The hypothesis flags whose conjunction makes each theorem's entries
#: valid.  A report lists the entries of the first four theorems, the
#: relative bounds, Ritz value by Ritz value; the classical bounds follow,
#: one theorem after the other.
THEOREMS = {
    "first_order": ("eta_vs_gamma", "cluster_multiplicity", "routes_agree"),
    "cluster_T33": ("eta_vs_gamma", "cluster_multiplicity"),
    "sandwich_T34": ("mu_below_next", "cluster_multiplicity"),
    "trace_T34": ("mu_below_next", "cluster_multiplicity"),
    "classical_TK": ("tk_gap",),
    "abs_cluster": ("abs_gap",),
}
THEOREM_TAGS = tuple(THEOREMS)


@dataclass(frozen=True)
class BoundEntry:
    """One per-eigenvalue interval for (mu_i - lambda_i)/mu_i."""

    index: int
    theorem: str
    lower: float
    upper: float
    valid: bool

    def __post_init__(self):
        if self.theorem not in THEOREM_TAGS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")
        if self.lower > self.upper:
            raise ValueError(
                f"empty bound interval [{self.lower}, {self.upper}] for "
                f"{self.theorem}"
            )


@dataclass(frozen=True)
class BoundReport:
    """Full record of one bound evaluation run.

    ``flags`` records which hypotheses were checked and whether they hold;
    every formula is evaluated regardless (or stored as None when it is
    not even computable), so the report distinguishes "bound proven" from
    "formula evaluated".
    """

    n: int
    m: int
    q: int
    norm_kind: str
    mu: tuple
    etas: tuple
    eta_route: str
    lambda_ref: tuple
    gaps: GapData
    flags: dict
    entries: tuple
    aggregates: dict


@dataclass(frozen=True)
class Measurements:
    """What a report reads of H and the subspace, O(m + q) numbers that
    ``measure`` takes for ``assemble``.  ``lambda_ref`` is ``lambda_1..
    lambda_min(n, q+m+1)``, ``w_values`` the q smallest eigenvalues of W,
    ``mu_1_rounding`` ``n eps |u_1|^T |H| |u_1|``, the a-priori rounding
    bound of ``mu_1 = u_1^T H u_1``, ``r_spectral`` the spectral norm of
    ``R = H U - U M``, and ``r0_squares`` and ``r_squares`` the squared
    sums of its column 0 and of all of it.
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


def _finite_or_none(x):
    return None if x is None or not math.isfinite(x) else float(x)


def _routes_agree(schur: DefectSpectrum, moments: DefectSpectrum, n: int) -> bool:
    """The cross-check of the two defect routes; see ``ROUTES_RTOL``."""
    k = min(schur.m, n - schur.m)
    a, b = schur.etas[-k:], moments.etas[-k:]
    return bool((np.abs(a - b) <= ROUTES_RTOL * np.maximum(a, b) + ROUTES_ATOL).all())


def measure(h, subspace: TestSubspace, lambda_ref, q: int) -> Measurements:
    """Every step of a report that reads H, the basis or an n-sized array:
    the split, both defect routes, the ``min(n, q+m+1)`` lowest reference
    values unless ``lambda_ref`` supplies them (``_lowest_eigenvalues``),
    ``w_1..w_q``, which by interlacing (``w_q >= lambda_q``) hold the w
    nearest lambda_q and lambda_1 in relative distance, and the exactness
    ratio at lambda_q.  ``build_report`` checks the arguments.
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
    return Measurements(
        n=hm.n, q=q, mu=split.mu, schur=schur, moments=moments, dl=dl, ratios=ratios,
        lambda_ref=lambda_ref[: q + split.m + 1].copy(), w_values=1.0 / split.s11_values[:q],
        mu_1_rounding=hm.n * _EPS * float(u_1 @ np.abs(hm.entries) @ u_1),
        r0_squares=float(r[:, 0] @ r[:, 0]), r_spectral=ui_norm(r, NormKind.SPECTRAL),
        r_squares=float((r * r).sum()), exactness_ratio=exact_ratio,
    )


def assemble(meas: Measurements, norm_kind) -> BoundReport:
    """The gaps, flags, aggregates and entries of a report from its
    measurements; pure, it calls no LAPACK routine.  The report reads
    ``lambda_k``, ``k <= q+m``, as ``[0, lambda_1..lambda_min(n, q+m),
    inf][k]``: ``inf`` means ``k > n``.  An entry is valid when its flags
    in ``THEOREMS`` all hold.  ``routes_agree`` is relative
    (``ROUTES_RTOL``, ``ROUTES_ATOL``), and ``tk_gap`` needs ``lambda_2 -
    mu_1`` above ``mu_1_rounding``, so that a mu_1 computed just below a
    double lowest eigenvalue fails it.  ``tk_gap`` and ``abs_gap`` also
    need q = 1: Temple-Kato bounds ``mu_1 - lambda_1`` and the absolute
    cluster bound covers ``lambda_1..lambda_m``.
    """
    kind = NormKind.coerce(norm_kind)
    n, q, mu, ds = meas.n, meas.q, meas.mu, meas.schur
    m = len(mu)
    mu_1, mu_m = float(mu[0]), float(mu[-1])
    # lam[k] is lambda_k for every k read: lambda_0 = 0, and +inf only past n
    lam = [0.0, *map(float, meas.lambda_ref[: min(n, q + m)]), INF]
    lam_q, lam_qm1, lam_qpm, lam_mp1 = lam[q], lam[q - 1], lam[q + m], lam[m + 1]

    g_q = relative_gap_gq(meas.w_values, lam_q)
    g_1 = g_q if q == 1 else relative_gap_gq(meas.w_values, lam[1])
    gam = gamma_s(lam_qm1, lam_qpm, mu_1, mu_m)
    gaps = GapData(q=q, g_q=g_q, gamma_s=gam, lambda_qm1=lam_qm1, lambda_qpm=lam_qpm, mu_1=mu_1, mu_m=mu_m)
    try:
        abs_bound = _abs_cluster(kind, meas.r_spectral, meas.r_squares, mu_m, lam_mp1)
    except HypothesisError:
        abs_bound = None
    abs_gap = bool(q == 1 and abs_bound is not None)

    eta_m = ds.eta_max
    cluster_is_multiple = abs(lam[q + m - 1] - lam_q) <= 1e-8 * abs(lam_q)
    mu_1_below_2 = lam[2] - mu_1 > meas.mu_1_rounding
    flags = {
        "routes_agree": _routes_agree(ds, meas.moments, n),
        "cluster_multiplicity": bool(cluster_is_multiple and lam_qm1 < lam_q and lam_q < lam_qpm),
        "eta_vs_gamma": bool(eta_m / (1.0 - eta_m) < gam),
        "mu_below_next": bool(q == 1 and mu_m < lam_mp1),
        "two_eta_below_one": bool(2.0 * eta_m < 1.0),
        "tk_gap": bool(q == 1 and mu_1_below_2),
        "abs_gap": abs_gap,
    }

    c33 = cluster_upper_bound(ds, g_q, kind) if g_q > 0 else None
    # without a gap (g_1 = 0) the sandwiches keep only their lower ends
    s_lo, s_hi = sandwich_bounds(ds, g_1 or INF, kind)
    t_lo, t_hi = sandwich_bounds(ds, g_1 or INF, NormKind.TRACE)
    s_hi, t_hi = (_finite_or_none(s_hi), _finite_or_none(t_hi)) if g_1 > 0 else (None, None)
    r_lo, r_hi = residual_eta_sandwich(meas.ratios, meas.dl)
    tk_lower = tk_rel = None
    if mu_1_below_2:
        res_sq, lam_2 = meas.r0_squares, lam[2]
        tk_lower = classical_temple_kato(mu_1, res_sq, lam_2)
        # the relative drop directly: mu minus the lower bound cancels to
        # zero once the drop falls below the rounding of mu
        tk_rel = res_sq / (lam_2 - mu_1) / mu_1

    aggregates = {
        "g_q": _finite_or_none(g_q),
        "g_1": _finite_or_none(g_1),
        "gamma_s": gam,
        "g_q_lemma23": _finite_or_none(gq_lower_bound_lemma(eta_m, mu_1, mu_m, lam_qm1, lam_qpm)),
        "dl": meas.dl,
        "eta_sum_squares": ds.sum_squares(),
        "g1_cor35": g1_from_spectral_gap(lam_mp1, mu_m) if flags["mu_below_next"] else None,
        "cluster_T33": c33,
        "sandwich_lower": s_lo,
        "sandwich_upper": s_hi,
        "trace_lower": t_lo,
        "trace_upper": t_hi,
        "prop36_lower": prop_lower_bound(mu, meas.ratios),
        "residual_eta_lower": r_lo,
        "residual_eta_upper": r_hi,
        "abs_cluster": abs_bound,
        "classical_tk_lower": tk_lower,
        "exactness_ratio": meas.exactness_ratio,
    }

    # (lower, upper) per index, none where a formula is not computable
    intervals = {
        "first_order": [(-eta_m, eta_m)] * m,
        "cluster_T33": [] if c33 is None else [(-c33, c33)] * m,
        "sandwich_T34": [] if s_hi is None else [(-s_hi, s_hi)] * m,
        "trace_T34": [] if t_hi is None else [(0.0, t_hi)] * m,
        "classical_TK": [] if tk_rel is None else [(0.0, tk_rel)],
        "abs_cluster": [] if abs_bound is None else [(-abs_bound / float(x), abs_bound / float(x)) for x in mu],
    }
    # the print order of ``THEOREMS``
    order = [(tag, i) for i in range(m) for tag in THEOREM_TAGS[:4]]
    order += [(tag, i) for tag in THEOREM_TAGS[4:] for i in range(m)]
    valid = {tag: all(flags[name] for name in names) for tag, names in THEOREMS.items()}
    entries = [
        BoundEntry(i + 1, tag, *intervals[tag][i], valid[tag]) for tag, i in order if i < len(intervals[tag])
    ]

    return BoundReport(
        n=n, m=m, q=q, norm_kind=kind.value, mu=tuple(mu.tolist()), etas=tuple(ds.etas.tolist()),
        eta_route=ds.route, lambda_ref=tuple(meas.lambda_ref.tolist()), gaps=gaps, flags=flags,
        entries=tuple(entries), aggregates=aggregates,
    )


def build_report(h, subspace: TestSubspace, norm_kind="frobenius", lambda_ref=None, q: int = 1) -> BoundReport:
    """Run the full defect/bound pipeline for one operator and subspace:
    ``assemble(measure(...))``.

    ``q``, an integer >= 1 and not a bool, is the 1-based index of the
    target cluster.  ``lambda_ref`` supplies the reference eigenvalues
    (exact where a model provides them), a 1-d array of finite, positive,
    nondecreasing values.  The report reads ``lambda_k`` for ``k <= q+m``
    only.  A bad ``q``, ``lambda_ref`` or ``norm_kind``, ``q+m-1 > n``, or
    fewer than ``min(n, q+m)`` reference values raises ``ValueError``
    before H is factored.
    """
    if isinstance(q, bool) or not hasattr(q, "__index__"):
        raise ValueError(f"target index q must be an integer, got {q!r}")
    q = operator.index(q)
    if q < 1:
        raise ValueError(f"target index q must be at least 1, got {q}")
    if lambda_ref is not None:
        lambda_ref = np.asarray(lambda_ref, dtype=float)
        if lambda_ref.ndim != 1 or not (
            (np.isfinite(lambda_ref) & (lambda_ref > 0)).all() and (lambda_ref[1:] >= lambda_ref[:-1]).all()
        ):
            raise ValueError("lambda_ref must be a 1-d array of finite, positive, nondecreasing values")
    kind = NormKind.coerce(norm_kind)
    hm = as_symmetric(h)
    m = subspace.dim
    need = min(hm.n, q + m)  # the report reads lambda_k for k <= q + m only
    have = hm.n if lambda_ref is None else len(lambda_ref)
    if q + m - 1 > hm.n or have < need:
        raise ValueError(
            f"target index q={q} with cluster size m={m} needs at least "
            f"{max(need, q + m - 1)} reference eigenvalues of n={hm.n}, got {have}"
        )
    return assemble(measure(hm, subspace, lambda_ref, q), kind)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: BoundReport) -> dict:
    """Flat JSON-ready dictionary view of a report."""
    return {
        "n": report.n,
        "m": report.m,
        "q": report.q,
        "norm_kind": report.norm_kind,
        "mu": list(report.mu),
        "etas": list(report.etas),
        "eta_route": report.eta_route,
        "lambda_ref": list(report.lambda_ref),
        "gaps": {
            "q": report.gaps.q,
            "g_q": _finite_or_none(report.gaps.g_q),
            "gamma_s": report.gaps.gamma_s,
            "lambda_qm1": report.gaps.lambda_qm1,
            "lambda_qpm": _finite_or_none(report.gaps.lambda_qpm),
            "mu_1": report.gaps.mu_1,
            "mu_m": report.gaps.mu_m,
        },
        "flags": dict(report.flags),
        "aggregates": dict(report.aggregates),
        "entries": [
            {
                "index": e.index,
                "theorem": e.theorem,
                "lower": e.lower,
                "upper": e.upper,
                "valid": e.valid,
            }
            for e in report.entries
        ],
    }


def report_to_json(report_or_dict) -> str:
    """Canonical JSON: the bytes of ``json.dumps(d, sort_keys=True, indent=2) + "\\n"``."""
    d = report_or_dict if isinstance(report_or_dict, dict) else report_to_dict(report_or_dict)
    return _json_item(d, "") + "\n"


#: json's text of a scalar by its exact type; a float's is ``float.__repr__``
#: (a numpy float's ``repr`` is ``np.float64(x)``), but json's tokens for
#: nan and +-inf (``_JSON_NONFINITE``).
_JSON_SCALARS = {
    float: float.__repr__, int: int.__repr__, str: _json_quote,
    bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
}
_JSON_NONFINITE = {"inf": "Infinity", "nan": "NaN", "-inf": "-Infinity"}


def _json_text(v, pad: str) -> str:
    """``v`` as json writes it with sorted keys and a two-space indent, at
    the indent ``pad``."""
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = pad + "  "
        texts = [f"{_json_quote(k)}: {_json_item(v[k], inner)}" for k in sorted(v)]
        return "{\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = pad + "  "
        return "[\n" + inner + (",\n" + inner).join([_json_item(x, inner) for x in v]) + "\n" + pad + "]"
    # subclasses such as np.float64 write as their base type, as in json
    base = next((t for t in (float, int, str) if isinstance(v, t)), None)
    if base is None:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    text = _JSON_SCALARS[base](v)
    return _JSON_NONFINITE.get(text, text)


def _json_item(x, pad: str) -> str:
    """``_json_text``, with a scalar of an exact JSON type written here."""
    write = _JSON_SCALARS.get(type(x))
    if write is None:
        return _json_text(x, pad)
    text = write(x)
    return _JSON_NONFINITE.get(text, text)


CSV_COLUMNS = ("index", "theorem", "lower", "upper", "valid")


def csv_table(columns, rows) -> str:
    """CSV with a header line, floats as ``.17g``; no cell needs quoting."""
    lines = [columns, *rows]
    return "".join([",".join([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]) + "\n" for row in lines])


def report_to_csv(report_or_rows) -> str:
    """Entries table as CSV with a fixed column set."""
    rows = report_or_rows
    if isinstance(rows, BoundReport):
        rows = [(e.index, e.theorem, e.lower, e.upper, e.valid) for e in rows.entries]
    return csv_table(CSV_COLUMNS, [
        (index, theorem, float(lower), float(upper), "true" if valid in (True, "true") else "false")
        for index, theorem, lower, upper, valid in rows
    ])


def csv_to_rows(text: str):
    """Parse an entries CSV back into typed rows."""
    header, *lines = text.splitlines()
    if tuple(header.split(",")) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    return [
        (int(index), theorem, float(lower), float(upper), valid == "true")
        for index, theorem, lower, upper, valid in (line.split(",") for line in lines)
    ]


def format_report_table(report: BoundReport) -> str:
    """Human-readable summary, scientific notation with 4 digits."""

    def fmt(x):
        if x is None:
            return "-"
        if math.isinf(x):
            return "inf"
        return f"{x:.4e}"

    lines = [
        f"operator size n={report.n}, subspace dim m={report.m}, target q={report.q}, "
        f"norm={report.norm_kind}",
        "",
        "Ritz values and defects:",
        "  i        mu_i          eta_i",
    ]
    for i, (mu_i, eta_i) in enumerate(zip(report.mu, report.etas), start=1):
        lines.append(f"  {i:<3d}  {fmt(mu_i)}  {fmt(eta_i)}")
    lines.append("")
    lines.append("gap data:")
    lines.append(
        f"  g_q={fmt(report.gaps.g_q)}  gamma_s={fmt(report.gaps.gamma_s)}  "
        f"lambda_(q-1)={fmt(report.gaps.lambda_qm1)}  "
        f"lambda_(q+m)={fmt(report.gaps.lambda_qpm)}"
    )
    lines.append("")
    lines.append("aggregates:")
    for key in sorted(report.aggregates):
        lines.append(f"  {key:<22s} {fmt(report.aggregates[key])}")
    lines.append("")
    lines.append("hypothesis flags:")
    for key in sorted(report.flags):
        lines.append(f"  {key:<22s} {'ok' if report.flags[key] else 'FAILED'}")
    lines.append("")
    lines.append("per-eigenvalue intervals for (mu_i - lambda_i)/mu_i:")
    lines.append("  i    theorem        lower         upper        valid")
    for e in report.entries:
        lines.append(
            f"  {e.index:<3d}  {e.theorem:<12s} {fmt(e.lower):>12s}  "
            f"{fmt(e.upper):>12s}  {'ok' if e.valid else 'FAILED'}"
        )
    return "\n".join(lines) + "\n"

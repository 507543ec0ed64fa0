"""Scaling-robust relative a-posteriori eigenvalue bounds from Ritz test subspaces."""

__version__ = "0.1.0"

from .bounds import (
    BoundEntry,
    BoundReport,
    GapData,
    abs_cluster_bounds,
    build_report,
    classical_temple_kato,
    cluster_upper_bound,
    exactness_ratio,
    first_order_bounds,
    g1_from_spectral_gap,
    gamma_s,
    gq_lower_bound_lemma,
    prop_lower_bound,
    relative_gap_gq,
    residual_eta_sandwich,
    sandwich_bounds,
    trace_sandwich,
)
from .defect import (
    DefectSpectrum,
    RitzData,
    SplitOperator,
    TestSubspace,
    dl_measure,
    etas_moments,
    etas_schur,
    moment_matrices,
    p_diagonal_split,
    relative_residual_identity,
    ritz,
    wilkinson_schur,
)
from .densela import (
    NormKind,
    SymmetricMatrix,
    as_symmetric,
    gen_sym_eig,
    inv_sqrt,
    read_matrix_text,
    singular_values,
    sym_eig,
    sym_eigvals,
    ui_norm,
    write_matrix_text,
)
from .models import (
    fem_assemble,
    fem_ritz,
    hkappa_matrix,
    hkappa_reference,
    periodic_exact,
    schrodinger_bounds,
    schrodinger_drop,
    schrodinger_eta2,
    schrodinger_lambda,
    schrodinger_taylor,
    table1_row,
)

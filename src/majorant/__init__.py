"""Strict majorant property on the torus: classification and counterexamples.

A frequency set in Z^d satisfies the strict majorant property on
L^p([0,1]^d) for every p > 0 exactly when its points are affinely
independent.  This package decides that classification exactly, builds
explicit violating coefficients with their open exponent intervals for
dependent sets, and certifies each violation numerically with margins
safely above the quadrature error.
"""

from .constructions import (
    Certificate,
    VerifyResult,
    assign_signs,
    classify,
    construct_abundant,
    construct_certificates,
    construct_independent,
    construct_moment,
    emit_plot_data,
    verify_certificate,
)
from .cvector import (
    CVector,
    OpenInterval,
    build_c,
    build_v,
    gen_binom,
    is_even_exponent,
    multinomial,
    p_interval,
    sign_condition,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    DomainError,
    HypothesisError,
    MajorantError,
)
from .exact_lattice import (
    Abundance,
    AbundanceScan,
    FrequencySet,
    HnfResult,
    IntMatrix,
    PointGenerator,
    Reduction,
    abundance_scan,
    affine_dimension,
    det_exact,
    hnf,
    is_affinely_independent,
    rank_exact,
    reduce_full_dim,
)
from .lp_engine import (
    EvalConfig,
    PairedDifference,
    QuadResult,
    TaylorResult,
    g_function,
    lp_norm_even_exact,
    lp_norm_quadrature,
    lp_norm_taylor,
    paired_difference,
)
from .moment_curve import (
    c_closed_form,
    factorial_product,
    gamma_point,
    smallest_admissible_k,
    vandermonde_check,
    weak_majorant_bound,
    weak_majorant_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Abundance",
    "AbundanceScan",
    "BudgetError",
    "Certificate",
    "ConvergenceError",
    "CVector",
    "DimensionError",
    "DomainError",
    "EvalConfig",
    "FrequencySet",
    "HnfResult",
    "HypothesisError",
    "IntMatrix",
    "MajorantError",
    "OpenInterval",
    "PairedDifference",
    "PointGenerator",
    "QuadResult",
    "Reduction",
    "TaylorResult",
    "VerifyResult",
    "abundance_scan",
    "affine_dimension",
    "assign_signs",
    "build_c",
    "build_v",
    "c_closed_form",
    "classify",
    "construct_abundant",
    "construct_certificates",
    "construct_independent",
    "construct_moment",
    "det_exact",
    "emit_plot_data",
    "factorial_product",
    "g_function",
    "gamma_point",
    "gen_binom",
    "hnf",
    "is_affinely_independent",
    "is_even_exponent",
    "lp_norm_even_exact",
    "lp_norm_quadrature",
    "lp_norm_taylor",
    "multinomial",
    "p_interval",
    "paired_difference",
    "rank_exact",
    "reduce_full_dim",
    "sign_condition",
    "smallest_admissible_k",
    "vandermonde_check",
    "verify_certificate",
    "weak_majorant_bound",
    "weak_majorant_ratio",
]

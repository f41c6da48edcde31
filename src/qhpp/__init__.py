"""Exact-rational toolkit for Q-homology projective plane computations.

Hirzebruch-Jung continued fractions, cyclic-quotient-singularity invariants,
discriminant and orbifold-BMY filters, curve-class Diophantine obstructions,
and the exhaustive candidate-enumeration pipelines built from them.
"""

from .hjcf import (
    HjCf,
    cf_bump,
    cf_deleted_det,
    cf_evaluate,
    cf_from_pair,
    cf_mod3_criterion,
    enumerate_cfs_by_shape,
    enumerate_cfs_of_order,
    parse_cf,
)
from .obstruction import (
    CurveClass,
    DiophProblem,
    Incidence,
    Regime,
    degree_sum,
    ek_formula,
    esq_formula,
    esq_two_component,
    local_discrepancy,
    m_upper_bound,
    minimal_curve_m,
    solve_dioph,
)
from .ratio import format_rational, is_positive_square, parse_rational, rational_sqrt
from .surface import (
    BmyStatus,
    CyclicSing,
    GramConfig,
    SurfaceCandidate,
    bmy_status,
    candidate_invariants,
    candidate_to_dict,
    dp_data,
    gram_determinant,
)

__version__ = "1.0.0"

__all__ = [
    "HjCf",
    "cf_bump",
    "cf_deleted_det",
    "cf_evaluate",
    "cf_from_pair",
    "cf_mod3_criterion",
    "enumerate_cfs_by_shape",
    "enumerate_cfs_of_order",
    "parse_cf",
    "CurveClass",
    "DiophProblem",
    "Incidence",
    "Regime",
    "degree_sum",
    "ek_formula",
    "esq_formula",
    "esq_two_component",
    "local_discrepancy",
    "m_upper_bound",
    "minimal_curve_m",
    "solve_dioph",
    "format_rational",
    "is_positive_square",
    "parse_rational",
    "rational_sqrt",
    "BmyStatus",
    "CyclicSing",
    "GramConfig",
    "SurfaceCandidate",
    "bmy_status",
    "candidate_invariants",
    "candidate_to_dict",
    "dp_data",
    "gram_determinant",
]

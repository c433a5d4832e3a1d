"""Exact toolkit for multi-twisted Reed-Solomon codes over small fields."""

from .codes import (
    BudgetExceededError,
    LinearCodeView,
    MdsVerdict,
    MultiTwistedCode,
    TwistProfile,
    dual_code,
    encode,
    generator_matrix,
    hull_direct,
    is_mds_bruteforce,
    min_distance_bruteforce,
    twisted_poly,
)
from .criteria import (
    appendix_a_determinants,
    forbidden_eta_sets,
    mds_system_matrix,
    remark44_is_mds,
    sigma_coeffs,
    subfield_chain_construct,
    theorem31_is_mds,
    theorem42_is_mds,
)
from .enumeration import EnumResult, EnumTask, SearchHit, count_mds_double_twisted, search_mds
from .field import Field, FieldSpec, default_modulus
from .hull import (
    GramParts,
    HullReport,
    construct_even,
    construct_odd,
    gram_decomposition,
    hull_report,
    power_sum_theta,
    subgroup_eval,
)
from .linalg import Matrix, row_space_intersection

__all__ = [
    "BudgetExceededError",
    "EnumResult",
    "EnumTask",
    "Field",
    "FieldSpec",
    "GramParts",
    "HullReport",
    "LinearCodeView",
    "Matrix",
    "MdsVerdict",
    "MultiTwistedCode",
    "SearchHit",
    "TwistProfile",
    "appendix_a_determinants",
    "construct_even",
    "construct_odd",
    "count_mds_double_twisted",
    "default_modulus",
    "dual_code",
    "encode",
    "forbidden_eta_sets",
    "generator_matrix",
    "gram_decomposition",
    "hull_direct",
    "hull_report",
    "is_mds_bruteforce",
    "mds_system_matrix",
    "min_distance_bruteforce",
    "power_sum_theta",
    "remark44_is_mds",
    "row_space_intersection",
    "search_mds",
    "sigma_coeffs",
    "subfield_chain_construct",
    "subgroup_eval",
    "theorem31_is_mds",
    "theorem42_is_mds",
    "twisted_poly",
]

__version__ = "0.1.0"

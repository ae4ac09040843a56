"""Exact spectral analysis and minimum-support search on the hypercube.

The library works with exact rational value tables on the vertices of
H(n), provides the Walsh-Hadamard transform and eigenvalue-level tools,
constructs the minimum-support functions of every spectral band from
partition blueprints, verifies their trade and affine-subspace structure,
and cross-checks the whole classification against an independent
brute-force search.
"""

from .functions import (
    MAX_DIMENSION,
    VertexFunction,
    constant_function,
    inner_product,
    inverse_walsh,
    make_function,
    parity_twist,
    restrict,
    support,
    support_size,
    tensor,
    walsh_transform,
    weight,
    zero_function,
)
from .spectral import (
    SpectrumSet,
    character,
    check_eigen_relation,
    eigenvalue_of_level,
    in_band,
    level_project,
    reduction_check,
    spectrum,
)
from .constructions import (
    LOWER,
    UPPER,
    Blueprint,
    blueprint_spectrum,
    build,
    single_level_blueprint,
    enumerate_blueprints,
    is_progression_spectrum,
    phi,
    point_mass,
    psi,
)
from .trades import (
    AffineSubspace,
    TradePair,
    anf_degree,
    detect_affine,
    face_sums_vanish,
    has_disjoint_support_basis,
    is_trade,
    sign_split,
    split_subspace,
    three_values_check,
)
from .search import (
    SearchReport,
    canonical_form,
    equivalent,
    min_support,
    min_support_all,
    min_support_exact_spectrum,
    verify_all,
    verify_classification,
)

__version__ = "0.1.0"

"""Exact Laurent expansions for multivariate germs with linear poles.

All arithmetic runs over the rationals (fractions.Fraction); no floats
enter any computation except the explicitly numeric lattice-sum oracle.
"""

from .errors import *  # noqa: F401,F403
from .exact import (  # noqa: F401
    AmbientSpace,
    Polynomial,
    frac,
    linear_factorization,
    q_orthogonal_complement,
    span_key,
)
from .germs import (  # noqa: F401
    GermSum,
    MeromorphicGerm,
    PolarGerm,
    as_mero,
    canonicalize_polar,
    decompose,
    evaluate,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_mul,
    mero_neg,
    mero_scale,
    mero_sub,
    mero_sum,
    numerator_is_orthogonal,
    reduce_to_independent,
)
from .cones import (  # noqa: F401
    ConeFamily,
    I_cone,
    I_simplicial,
    PolyCone,
    SimplicialCone,
    common_refinement,
    cone_contains,
    cones_meet_along_face,
    is_properly_positioned,
    is_subdivision,
    make_poly_cone,
    make_simplicial_cone,
    positioning_witness,
    triangulate_cone,
    union_contains_line,
)
from .expand import (  # noqa: F401
    DecoratedCone,
    FormalExpansion,
    delta_op,
    expansion_add,
    expansion_neg,
    expansion_scale,
    kernel_generators,
    laurent_expand,
    make_expansion,
    phi,
    subdivide_simple,
    subdivision_operator,
)
from .residues import (  # noqa: F401
    Arrangement,
    CoproductTerm,
    GradedComponentKey,
    brion_vergne_split,
    coproduct,
    graded_split,
    jk_residue,
    make_arrangement,
    p_order,
    p_res,
    pi_minus,
    pi_plus,
    project_U_p,
)
from .latticeexp import (  # noqa: F401
    DEFAULT_TRUNCATION,
    LatticeCone,
    TruncatedGerm,
    bernoulli_tail_coeffs,
    evaluate_truncated,
    exp_integral,
    exp_sum_smooth,
    is_smooth,
    lattice_sum_numeric,
    make_lattice_cone,
    make_truncated,
    p_res_exp_sum,
    smooth_subdivide_2d,
    truncated_add,
    truncated_mul,
)
from .exprio import (  # noqa: F401
    DEFAULT_DIMENSION_CAP,
    SessionConfig,
    ast_evaluate,
    ast_to_string,
    deserialize,
    from_json,
    load_cone_family,
    load_rows,
    parse_expr,
    parse_germ,
    serialize,
    to_germ,
    to_json,
)

__version__ = "0.1.0"

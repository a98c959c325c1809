"""Exact Laurent expansions for multivariate germs with linear poles.

All arithmetic runs over the rationals (fractions.Fraction); no floats
enter any computation except the explicitly numeric lattice-sum oracle.

``import laurentgerms`` loads only ``errors``.  The first read of any other
package attribute (PEP 562) loads every module and binds all the names
below at once, so that the package then holds what an eager import would.
Inside the package, modules import each other as ``from .module import
name``: ``from . import module`` reads a package attribute and so loads
them all.
"""

from .errors import *  # noqa: F401,F403

__version__ = "0.1.0"

# the names each module exports through the package, bound on first read
_EXPORTS = {
    "exact": (
        "AmbientSpace Polynomial frac linear_factorization "
        "q_orthogonal_complement span_key"
    ),
    "germs": (
        "GermSum MeromorphicGerm PolarGerm as_mero canonicalize_polar "
        "decompose evaluate germ_equal make_germ_sum make_mero mero_add "
        "mero_mul mero_neg mero_scale mero_sub numerator_is_orthogonal "
        "reduce_to_independent"
    ),
    "cones": (
        "ConeFamily I_cone I_simplicial PolyCone SimplicialCone "
        "common_refinement cone_contains cones_meet_along_face "
        "is_properly_positioned is_subdivision make_poly_cone "
        "make_simplicial_cone positioning_witness triangulate_cone "
        "union_contains_line"
    ),
    "expand": (
        "DecoratedCone FormalExpansion delta_op expansion_add expansion_neg "
        "expansion_scale kernel_generators laurent_expand make_expansion "
        "phi subdivision_operator"
    ),
    "residues": (
        "Arrangement CoproductTerm GradedComponentKey brion_vergne_split "
        "coproduct graded_split jk_residue make_arrangement p_order p_res "
        "pi_minus pi_plus project_U_p"
    ),
    "latticeexp": (
        "DEFAULT_TRUNCATION LatticeCone TruncatedGerm bernoulli_tail_coeffs "
        "evaluate_truncated exp_integral exp_sum_smooth is_smooth "
        "lattice_sum_numeric make_lattice_cone p_res_exp_sum "
        "smooth_subdivide_2d"
    ),
    "exprio": (
        "deserialize from_json load_cone_family load_rows parse_expr "
        "parse_germ serialize to_germ to_json"
    ),
}


def _bind_exports():
    """Import every module, bind ``_EXPORTS`` here and drop the hooks.

    The names are bound in one go: bound one per read, a name first read
    while its module function is temporarily replaced (as a tracer does)
    would keep the replacement here.
    """
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        home = import_module(f"{__name__}.{module}")
        namespace.update((name, getattr(home, name)) for name in names.split())
    for hook in ("_EXPORTS", "_bind_exports", "__getattr__", "__dir__"):
        namespace.pop(hook, None)
    return namespace


def __getattr__(name: str):
    try:
        return _bind_exports()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    return sorted(_bind_exports())

"""Formal expansions, the subdivision operator, and Laurent expansion."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import laurentgerms.cones as cones_module
import laurentgerms.germs as germs_module
from laurentgerms import exact, expand
from laurentgerms.cones import (
    SimplicialCone,
    common_refinement,
    make_simplicial_cone,
)
from laurentgerms.errors import (
    NotASubdivision,
    NotInLaurentSubspace,
    NotProperlyPositioned,
    OrthogonalityViolated,
)
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    mat_vec,
    max_minor_abs_sum,
    primitive_vector,
    vec,
    vec_dot,
)
from laurentgerms.expand import (
    DecoratedCone,
    _subdivide_term,
    delta_op,
    expansion_add,
    expansion_neg,
    expansion_scale,
    kernel_generators,
    laurent_expand,
    make_expansion,
    phi,
    subdivision_operator,
)
from laurentgerms.exprio import deserialize, parse_germ, serialize
from laurentgerms.germs import (
    PolarGerm,
    as_mero,
    canonicalize_polar,
    decompose,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_scale,
    numerator_is_orthogonal,
    reduce_to_independent,
    sum_by_factors,
)
from laurentgerms.residues import graded_split, p_order, p_res, pi_plus

from conftest import (
    assert_coproducts_agree,
    canonical_expansion_reference,
    clear_expansion_caches,
    common_face_certificate,
    common_refinement_reference,
    expansion_from_raw,
    mero_sum,
    polar_certificate,
    q_dual_family,
    random_germ,
    random_polynomial,
    random_pseudo_positive_cone,
    round_trip_corpus,
    skew_space,
    tiling_certificate,
)

F = Fraction
SP = AmbientSpace.standard(2)


def cone(*gens):
    return make_simplicial_cone(gens)


def mero(num_const, *factors, k=2):
    return make_mero(Polynomial.constant(k, num_const),
                     tuple((vec(v), e) for v, e in factors))


def simple_exp(space, items, k=2):
    return expansion_from_raw(space,
                              [(tuple((vec(v), e) for v, e in fac),
                                Polynomial.constant(k, c))
                               for fac, c in items],
                              Polynomial.zero(k))


# ---------------------------------------------------------------------------
# the expansion container and phi

def test_make_expansion_merges_and_drops_zero_terms():
    fac = (((1, 0), 1),)
    x = simple_exp(SP, [(fac, 1), (fac, -1)])
    assert x.is_zero()


def test_raw_terms_are_canonicalized_before_they_merge():
    # 1/(2 x1) + 1/x1 is one term 3/2 on <(1,0)>; 1/x1 + 1/(-x1) is zero
    x = simple_exp(SP, [((((2, 0), 1),), 1), ((((1, 0), 1),), 1)])
    assert x == make_expansion([(((vec([1, 0]), 1),),
                                 Polynomial.constant(2, F(3, 2)))],
                               Polynomial.zero(2))
    assert len(x.terms) == 1
    assert simple_exp(SP, [((((1, 0), 1),), 1),
                           ((((-1, 0), 1),), 1)]) == make_expansion(
        [], Polynomial.zero(2))


def test_make_expansion_validates_orthogonality():
    from laurentgerms.errors import NotPolar

    bad_num = Polynomial.linear_form(vec([1, 0]))
    with pytest.raises(NotPolar):
        expansion_from_raw(SP, [(((vec([1, 0]), 2),), bad_num)],
                           Polynomial.zero(2))


def three_variable_expansion():
    """The expansion of x2/(x1*(x1+x2+x3)): three terms, one numerator
    nonconstant."""
    f = make_mero(Polynomial.variable(3, 1), (((1, 0, 0), 1), ((1, 1, 1), 1)))
    return laurent_expand(AmbientSpace.standard(3), f)


def test_polar_checks_reject_mismatched_dimensions():
    x = three_variable_expansion()
    items = [(dc.factors, num) for dc, num in x.terms]
    for k in (2, 4):
        space = AmbientSpace.standard(k)
        message = f"numerator in 3 variables, space of dimension {k}"
        with pytest.raises(ValueError, match=message):
            expansion_from_raw(space, items, Polynomial.zero(3))
        for dc, num in x.terms:
            forms = [v for v, _ in dc.factors]
            with pytest.raises(ValueError, match=message):
                canonicalize_polar(space, num, dc.factors)
            with pytest.raises(ValueError, match=message):
                numerator_is_orthogonal(space, num, forms)
    message = "numerator in 3 variables, pole form of length 2"
    with pytest.raises(ValueError, match=message):
        canonicalize_polar(None, Polynomial.constant(3, 1), (((1, 0), 1),))
    with pytest.raises(ValueError, match=message):
        numerator_is_orthogonal(None, Polynomial.constant(3, 1), [(1, 0)])


def test_phi_sums_terms_and_polynomial_part():
    x = make_expansion([(((vec([1, 0]), 1),), Polynomial.constant(2, 1))],
                       Polynomial.constant(2, 5))
    expected = make_mero(
        Polynomial.constant(2, 5) * Polynomial.linear_form(vec([1, 0]))
        + Polynomial.constant(2, 1),
        ((vec([1, 0]), 1),))
    assert phi(x) == expected


def test_expansion_linear_operations():
    a = simple_exp(SP, [((((1, 0), 1),), 1)])
    b = simple_exp(SP, [((((0, 1), 1),), 2)])
    s = expansion_add(a, b)
    assert len(s.terms) == 2
    assert expansion_add(s, expansion_neg(s)).is_zero()
    doubled = expansion_scale(F(2), a)
    assert phi(doubled) == mero_scale(F(2), phi(a))
    zero = expansion_scale(0, s)
    assert zero.is_zero() and zero.nvars == 2


# ---------------------------------------------------------------------------
# subdividing a simple fraction

def polar_expansion(g):
    """The one-term expansion of a polar germ on its own cone."""
    return make_expansion([(g.factors, g.numerator)], Polynomial.zero(g.nvars))


def test_subdivide_simple_reproduces_basic_identity():
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    pieces = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    x = subdivision_operator(polar_expansion(g), pieces)
    assert germ_equal(phi(x), g.as_mero())
    facs = sorted(dc.factors for dc, _ in x.terms)
    assert facs == [
        (((F(0), F(1)), 1), ((F(1), F(1)), 1)),
        (((F(1), F(0)), 1), ((F(1), F(1)), 1)),
    ]


def test_subdivide_simple_weights_scale_with_subcone_volume():
    # splitting <e1> x <e2> along (1,2) gives weight ratios 2 and 1... the
    # identity survives as phi-equality whatever the ratios are
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    pieces = [cone((1, 0), (1, 2)), cone((0, 1), (1, 2))]
    x = subdivision_operator(polar_expansion(g), pieces)
    assert germ_equal(phi(x), g.as_mero())


def test_subdivide_simple_scales_each_piece_by_its_minor_ratio():
    g = canonicalize_polar(None, Polynomial.constant(2, 3),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    pieces = [cone((1, 0), (1, 2)), cone((0, 1), (1, 2))]
    x = subdivision_operator(polar_expansion(g), pieces)
    assert x == make_expansion(
        [(((vec([0, 1]), 1), (vec([1, 2]), 1)), Polynomial.constant(2, 3)),
         (((vec([1, 0]), 1), (vec([1, 2]), 1)), Polynomial.constant(2, 6))],
        Polynomial.zero(2))


def test_subdivide_simple_rejects_non_subdivision():
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    with pytest.raises(NotASubdivision):
        subdivision_operator(polar_expansion(g), [cone((1, 0), (1, 1))])
    with pytest.raises(NotASubdivision):
        subdivision_operator(polar_expansion(g), [cone((1, 1))])


# ---------------------------------------------------------------------------
# the derivation delta

def test_delta_increments_exponents_with_pairing_weights():
    x = simple_exp(SP, [(((( 1, 0), 1), ((0, 1), 1)), 1)])
    lstar = vec([1, 0])
    d = delta_op(SP, lstar, x)
    # d/d(eps1 direction): bumps only the (1,0) slot since <e1,e2> = 0
    assert len(d.terms) == 1
    dc, num = d.terms[0]
    assert dc.factors == (((F(0), F(1)), 1), ((F(1), F(0)), 2))
    assert num == Polynomial.constant(2, 1)


def test_delta_annihilates_polynomial_part():
    x = make_expansion([], Polynomial.constant(2, 7))
    d = delta_op(SP, vec([1, 0]), x)
    assert d.is_zero()


def test_delta_requires_orthogonal_direction():
    # numerator depends on eps2; deriving along eps2 must be refused
    num = Polynomial.linear_form(vec([0, 1]))
    x = make_expansion([(((vec([1, 0]), 1),), num)], Polynomial.zero(2))
    with pytest.raises(OrthogonalityViolated):
        delta_op(SP, vec([0, 1]), x)


def test_delta_rejects_mismatched_dimensions():
    x = three_variable_expansion()
    with pytest.raises(ValueError, match="in 3 variables, space of dimension 2"):
        delta_op(SP, vec([1, 0]), x)
    with pytest.raises(ValueError, match="lstar of length 2"):
        delta_op(AmbientSpace.standard(3), vec([1, 0]), x)
    y = simple_exp(SP, [((((1, 0), 1),), 1)])
    with pytest.raises(ValueError, match="in 2 variables, space of dimension 3"):
        delta_op(AmbientSpace.standard(3), vec([1, 0, 0]), y)


# ---------------------------------------------------------------------------
# the subdivision operator on expansions

def fan_E():
    return [cone((1, 0), (2, 1)), cone((2, 1), (1, 1)), cone((1, 1), (0, 1))]


def test_subdivision_operator_on_higher_order_pole():
    # 1/(x1^2 x2) over the fan {<e1,e1+e2>, <e2,e1+e2>}
    x = expansion_from_raw(SP, [(((vec([1, 0]), 2), (vec([0, 1]), 1)),
                                 Polynomial.constant(2, 1))],
                           Polynomial.zero(2))
    fam = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    y = subdivision_operator(x, fam)
    assert germ_equal(phi(y), phi(x))
    got = {dc.factors: num for dc, num in y.terms}
    one = Polynomial.constant(2, 1)
    assert got == {
        (((F(1), F(0)), 2), ((F(1), F(1)), 1)): one,
        (((F(1), F(0)), 1), ((F(1), F(1)), 2)): one,
        (((F(0), F(1)), 1), ((F(1), F(1)), 2)): one,
    }


def test_subdivision_operator_preserves_phi_on_random_expansions():
    rng = random.Random(40)
    fam = fan_E()
    for _ in range(15):
        terms = []
        for c in [cone((1, 0), (1, 1)), cone((1, 1), (0, 1))]:
            if rng.random() < 0.8:
                factors = tuple((g, rng.randint(1, 2)) for g in c.generators)
                terms.append((factors,
                              Polynomial.constant(2, F(rng.randint(-3, 3)))))
        x = expansion_from_raw(SP, terms, Polynomial.zero(2))
        y = subdivision_operator(x, fam)
        assert germ_equal(phi(y), phi(x))
        for dc, _ in y.terms:
            forms = [v for v, _ in dc.factors]
            assert any(all(any(f == g for g in c.generators) for f in forms)
                       for c in fam)


def test_subdivision_operator_is_transitive():
    # refining in one step or through an intermediate fan gives the same
    # expansion
    x = expansion_from_raw(SP, [(((vec([1, 0]), 1), (vec([0, 1]), 1)),
                                 Polynomial.constant(2, 1))],
                           Polynomial.zero(2))
    middle = [cone((1, 0), (1, 1)), cone((1, 1), (0, 1))]
    fine = fan_E()
    direct = subdivision_operator(x, fine)
    via = subdivision_operator(subdivision_operator(x, middle), fine)
    assert direct == via


def test_subdivision_operator_rejects_non_pan_subdivision():
    x = expansion_from_raw(SP, [(((vec([1, 0]), 1), (vec([0, 1]), 1)),
                                 Polynomial.constant(2, 1))],
                           Polynomial.zero(2))
    with pytest.raises(NotASubdivision):
        subdivision_operator(x, [cone((1, 0), (1, 1))])


def test_subdivision_operator_rejects_an_improper_family():
    x = expansion_from_raw(SP, [(((vec([1, 0]), 1), (vec([0, 1]), 1)),
                                 Polynomial.constant(2, 1))],
                           Polynomial.zero(2))
    overlapping = [cone((1, 0), (0, 1)), cone((1, 1), (1, -1))]
    with pytest.raises(NotProperlyPositioned):
        subdivision_operator(x, overlapping)


def test_subdivision_operator_checks_each_pair_of_the_family_once(
        monkeypatch):
    # the growth germ of dimension 3 on its refinement: one pass over the
    # pairs of the family, then facet counts; no coordinate solve anywhere
    calls = []
    meet = cones_module._pieces_meet_along_face

    def counting(a, b):
        calls.append((a, b))
        return meet(a, b)

    def refuse(*args):
        raise AssertionError("solve called")

    f = make_mero(Polynomial.constant(3, 1),
                  [(vec(v), 1) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                         (1, 1, 1), (1, 2, 3))])
    sp = AmbientSpace.standard(3)
    s = decompose(sp, f)
    cones = list(dict.fromkeys(DecoratedCone(t.factors).cone
                               for t in s.terms))
    family = common_refinement(cones)[0]
    n = len(family)
    polar = make_expansion([(t.factors, t.numerator) for t in s.terms],
                           s.poly)
    monkeypatch.setattr(cones_module, "_pieces_meet_along_face", counting)
    monkeypatch.setattr(exact, "solve", refuse)
    assert "solve" not in vars(cones_module) and "solve" not in vars(expand)
    assert subdivision_operator(polar, family) == laurent_expand(sp, f)
    assert n > len(cones) and len(calls) == n * (n - 1) // 2
    calls.clear()
    assert laurent_expand(sp, f, support=family[::-1]) == laurent_expand(sp, f)
    assert len(calls) == n * (n - 1) // 2


def test_a_family_of_another_ambient_dimension_is_refused_by_name():
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    solid = [cone((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    pattern = ("^an expansion and its family live in ambient "
               "dimensions 2 and 3$")
    with pytest.raises(ValueError, match=pattern):
        subdivision_operator(laurent_expand(SP, g), solid)
    with pytest.raises(ValueError, match=pattern):
        laurent_expand(SP, g, support=solid)
    # a directly built member is read by every generator's length, whatever
    # the order its normal form gives them
    ragged = [cone((1, 0), (0, 1)), SimplicialCone(((0, 1), (1, 0, 0)))]
    with pytest.raises(ValueError, match=pattern):
        laurent_expand(SP, g, support=ragged)
    with pytest.raises(ValueError, match=pattern):
        laurent_expand(SP, g, support=[SimplicialCone(((1, 0, 0), (0, 1)))])


# ---------------------------------------------------------------------------
# subdivision coefficients against the minor-sum and Q-dual formula

def _reference_subdivide_term(space, factors, num, pieces):
    """Each piece weighted by max_minor_abs_sum(piece) / max_minor_abs_sum
    (forms), each raising step by Q(L*_j, v) through q_dual_family."""
    forms = [v for v, _ in factors]
    exps = [s for _, s in factors]
    n = len(forms)
    a = max_minor_abs_sum(forms, n)
    q_duals = [mat_vec(space.gram, d) for d in q_dual_family(space, forms)]
    scale = F(1)
    for s in exps:
        scale /= math.factorial(s - 1)
    out = []
    for piece in pieces:
        b = max_minor_abs_sum(list(piece.generators), n)
        state = [(b / a, {v: 1 for v in piece.generators})]
        for j, s in enumerate(exps):
            for _ in range(s - 1):
                nxt = []
                for coef, den in state:
                    for v, r in den.items():
                        q = vec_dot(q_duals[j], v)
                        if q == 0:
                            continue
                        bumped = dict(den)
                        bumped[v] = r + 1
                        nxt.append((coef * r * q, bumped))
                state = nxt
        for coef, den in state:
            out.append((tuple(sorted(den.items())), num.scale(coef * scale)))
    return out


def _by_denominator(items):
    return sum_by_factors((num, factors) for factors, num in items)


def test_subdivision_coefficients_are_the_minor_sum_and_dual_formula():
    # the coefficients come from coordinates in the cone's basis; they must
    # equal the Q-dependent formula under both pairings of acceptance 9,
    # once the reference's raise paths are added up by denominator
    rng = random.Random(12)
    split = low_split = unsplit = 0
    for _ in range(100):
        k = rng.randint(1, 3)
        target = random_pseudo_positive_cone(rng, k, rng.randint(1, k))
        others = [random_pseudo_positive_cone(rng, k, rng.randint(1, k))
                  for _ in range(rng.randint(1, 3))]
        pieces, index_sets = common_refinement([target] + others)
        mine = [pieces[i] for i in index_sets[0]]
        factors = tuple((g, rng.randint(1, 3)) for g in target.generators)
        num = random_polynomial(rng, k)
        got = _by_denominator(_subdivide_term(factors, num, mine))
        for space in (AmbientSpace.standard(k), skew_space(k)):
            assert got == _by_denominator(
                _reference_subdivide_term(space, factors, num, mine))
        split += len(mine) > 1
        low_split += len(mine) > 1 and target.dim < k == 3
        # a term whose only piece is its own cone passes through unchanged
        unsplit += mine == [target]
    assert split >= 30 and low_split >= 10 and unsplit >= 50


def test_subdivision_yields_each_denominator_once():
    # one raise path per ordered raise sequence would repeat a denominator
    # many times; the merged state keeps one entry for each
    for forms, exps in [(((1, 0), (0, 1)), (4, 3)),
                        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), (3, 2, 3))]:
        target = cone(*forms)
        pieces, index_sets = common_refinement(
            [target, cone(*forms[1:], tuple(1 for _ in forms))])
        mine = [pieces[i] for i in index_sets[0]]
        factors = tuple(zip(target.generators, exps))
        num = Polynomial.constant(len(forms), 1)
        got = _subdivide_term(factors, num, mine)
        dens = [den for den, _ in got]
        assert len(mine) > 1 and len(dens) == len(set(dens))
        want = _reference_subdivide_term(AmbientSpace.standard(len(forms)),
                                         factors, num, mine)
        assert len(want) > len(dens)
        assert _by_denominator(got) == _by_denominator(want)


@pytest.mark.parametrize("text, k", [
    ("1/(x1^6*x2^6*(x1+x2)^6*(x1+2*x2)^6)", 2),
    ("1/(x1^3*x2^3*x3^3*(x1+x2+x3)^3*(x1+2*x2+3*x3)^3)", 3)])
def test_high_pole_orders_round_trip(text, k):
    # exponentially many raise paths, polynomially many terms: the merged
    # subdivision expands these in well under a second
    f = parse_germ(text, k)
    for space in (AmbientSpace.standard(k), skew_space(k)):
        assert phi(laurent_expand(space, f)) == f


# ---------------------------------------------------------------------------
# Laurent expansion

def test_laurent_expand_known_example():
    # (x1 + 2 x2)/(x1 (x1+x2) x2) over its canonical support
    g = make_mero(Polynomial.linear_form(vec([1, 2])),
                  ((vec([1, 0]), 1), (vec([1, 1]), 1), (vec([0, 1]), 1)))
    x = laurent_expand(SP, g)
    got = {dc.factors: num for dc, num in x.terms}
    assert got == {
        (((F(0), F(1)), 1), ((F(1), F(1)), 1)): Polynomial.constant(2, 1),
        (((F(1), F(0)), 1), ((F(1), F(1)), 1)): Polynomial.constant(2, 2),
    }
    assert x.polynomial_part.is_zero()


def test_laurent_expand_round_trip():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(1, 3)
        sp = AmbientSpace.standard(k)
        f = random_germ(rng, k, max_forms=3, degree=2)
        x = laurent_expand(sp, f)
        assert germ_equal(phi(x), f)


def test_laurent_expand_on_explicit_support():
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    support = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    x = laurent_expand(SP, g, support=support)
    assert germ_equal(phi(x), g)
    for dc, _ in x.terms:
        forms = tuple(v for v, _ in dc.factors)
        assert forms in (support[0].generators, support[1].generators)


def test_laurent_expand_is_deterministic_under_shuffling():
    rng = random.Random(42)
    base = random_germ(random.Random(999), 2, max_forms=4, degree=2)
    sp = SP
    reference = laurent_expand(sp, base)
    for _ in range(5):
        # rebuild the same germ with factors fed in a shuffled order
        factors = list(base.den)
        rng.shuffle(factors)
        rebuilt = make_mero(base.numerator, tuple(factors))
        assert rebuilt == base
        assert laurent_expand(sp, rebuilt) == reference


def test_laurent_expand_rejects_bad_supports():
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    overlapping = [cone((1, 0), (0, 1)), cone((1, 1), (1, -1))]
    with pytest.raises(NotProperlyPositioned):
        laurent_expand(SP, g, support=overlapping)
    coarse = [cone((1, 0), (0, 1))]
    # the support must subdivide the germ's cones; a strictly coarser family
    # cannot carry the expansion
    g2 = make_mero(Polynomial.constant(2, 1),
                   ((vec([1, 0]), 1), (vec([1, 1]), 1)))
    with pytest.raises(NotInLaurentSubspace,
                       match=r"^the support does not tile the pole cones "
                             r"of decompose\(f\)$"):
        laurent_expand(SP, g2, support=coarse)


def test_an_empty_support_carries_only_a_polynomial():
    # no member tiles a pole cone, so a germ with poles has no expansion on
    # the empty family; a polynomial has its own, which needs no cone
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    with pytest.raises(NotInLaurentSubspace,
                       match=r"^the support does not tile the pole cones "
                             r"of decompose\(f\)$"):
        laurent_expand(SP, g, support=[])
    p = make_mero(Polynomial.variable(2, 0) ** 2 + Polynomial.constant(2, 3))
    x = laurent_expand(SP, p, support=[])
    assert x == laurent_expand(SP, p) and x.terms == ()


def test_a_supplied_support_is_read_as_a_set():
    # a repeated member counts once; summed twice, phi would be 2f
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    a, b = cone((1, 0), (1, 1)), cone((0, 1), (1, 1))
    x = laurent_expand(SP, g, support=[a, b])
    assert laurent_expand(SP, g, support=[a, a, b]) == x
    assert phi(laurent_expand(SP, g, support=[b, a, b, a])) == g
    polar = simple_exp(SP, [(([(1, 0), 1], [(0, 1), 1]), 1)])
    assert subdivision_operator(polar, [a, a, b]) == x
    # a set of cones: a member listed again at another positive scaling of
    # its generators is the same member
    doubled = SimplicialCone(((0, 2), (2, 0)))
    assert subdivision_operator(polar, [cone((1, 0), (0, 1)), doubled]) == polar
    assert laurent_expand(
        SP, g, support=[a, SimplicialCone(((3, 3), (2, 0))), b]) == x


def test_a_refinement_of_scaled_generators_can_be_expanded_onto():
    # a directly built cone with scaled generators and a cone it overlaps:
    # each refinement piece is listed once, in primitive form (pinned in
    # test_cones), so the two pieces inside the quadrant tile it and
    # 1/(x1 x2) moves onto them
    scaled = SimplicialCone(((F(0), F(3)), (F(2), F(0))))
    pieces, _ = common_refinement([scaled, cone((1, 1), (-1, 2))])
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    x = subdivision_operator(laurent_expand(SP, g), pieces)
    assert x.support() == pieces[:2] and phi(x) == g
    # a supplied support with scaled generators is read in the normal form
    # of make_simplicial_cone: its terms carry primitive forms, as on the
    # same support built by make_simplicial_cone, and serialize back
    support = [SimplicialCone(((0, 3), (3, 3))),
               SimplicialCone(((1, 1), (2, 0)))]
    y = laurent_expand(SP, g, support=support)
    assert y == laurent_expand(SP, g,
                               support=[cone(*c.generators) for c in support])
    assert repr(y) == "FormalExpansion(<(0,1) (1,1)>: 1 (+) <(1,0) (1,1)>: 1)"
    assert deserialize(serialize(y)) == y


def test_a_cone_is_read_alike_at_any_positive_scaling_of_its_generators():
    # each member rebuilt directly on its generators, shuffled, each times
    # a random positive rational, is the same cone: a family with a face of
    # one member refines as before, and a germ expands on the scaled pieces
    # of its canonical support exactly as on the pieces themselves
    rng = random.Random(46)

    def scaled(c):
        gens = [tuple(x * s for x in g) for g, s in zip(c.generators, [
            F(rng.randint(1, 5), rng.randint(1, 5)) for _ in c.generators])]
        rng.shuffle(gens)
        return SimplicialCone(tuple(gens))

    for _ in range(40):
        k = rng.randint(2, 3)
        member = random_pseudo_positive_cone(rng, k, k)
        face = cone(*rng.sample(member.generators, rng.randint(1, k - 1)))
        family = [member, face, random_pseudo_positive_cone(
            rng, k, rng.randint(1, k))]
        rng.shuffle(family)
        assert (common_refinement([scaled(c) for c in family])
                == common_refinement(family))
        g = make_mero(Polynomial.constant(k, 1))
        for c in family:
            g = mero_add(g, make_mero(Polynomial.constant(k, 1),
                                      tuple((v, 1) for v in c.generators)))
        sp = AmbientSpace.standard(k)
        poles = dict.fromkeys(DecoratedCone(t.factors).cone
                              for t in decompose(sp, g).terms)
        pieces = common_refinement(poles)[0]
        assert (laurent_expand(sp, g, support=[scaled(p) for p in pieces])
                == laurent_expand(sp, g, support=pieces))


def test_laurent_expand_on_a_support_without_the_cancelling_pieces():
    # corpus germ 147: 1 of the 14 refinement pieces carries only terms
    # that cancel, so the canonical support does not tile the cones of
    # decompose; the canonical expansion lies on it all the same
    k, f = round_trip_corpus()[147]
    for sp in (AmbientSpace.standard(k), skew_space(k)):
        x = laurent_expand(sp, f)
        s = decompose(sp, f)
        cones = list(dict.fromkeys(DecoratedCone(t.factors).cone
                                   for t in s.terms))
        pieces = common_refinement(cones)[0]
        assert len(pieces) == 14 and len(x.support()) == 13
        polar = make_expansion([(t.factors, t.numerator) for t in s.terms],
                               s.poly)
        with pytest.raises(NotASubdivision):
            subdivision_operator(polar, x.support())
        assert laurent_expand(sp, f, support=x.support()) == x
        assert laurent_expand(sp, f, support=pieces) == x
        # finer than the canonical support and still not a tiling of the
        # cones of decompose: the canonical expansion moves onto it
        sigma = next(c for c in x.support() if c.dim == 3)
        family = starred(x.support(), sigma)
        assert len(family) == 15
        y = laurent_expand(sp, f, support=family)
        assert y == subdivision_operator(x, family) and phi(y) == f


def starred(support, sigma):
    """``support`` with its member ``sigma`` replaced by the stellar
    subdivision of ``sigma`` at the primitive sum of its generators."""
    w = primitive_vector([sum(c) for c in zip(*sigma.generators)])
    stellar = [cone(*(w if h == g else h for h in sigma.generators))
               for g in sigma.generators]
    return [p for p in support if p != sigma] + stellar


def test_a_support_finer_than_the_canonical_one_carries_its_expansion():
    # every corpus germ whose canonical support has a full-dimensional
    # cone: starring that cone gives the canonical expansion moved onto
    # the finer family, and leaving it out leaves a cone untiled
    checked = 0
    for k, f in round_trip_corpus():
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            x = laurent_expand(sp, f)
            sigma = next((c for c in x.support() if c.dim == k), None)
            if sigma is None:
                continue
            family = starred(x.support(), sigma)
            assert (laurent_expand(sp, f, support=family)
                    == subdivision_operator(x, family))
            without = [c for c in x.support() if c != sigma]
            with pytest.raises(NotInLaurentSubspace,
                               match=r"^the support does not tile the pole "
                                     r"cones of decompose\(f\)$"):
                laurent_expand(sp, f, support=without)
            checked += 1
    assert checked == 130


def reference_support(space, f):
    """The pieces of ``common_refinement_reference`` on the pole cones of
    ``decompose(space, f)``: every cone, faces included, slices."""
    cones = dict.fromkeys(DecoratedCone(t.factors).cone
                          for t in decompose(space, f).terms)
    return common_refinement_reference(cones)[0]


def assert_maps_agree(sp, f, x, y):
    """Two expansions of ``f`` on different supports: ``phi`` of each is
    ``f``, residues and gradings read the same, and so does the coproduct
    as a tensor."""
    assert phi(x) == f and phi(y) == f
    assert p_order(sp, x) == p_order(sp, y)
    assert pi_plus(sp, x) == pi_plus(sp, y)
    assert germ_equal(p_res(sp, x), p_res(sp, y))
    gx, gy = graded_split(sp, x), graded_split(sp, y)
    assert gx.keys() == gy.keys()
    assert all(germ_equal(gx[key], gy[key]) for key in gx)
    assert_coproducts_agree(sp, x, y)


def test_expansions_on_the_coarser_and_the_finer_refinement_agree():
    # the canonical support slices by the hyperplanes of maximal cones
    # only; the reference slices by those of every cone.  The expansion
    # is unique up to subdivision, so residues and gradings read the same
    differ = 0
    for k, f in round_trip_corpus():
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            x = laurent_expand(sp, f)
            y = laurent_expand(sp, f, support=reference_support(sp, f))
            assert_maps_agree(sp, f, x, y)
            differ += x != y
    assert differ > 30


def stellar_support(space, f, x, rng):
    """The refinement pieces of the pole cones of ``decompose(space, f)``
    with one piece of ``x.support()`` of dimension >= 2, a face of no other
    piece, replaced by its stellar subdivision at the primitive sum of its
    generators; None when ``x.support()`` has no such piece."""
    cones = dict.fromkeys(DecoratedCone(t.factors).cone
                          for t in decompose(space, f).terms)
    pieces = common_refinement(list(cones))[0]
    maximal = [p for p in x.support() if p.dim >= 2 and not any(
        set(p.generators) < set(q.generators) for q in pieces)]
    if not maximal:
        return None
    return starred(pieces, rng.choice(maximal))


def test_expansions_on_a_stellar_subdivision_agree():
    # support independence on a second family: one piece that carries
    # terms is coned from an interior ray; residues and gradings keep
    # their values
    rng = random.Random(48)
    checked = 0
    for k, f in round_trip_corpus()[::3]:
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            x = laurent_expand(sp, f)
            family = stellar_support(sp, f, x, rng)
            if family is None:
                continue
            y = laurent_expand(sp, f, support=family)
            assert y != x
            assert_maps_agree(sp, f, x, y)
            checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# the cache of canonical expansions

@pytest.fixture
def decompose_calls(monkeypatch):
    """Empty expansion caches and a list that grows by one per
    ``decompose`` call made by ``laurent_expand``."""
    calls = []

    def counting(space, f):
        calls.append(f)
        return decompose(space, f)

    clear_expansion_caches()
    monkeypatch.setattr(expand, "decompose", counting)
    yield calls
    clear_expansion_caches()


def test_repeat_expansions_of_one_germ_share_one_entry(decompose_calls):
    f = make_mero(Polynomial(2, {(1, 0): 1, (0, 1): F(1, 2)}),
                  ((vec([1, 0]), 2), (vec([1, 1]), 1), (vec([1, -1]), 1)))
    s = decompose(SP, f)
    assert len(s.terms) > 1
    p = Polynomial(2, {(2, 0): 3, (0, 0): F(-1, 2)})
    for one_germ in ((f, s), (p, make_mero(p))):
        before = len(decompose_calls)
        first = laurent_expand(SP, one_germ[0])
        for g in one_germ + one_germ:
            assert laurent_expand(SP, g) == first
        assert len(decompose_calls) == before + 1
    assert germ_equal(phi(laurent_expand(SP, s)), f)


def test_equal_spaces_share_an_entry_and_other_products_do_not(
        decompose_calls):
    # x2^2 / (x1^2 (x1 + x2)): the numerator on the double pole depends on Q
    f = make_mero(Polynomial(2, {(0, 2): 1}),
                  ((vec([1, 0]), 2), (vec([1, 1]), 1)))
    x = laurent_expand(AmbientSpace.standard(2), f)
    assert laurent_expand(AmbientSpace.standard(2), f) is x
    assert len(decompose_calls) == 1
    y = laurent_expand(skew_space(2), f)
    assert len(decompose_calls) == 2
    assert laurent_expand(skew_space(2), f) is y
    assert laurent_expand(AmbientSpace.standard(2), f) is x
    assert len(decompose_calls) == 2
    assert x != y


def test_mismatched_variable_count_raises_on_every_call(decompose_calls):
    f = make_mero(Polynomial.constant(3, 1), ((vec([1, 1, 1]), 1),))
    for _ in range(2):
        with pytest.raises(ValueError, match="3 variables"):
            laurent_expand(SP, f)
    assert len(decompose_calls) == 2


def test_a_supplied_support_is_checked_before_decompose(decompose_calls):
    # the germ's decompose takes seconds; an improper support is refused
    # before it runs
    f = parse_germ("((1/2)*x1^19*x2)/(((1/2)*x2-x1)*(x1+2*x3-3*x2)^3)", 3)
    support = [cone((F(1, 2), F(1, 2), 1), (0, 2, 2)),
               cone((1, 1, 1), (-1, F(1, 2), 1))]
    with pytest.raises(NotProperlyPositioned,
                       match="^target family is not properly positioned$"):
        laurent_expand(AmbientSpace.standard(3), f, support=support)
    overlapping = [cone((1, 0), (0, 1)), cone((1, 1), (1, -1))]
    with pytest.raises(NotProperlyPositioned):
        laurent_expand(SP, parse_germ("1/(x1*x2)", 2), support=overlapping)
    assert decompose_calls == []


def test_expansions_on_a_chosen_support_bypass_the_cache(decompose_calls):
    g = make_mero(Polynomial.constant(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    support = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    canonical = laurent_expand(SP, g)
    finer = laurent_expand(SP, g, support=support)
    assert laurent_expand(SP, g, support=support) == finer != canonical
    assert len(decompose_calls) == 3
    assert laurent_expand(SP, g) is canonical
    assert len(decompose_calls) == 3
    clear_expansion_caches()
    laurent_expand(SP, g, support=support)
    laurent_expand(SP, g)
    assert len(decompose_calls) == 5


def test_the_cache_keeps_only_the_most_recent_expansions(decompose_calls):
    bound = expand._EXPANSION_CACHE_SIZE
    assert 2 <= bound <= 8
    germs = [make_mero(Polynomial.constant(2, 1), ((vec([1, j]), 1),))
             for j in range(1, bound + 2)]
    first = [laurent_expand(SP, g) for g in germs[:bound]]
    assert [laurent_expand(SP, g) for g in germs[:bound]] == first
    assert len(decompose_calls) == bound
    laurent_expand(SP, germs[bound])
    assert len(decompose_calls) == bound + 1
    assert laurent_expand(SP, germs[0]) == first[0]
    assert decompose_calls[-1] == germs[0]
    assert len(decompose_calls) == bound + 2


def counted(monkeypatch, module, name):
    """A list that grows by the arguments of each call of ``module.name``."""
    calls, fn = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_cached_expansions_equal_the_uncached_reference_on_the_corpus():
    # both products in both orders: a cold entry, the entry of a germ that
    # the other product filled, and a repeat that hits
    corpus = round_trip_corpus()
    spaces = {k: (AmbientSpace.standard(k), skew_space(k)) for k in (1, 2, 3)}
    reference = [[canonical_expansion_reference(sp, f) for sp in spaces[k]]
                 for k, f in corpus]
    for order in (0, 1), (1, 0):
        clear_expansion_caches()
        for (k, f), expected in zip(corpus, reference):
            firsts = [laurent_expand(spaces[k][i], f) for i in order]
            assert firsts == [expected[i] for i in order]
            assert all(laurent_expand(spaces[k][i], f) is x
                       for i, x in zip(order, firsts))
    clear_expansion_caches()


def test_the_polar_certificate_agrees_on_the_terms_of_laurent_expand():
    # sympy decides every term that the subdivision writes: the 24 corpus
    # germs whose pole cones the refinement cuts under the identity, and
    # the first three it leaves uncut, under the identity and the skew
    # product; a subdivided term with x1 for its numerator is not polar
    pytest.importorskip("sympy")
    corpus = round_trip_corpus()
    cut, uncut = [], []
    for k, f in corpus:
        sp = AmbientSpace.standard(k)
        poles = {SimplicialCone(tuple(v for v, _ in t.factors))
                 for t in decompose(sp, f).terms}
        (cut if set(laurent_expand(sp, f).support()) != poles
         else uncut).append((k, f))
    assert len(cut) == 24
    checked = 0
    for k, f in cut + uncut[:3]:
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            for dc, num in laurent_expand(sp, f).terms:
                forms = [v for v, _ in dc.factors]
                assert polar_certificate(sp, PolarGerm(num, dc.factors))
                assert numerator_is_orthogonal(sp, num, forms)
                checked += 1
    assert checked > 300
    k, f = cut[0]
    dc, _ = laurent_expand(skew_space(k), f).terms[0]
    x1 = Polynomial.variable(k, 0)
    assert not polar_certificate(skew_space(k), PolarGerm(x1, dc.factors))
    assert not numerator_is_orthogonal(skew_space(k), x1,
                                       [v for v, _ in dc.factors])


def test_one_germ_under_two_products_shares_its_rewrite_and_refinement(
        monkeypatch, decompose_calls):
    k, f = round_trip_corpus()[16]
    identity, skew = AmbientSpace.standard(k), skew_space(k)
    assert len(reduce_to_independent(f)) > 1
    rewrites = counted(monkeypatch, germs_module, "reduce_to_independent")
    refinements = counted(monkeypatch, expand, "common_refinement")
    orders = {p_order(sp, f) for sp in (identity, skew, identity, skew)}
    residues = [p_res(sp, f) for sp in (identity, skew, identity, skew)]
    assert len(orders) == 1 and residues[:2] == residues[2:]
    assert len(decompose_calls) == 2
    assert len(rewrites) == len(refinements) == 1
    (cones,), = refinements
    assert len(common_refinement(cones)[0]) > len(cones)
    assert laurent_expand(identity, f) != laurent_expand(skew, f)


def test_a_product_with_other_pole_cones_is_refined_again(
        monkeypatch, decompose_calls):
    k, f = round_trip_corpus()[83]
    spaces = AmbientSpace.standard(k), skew_space(k)
    rewrites = counted(monkeypatch, germs_module, "reduce_to_independent")
    refinements = counted(monkeypatch, expand, "common_refinement")
    for sp in spaces:
        assert laurent_expand(sp, f) == canonical_expansion_reference(sp, f)
    assert len(rewrites) == 1 and len(decompose_calls) == 2
    families = [list(dict.fromkeys(DecoratedCone(t.factors).cone
                                   for t in decompose(sp, f).terms))
                for sp in spaces]
    assert families[0] != families[1]
    assert [cones for cones, in refinements] == families


def test_an_evicted_germ_recomputes_its_rewrite_and_refinement(
        monkeypatch, decompose_calls):
    bound = expand._EXPANSION_CACHE_SIZE
    rewrites = counted(monkeypatch, germs_module, "reduce_to_independent")
    refinements = counted(monkeypatch, expand, "common_refinement")
    germs = [make_mero(Polynomial.constant(2, 1),
                       ((vec([1, 0]), 1), (vec([1, j]), 1), (vec([j, 1]), 1)))
             for j in range(2, bound + 3)]
    for g in germs[:bound] + germs[:bound]:
        for sp in (SP, skew_space(2)):
            laurent_expand(sp, g)
    assert expand._germ_entry.cache_info().currsize == bound
    assert (len(rewrites), len(refinements)) == (bound, bound)
    laurent_expand(SP, germs[bound])
    assert expand._germ_entry.cache_info().currsize == bound
    laurent_expand(SP, germs[0])
    assert (len(rewrites), len(refinements)) == (bound + 2, bound + 2)
    assert len(decompose_calls) == 2 * bound + 2


# ---------------------------------------------------------------------------
# kernel elements of phi

def test_an_unrefined_family_keeps_the_terms_of_decompose(monkeypatch):
    # the pole cones <x1, x1+x2> and <x2, x1+x2> cut neither the other, so
    # the expansion is made of the terms of decompose without subdividing
    def refuse(*args):
        raise AssertionError("_subdivide_term called")

    f = make_mero(Polynomial(2, {(1, 0): 3, (0, 1): 1}),
                  ((vec([1, 0]), 2), (vec([0, 1]), 1), (vec([1, 1]), 1)))
    s = decompose(SP, f)
    cones = list(dict.fromkeys(DecoratedCone(t.factors).cone
                               for t in s.terms))
    assert len(cones) == 2 and common_refinement(cones) == (cones, [[0], [1]])
    clear_expansion_caches()
    monkeypatch.setattr(expand, "_subdivide_term", refuse)
    x = laurent_expand(SP, f)
    clear_expansion_caches()
    assert x == make_expansion([(t.factors, t.numerator) for t in s.terms],
                               s.poly)
    assert germ_equal(phi(x), f)


def test_kernel_generators_vanish_under_phi():
    sample = canonicalize_polar(None, Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    subdivision = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    for x in kernel_generators(sample):
        assert phi(x).is_zero()
    for x in kernel_generators(sample, subdivision):
        assert phi(x).is_zero()
    # pieces built with scaled generators are read in normal form: the
    # re-supported part has primitive factors, as with primitive pieces
    scaled = [SimplicialCone(((2, 0), (3, 3))), SimplicialCone(((0, 5), (1, 1)))]
    elements = kernel_generators(sample, scaled)
    assert elements == kernel_generators(sample, subdivision)
    assert all(primitive_vector(v) == v
               for dc, _ in elements[1].terms for v, _ in dc.factors)
    assert phi(elements[1]).is_zero()


def test_type_two_kernel_element_is_structurally_nonzero():
    sample = canonicalize_polar(None, Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    subdivision = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    elements = kernel_generators(sample, subdivision)
    assert any(not x.is_zero() for x in elements)
    # the re-supported copy lives on three decorated cones
    type_two = elements[1]
    assert len(type_two.terms) == 3


# ---------------------------------------------------------------------------
# mero_sum: the one exact sum behind phi and GermSum

def left_fold(germs, nvars):
    """Reference sum: add the summands one by one, left to right."""
    total = make_mero(Polynomial.zero(nvars))
    for g in germs:
        total = mero_add(total, g)
    return total


def test_mero_sum_of_nothing_is_zero():
    assert mero_sum([], 3) == make_mero(Polynomial.zero(3))
    zero = make_mero(Polynomial.zero(2), ((vec([1, 1]), 2),))
    assert mero_sum([zero, zero, zero], 2) == make_mero(Polynomial.zero(2))


def test_phi_is_structurally_the_left_fold_on_the_corpus():
    rng = random.Random(43)
    for k, f in round_trip_corpus():
        x = laurent_expand(AmbientSpace.standard(k), f)
        summands = [make_mero(x.polynomial_part)]
        summands += [make_mero(num, dc.factors) for dc, num in x.terms]
        expected = left_fold(summands, k)
        assert phi(x) == expected
        assert mero_sum(summands[::-1], k) == expected
        rng.shuffle(summands)
        assert mero_sum(summands, k) == expected


def test_as_mero_of_a_germ_sum_is_structurally_the_left_fold():
    rng = random.Random(44)
    sums = 0
    for k, f in round_trip_corpus():
        s = decompose(AmbientSpace.standard(k), f)
        if len(s.terms) < 2:
            continue
        sums += 1
        summands = [make_mero(s.poly)] + [t.as_mero() for t in s.terms]
        expected = left_fold(summands, k)
        assert as_mero(s) == expected == f
        rng.shuffle(summands)
        assert mero_sum(summands, k) == expected
    assert sums > 20


def test_phi_of_heavy_expansions_is_the_germ():
    # germ 56 of the perfbench corpus with seed 11: 16 terms over 5 forms,
    # and 315 terms over 50 forms on the support that slices by every cone
    heavy = make_mero(
        Polynomial(3, {(0, 0, 0): F(-1, 2), (0, 0, 1): F(1, 3),
                       (0, 0, 2): F(-1, 2), (0, 1, 1): F(-1, 2)}),
        tuple((vec(v), 1) for v in ((-2, 2, 1), (1, -2, 1), (1, 2, 1), (2, 1, 1))))
    # 1/(x1 x2 x3 x4 (x1+x2+x3+x4) (x1+2x2+3x3+4x4)): 2,797 terms
    forms = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1), (1, 2, 3, 4)]
    four = make_mero(Polynomial.constant(4, 1), tuple((vec(v), 1) for v in forms))
    for f, terms in ((heavy, 16), (four, 2797)):
        x = laurent_expand(AmbientSpace.standard(f.nvars), f)
        assert len(x.terms) == terms
        assert phi(x) == f
    sp = AmbientSpace.standard(3)
    x = laurent_expand(sp, heavy, support=reference_support(sp, heavy))
    assert len(x.terms) == 315
    assert phi(x) == heavy


def _braid_germ(k):
    """A_k = 1/prod_{1<=i<=j<=k}(x_i + ... + x_j): its forms are the positive
    roots of the root system A_k in the basis of simple roots."""
    forms = [tuple(int(i <= t <= j) for t in range(k))
             for i in range(k) for j in range(i, k)]
    return make_mero(Polynomial.constant(k, 1), [(v, 1) for v in forms])


def test_the_braid_arrangement_germ_through_the_pipeline(monkeypatch):
    # decompose(A_k) sits on k! pole sets, the nbc bases of the braid
    # arrangement (Orlik-Solomon) under the descending canonical order of
    # its forms, as sympy's rank decides; every term is a constant over
    # total order k(k+1)/2, so p_order is that order, p_res keeps every
    # term, and sympy sums the terms back to the germ.  The expansion goes
    # round through phi, whose nbc rewrite leaves as many fractions for
    # the one mero_add as decompose gives terms (at k = 4, 92 rather than
    # 200 when the tall refinement rays came first).  At k = 3 the polar
    # and tiling certificates of conftest check the expansion too
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5102)
    sums = counted(monkeypatch, germs_module, "mero_add")
    for k, count in ((2, 2), (3, 10), (4, 92)):
        f, space = _braid_germ(k), AmbientSpace.standard(k)
        top = k * (k + 1) // 2
        s = decompose(space, f)
        assert len(s.terms) == count and s.poly.is_zero()
        assert decompose(skew_space(k), f) == s
        assert all(t.numerator.is_constant() and t.p_order == top
                   for t in s.terms)
        pole_sets = {tuple(v for v, _ in t.factors) for t in s.terms}
        assert len(pole_sets) == math.factorial(k)
        order = [v for v, _ in f.den][::-1]
        for poles in pole_sets:
            for i, l0 in enumerate(order):
                later = [list(v) for v in poles if order.index(v) > i]
                if later:
                    assert (sympy.Matrix(later + [list(l0)]).rank()
                            > sympy.Matrix(later).rank()), (poles, l0)
        # the sum of the terms is the germ in sympy: as rational functions
        # up to k = 3; at k = 4, where cancel takes about 17 s, by exact
        # values at points with positive coordinates, where no form vanishes
        xs = sympy.symbols(f"x1:{k + 1}")
        total = sum(sympy.Rational(t.numerator.constant_term())
                    / sympy.Mul(*(sum(a * x for a, x in zip(v, xs)) ** e
                                  for v, e in t.factors)) for t in s.terms)
        germ = 1 / sympy.Mul(*(sum(a * x for a, x in zip(v, xs))
                               for v, _ in f.den))
        if k < 4:
            assert sympy.cancel(sympy.together(total - germ)) == 0
        for _ in range(4):
            point = {x: sympy.Rational(rng.randint(1, 9), rng.randint(1, 9))
                     for x in xs}
            assert total.subs(point) == germ.subs(point)
        # p_res reads the canonical expansion, and every one of its terms
        # has the top order and a constant numerator
        x = laurent_expand(space, f)
        assert p_order(space, f) == top
        assert all(num.is_constant() and sum(e for _, e in dc.factors) == top
                   for dc, num in x.terms)
        assert p_res(space, f) == make_germ_sum(
            [PolarGerm(num, dc.factors) for dc, num in x.terms],
            Polynomial.zero(k))
        sums.clear()
        assert germ_equal(phi(x), f)
        assert len(sums[0]) == count
        if k == 3:
            assert all(polar_certificate(space, PolarGerm(num, dc.factors))
                       for dc, num in x.terms)
            members = [SimplicialCone(poles) for poles in pole_sets]
            assignment = cones_module._pieces_by_cone(members, x.support())
            assert all(tiling_certificate(assignment[m], m) for m in members)
            assert all(common_face_certificate(a, b) for a, b in
                       itertools.combinations(x.support(), 2))

"""Formal expansions, the subdivision operator, and Laurent expansion."""

import math
import random
from fractions import Fraction

import pytest

from laurentgerms import expand
from laurentgerms.cones import common_refinement, make_simplicial_cone
from laurentgerms.errors import (
    NotAPanSubdivision,
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
    vec,
    vec_dot,
)
from laurentgerms.expand import (
    DecoratedCone,
    _subdivide_term,
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
from laurentgerms.germs import (
    PolarGerm,
    as_mero,
    canonicalize_polar,
    decompose,
    germ_equal,
    make_mero,
    mero_add,
    mero_scale,
    mero_sum,
    numerator_is_orthogonal,
)

from conftest import (
    q_dual_family,
    random_germ,
    random_polynomial,
    random_pseudo_positive_cone,
    round_trip_corpus,
    skew_space,
)

F = Fraction
SP = AmbientSpace.standard(2)


def cone(*gens):
    return make_simplicial_cone(gens)


def mero(num_const, *factors, k=2):
    return make_mero(Polynomial.constant(k, num_const),
                     tuple((vec(v), e) for v, e in factors))


def simple_exp(space, items, k=2):
    return make_expansion(space,
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


def test_make_expansion_validates_orthogonality():
    from laurentgerms.errors import NotPolar

    bad_num = Polynomial.linear_form(vec([1, 0]))
    with pytest.raises(NotPolar):
        make_expansion(SP, [(((vec([1, 0]), 2),), bad_num)],
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
            make_expansion(space, items, Polynomial.zero(3))
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
    x = make_expansion(SP, [(((vec([1, 0]), 1),), Polynomial.constant(2, 1))],
                       Polynomial.constant(2, 5))
    assert phi(x) == mero_scale(F(1), make_mero(
        Polynomial.constant(2, 5) + Polynomial.zero(2))) if False else True
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


# ---------------------------------------------------------------------------
# subdividing a simple fraction

def test_subdivide_simple_reproduces_basic_identity():
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    pieces = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    x = subdivide_simple(SP, g, pieces)
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
    x = subdivide_simple(SP, g, pieces)
    assert germ_equal(phi(x), g.as_mero())


def test_subdivide_simple_scales_each_piece_by_its_minor_ratio():
    g = canonicalize_polar(None, Polynomial.constant(2, 3),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    pieces = [cone((1, 0), (1, 2)), cone((0, 1), (1, 2))]
    x = subdivide_simple(SP, g, pieces)
    assert x == make_expansion(
        SP, [(((vec([1, 0]), 1), (vec([1, 2]), 1)), Polynomial.constant(2, 6)),
             (((vec([0, 1]), 1), (vec([1, 2]), 1)), Polynomial.constant(2, 3))],
        Polynomial.zero(2), validate=False)
    whole = FormalExpansion(((DecoratedCone(g.factors), g.numerator),),
                            Polynomial.zero(2))
    assert x == subdivision_operator(SP, whole, pieces)


def test_subdivide_simple_rejects_higher_exponents():
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 2),))
    with pytest.raises(ValueError):
        subdivide_simple(SP, g, [cone((1, 0))])


def test_subdivide_simple_rejects_non_subdivision():
    g = canonicalize_polar(None, Polynomial.constant(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    with pytest.raises(NotASubdivision):
        subdivide_simple(SP, g, [cone((1, 0), (1, 1))])
    with pytest.raises(NotASubdivision):
        subdivide_simple(SP, g, [cone((1, 1))])


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
    x = make_expansion(SP, [], Polynomial.constant(2, 7))
    d = delta_op(SP, vec([1, 0]), x)
    assert d.is_zero()


def test_delta_requires_orthogonal_direction():
    # numerator depends on eps2; deriving along eps2 must be refused
    num = Polynomial.linear_form(vec([0, 1]))
    x = make_expansion(SP, [(((vec([1, 0]), 1),), num)], Polynomial.zero(2))
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
    x = make_expansion(SP, [(((vec([1, 0]), 2), (vec([0, 1]), 1)),
                             Polynomial.constant(2, 1))], Polynomial.zero(2))
    fam = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    y = subdivision_operator(SP, x, fam)
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
        x = make_expansion(SP, terms, Polynomial.zero(2))
        y = subdivision_operator(SP, x, fam)
        assert germ_equal(phi(y), phi(x))
        for dc, _ in y.terms:
            forms = [v for v, _ in dc.factors]
            assert any(all(any(f == g for g in c.generators) for f in forms)
                       for c in fam)


def test_subdivision_operator_is_transitive():
    # refining in one step or through an intermediate fan gives the same
    # expansion
    x = make_expansion(SP, [(((vec([1, 0]), 1), (vec([0, 1]), 1)),
                             Polynomial.constant(2, 1))], Polynomial.zero(2))
    middle = [cone((1, 0), (1, 1)), cone((1, 1), (0, 1))]
    fine = fan_E()
    direct = subdivision_operator(SP, x, fine)
    via = subdivision_operator(SP, subdivision_operator(SP, x, middle), fine)
    assert direct == via


def test_subdivision_operator_rejects_non_pan_subdivision():
    x = make_expansion(SP, [(((vec([1, 0]), 1), (vec([0, 1]), 1)),
                             Polynomial.constant(2, 1))], Polynomial.zero(2))
    with pytest.raises((NotAPanSubdivision, NotASubdivision)):
        subdivision_operator(SP, x, [cone((1, 0), (1, 1))])


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


def test_subdivision_coefficients_are_the_minor_sum_and_dual_formula():
    # the coefficients come from coordinates in the cone's basis; they must
    # equal the Q-dependent formula under both pairings of acceptance 9
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
        got = _subdivide_term(factors, num, mine)
        for space in (AmbientSpace.standard(k), skew_space(k)):
            assert got == _reference_subdivide_term(space, factors, num, mine)
        split += len(mine) > 1
        low_split += len(mine) > 1 and target.dim < k == 3
        # a term whose only piece is its own cone passes through unchanged
        unsplit += mine == [target]
    assert split >= 30 and low_split >= 10 and unsplit >= 50


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
    with pytest.raises(NotInLaurentSubspace):
        laurent_expand(SP, g2, support=coarse)


# ---------------------------------------------------------------------------
# the cache of canonical expansions

@pytest.fixture
def decompose_calls(monkeypatch):
    """An empty expansion cache and a list that grows by one per
    ``decompose`` call made by ``laurent_expand``."""
    calls = []

    def counting(space, f):
        calls.append(f)
        return decompose(space, f)

    expand._canonical_expansion.cache_clear()
    monkeypatch.setattr(expand, "decompose", counting)
    yield calls
    expand._canonical_expansion.cache_clear()


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
    expand._canonical_expansion.cache_clear()
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


# ---------------------------------------------------------------------------
# kernel elements of phi

def test_kernel_generators_vanish_under_phi():
    sample = canonicalize_polar(None, Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    subdivision = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    for x in kernel_generators(SP, sample):
        assert phi(x).is_zero()
    for x in kernel_generators(SP, sample, subdivision):
        assert phi(x).is_zero()


def test_type_two_kernel_element_is_structurally_nonzero():
    sample = canonicalize_polar(None, Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    subdivision = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    elements = kernel_generators(SP, sample, subdivision)
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
    # germ 56 of the perfbench corpus with seed 11: 315 terms over 50 forms
    heavy = make_mero(
        Polynomial(3, {(0, 0, 0): F(-1, 2), (0, 0, 1): F(1, 3),
                       (0, 0, 2): F(-1, 2), (0, 1, 1): F(-1, 2)}),
        tuple((vec(v), 1) for v in ((-2, 2, 1), (1, -2, 1), (1, 2, 1), (2, 1, 1))))
    # 1/(x1 x2 x3 x4 (x1+x2+x3+x4) (x1+2x2+3x3+4x4)): 2,797 terms
    forms = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 1, 1), (1, 2, 3, 4)]
    four = make_mero(Polynomial.constant(4, 1), tuple((vec(v), 1) for v in forms))
    for f, terms in ((heavy, 315), (four, 2797)):
        x = laurent_expand(AmbientSpace.standard(f.nvars), f)
        assert len(x.terms) == terms
        assert phi(x) == f

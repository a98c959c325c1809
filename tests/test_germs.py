"""Germ arithmetic, canonical forms, and polar decomposition."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import laurentgerms.exact as exact_module
import laurentgerms.germs as germs_module
from laurentgerms.cones import make_poly_cone, triangulate_cone
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    det,
    is_pseudo_positive,
    mat,
    mat_from_columns,
    mat_rank,
    mat_transpose,
    primitive_pseudo_positive,
    primitive_vector,
    q_orthogonal_complement,
    vec,
    vec_dot,
)
from laurentgerms.errors import DependentInput, NotPolar, PoleHit
from laurentgerms.expand import FormalExpansion, laurent_expand, phi
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import (
    GermSum,
    MeromorphicGerm,
    PolarGerm,
    _nbc_rewrite,
    as_mero,
    canonical_fraction,
    canonicalize_polar,
    decompose,
    evaluate,
    fraction_sum,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_mul,
    mero_neg,
    mero_scale,
    mero_sub,
    numerator_is_orthogonal,
    polar_split,
    reduce_to_independent,
    sum_by_factors,
)
from laurentgerms.latticeexp import exp_integral, make_lattice_cone
from laurentgerms.residues import (
    coproduct,
    graded_split,
    jk_residue,
    p_order,
    p_res,
    pi_minus,
    pi_plus,
)

from conftest import (
    _per_suffix_nbc_rewrite,
    fraction_sum_reference,
    half_space,
    mat_inverse,
    mero_sum,
    orthogonal_projection_images,
    polar_certificate,
    random_fraction,
    round_trip_corpus,
    random_germ,
    random_polynomial,
    random_space,
    random_vector,
    skew_space,
)

F = Fraction


def lin(*coords) -> Polynomial:
    return Polynomial.linear_form(vec(coords))


def const(k, c) -> Polynomial:
    return Polynomial.constant(k, c)


# ---------------------------------------------------------------------------
# canonical representation

def test_make_mero_cancels_common_form():
    g = make_mero(lin(1, 1) * lin(1, 0), ((vec([1, 1]), 1),))
    assert g.den == ()
    assert g.numerator == lin(1, 0)


def test_make_mero_normalizes_signs_and_scales():
    # 1/(x1 - x2): the form (1,-1) has negative last coordinate, so it is
    # stored as (-1,1) with the sign pushed into the numerator
    g = make_mero(const(2, 1), ((vec([1, -1]), 1),))
    assert g.den == (((F(-1), F(1)), 1),)
    assert g.numerator == const(2, -1)
    # scaling a form rescales the numerator, not the stored factor
    h = make_mero(const(2, 1), ((vec([2, 2]), 1),))
    assert h.den == (((F(1), F(1)), 1),)
    assert h.numerator == const(2, F(1, 2))


def test_make_mero_merges_repeated_forms():
    g = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([2, 0]), 2)))
    assert g.den == (((F(1), F(0)), 3),)
    assert g.numerator == const(2, F(1, 4))


def test_a_pole_form_of_another_length_is_refused_by_name():
    # every germ type stores its factors through canonical_fraction, so a
    # 2-variable germ never carries a 3-entry form into decompose
    with pytest.raises(ValueError, match="^numerator in 2 variables, pole "
                                         "form of length 3$"):
        make_mero(const(2, 1), ((vec([1, 0, 0]), 1),))


def test_denominators_are_primitive_pseudo_positive():
    rng = random.Random(20)
    for _ in range(80):
        k = rng.randint(1, 3)
        g = random_germ(rng, k)
        for v, e in g.den:
            assert e >= 1
            assert is_pseudo_positive(v)
            assert primitive_vector(v) == v


def test_int_forms_beyond_float_precision_stay_exact():
    # coefficients beyond 2^53: a float division anywhere in the
    # normalization would round the scale pushed into the numerator
    n = 10 ** 20 + 1
    scale, form = primitive_pseudo_positive((n, 2 * n))
    assert form == (1, 2)
    assert type(scale) is int and scale == n
    assert (make_mero(const(2, 1), [((n, 2 * n), 1)])
            == make_mero(const(2, F(1, n)), [((1, 2), 1)]))
    scale, form = primitive_pseudo_positive((-n, 1 - n))
    assert form == (n, n - 1) and scale == -1


def _pseudo_positive_reference(v):
    """``v = c * w`` by Fraction arithmetic: clear the denominators, divide
    by the gcd, and sign by the last nonzero entry."""
    entries = [Fraction(a) for a in v]
    d = math.lcm(*(a.denominator for a in entries))
    ints = [int(a * d) for a in entries]
    g = math.gcd(*ints)
    if next(a for a in reversed(ints) if a) < 0:
        g = -g
    return Fraction(g, d), tuple(a // g for a in ints)


def test_the_scale_of_a_form_is_an_int_when_it_is_integral():
    # an int on every form of ints, beyond 2^53 and with a negative lead
    # too, and on a Fraction form with an integral scale; a Fraction
    # otherwise; canonical_fraction, which takes every form through
    # primitive_pseudo_positive, agrees with a Fraction-only reference
    big = 2 ** 60 + 1
    ints = [(4, -6), (-3, 0), (0, 5), (2, 2), (6 * big, -9 * big),
            (-big, 0), (3 * 2 ** 55, -(2 ** 54) - 1), (0, -7)]
    integral = [(F(2), F(4)), (F(-1), F(-1)), (F(6), F(-3, 1))]
    rational = [(1, F(1, 3)), (F(1, 2), F(-3, 4)), (F(-big, 3), F(big, 6))]
    for forms, kind in ((ints, int), (integral, int), (rational, Fraction)):
        for v in forms:
            scale, form = primitive_pseudo_positive(v)
            assert type(scale) is kind
            assert (scale, form) == _pseudo_positive_reference(v)
            assert all(type(a) is int for a in form)
    assert primitive_pseudo_positive((F(2), F(4))) == (2, (1, 2))
    assert primitive_pseudo_positive((1, F(1, 3))) == (F(1, 3), (3, 1))
    for zero in ((0, 0), (F(0), F(0))):
        with pytest.raises(ValueError, match="zero vector"):
            primitive_pseudo_positive(zero)
    num = Polynomial(2, {(1, 0): F(3, 7), (0, 2): F(-2)})
    rng = random.Random(5301)
    for _ in range(40):
        raw = [(rng.choice(ints + integral + rational), rng.randint(0, 3))
               for _ in range(rng.randint(1, 3))]
        scale, expected = F(1), {}
        for v, e in raw:
            if e:
                c, w = _pseudo_positive_reference(v)
                scale *= c ** e
                expected[w] = expected.get(w, 0) + e
        assert canonical_fraction(num, raw) == (
            num.scale(1 / scale), tuple(sorted(expected.items())))


def test_zero_numerator_collapses():
    g = make_mero(Polynomial.zero(2), ((vec([1, 0]), 2),))
    assert g.is_zero() and g.den == ()


# ---------------------------------------------------------------------------
# field laws

def test_mero_ring_laws():
    rng = random.Random(21)
    for _ in range(30):
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=2, degree=2)
        g = random_germ(rng, k, max_forms=2, degree=2)
        h = random_germ(rng, k, max_forms=2, degree=2)
        assert mero_add(f, g) == mero_add(g, f)
        assert mero_mul(f, g) == mero_mul(g, f)
        assert mero_add(mero_add(f, g), h) == mero_add(f, mero_add(g, h))
        assert mero_add(f, g, h) == mero_add(mero_add(f, g), h)
        assert mero_add(f) == f
        assert mero_mul(mero_mul(f, g), h) == mero_mul(f, mero_mul(g, h))
        assert (mero_mul(f, mero_add(g, h))
                == mero_add(mero_mul(f, g), mero_mul(f, h)))
        assert mero_add(f, mero_neg(f)).is_zero()
        assert mero_sub(f, g) == mero_add(f, mero_neg(g))
        assert mero_scale(F(1, 2), f) == mero_mul(make_mero(const(k, F(1, 2))), f)


def test_evaluate_matches_rational_arithmetic():
    rng = random.Random(22)
    for _ in range(40):
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=3, degree=2)
        g = random_germ(rng, k, max_forms=3, degree=2)
        # pick a point off every pole hyperplane
        for _ in range(50):
            pt = [F(rng.randint(1, 30)) / 7 for _ in range(k)]
            forms = [v for v, _ in f.den] + [v for v, _ in g.den]
            if all(vec_dot(v, tuple(pt)) != 0 for v in forms):
                break
        else:
            continue
        assert (evaluate(mero_add(f, g), pt)
                == evaluate(f, pt) + evaluate(g, pt))
        assert (evaluate(mero_mul(f, g), pt)
                == evaluate(f, pt) * evaluate(g, pt))


def test_evaluate_raises_on_pole():
    g = make_mero(const(2, 1), ((vec([1, -1]), 1),))
    with pytest.raises(PoleHit):
        evaluate(g, [1, 1])


def test_evaluate_needs_one_coordinate_per_variable():
    g = make_mero(Polynomial(2, {(0, 2): 1, (0, 0): 3}),
                  ((vec([1, 1]), 1),))
    assert evaluate(g, [1, 2]) == F(7, 3)
    for point in ([5], [1, 2, 3]):
        with pytest.raises(ValueError, match="2 coordinates"):
            evaluate(g, point)


def test_evaluate_sums_a_large_residue_term_by_term(monkeypatch):
    # the k = 4 growth germ's Laurent expansion has 2,797 terms, all of
    # top order with constant numerators (so their sum is its p_res); no
    # point off their poles sums them into one germ
    k = 4
    x = laurent_expand(AmbientSpace.standard(k), parse_germ(
        "1/(x1*x2*x3*x4*(x1+x2+x3+x4)*(x1+2*x2+3*x3+4*x4))", k))
    r = GermSum(tuple(PolarGerm(num, dc.factors) for dc, num in x.terms),
                x.polynomial_part)
    assert len(r.terms) == 2797
    point = [F(1, 3), F(-2, 7), F(5, 11), F(7, 13)]
    reduced = as_mero(r)

    def refuse(*args):
        raise AssertionError("summed the fractions")

    with monkeypatch.context() as m:
        m.setattr(germs_module, "fraction_sum", refuse)
        value = evaluate(r, point)
    assert value == evaluate(reduced, point) != 0


def test_evaluate_sees_through_a_pole_that_the_sum_cancels():
    # 1/(x1 (x1+x2)) + 1/(x2 (x1+x2)) = 1/(x1 x2): x1 + x2 = 0 is a pole of
    # each term and not of the sum
    terms = [canonicalize_polar(None, const(2, 1),
                                ((vec(v), 1), (vec([1, 1]), 1)))
             for v in ([1, 0], [0, 1])]
    s = make_germ_sum(terms, Polynomial.zero(2))
    x = laurent_expand(AmbientSpace.standard(2), s)
    for g in (s, x):
        assert evaluate(g, [2, -2]) == F(-1, 4)
        assert evaluate(g, [1, 3]) == F(1, 3)
        with pytest.raises(PoleHit):
            evaluate(g, [0, 1])


def test_germ_equal_sees_through_representation():
    # 1/x1 + 1/x2 == (x1+x2)/(x1 x2)
    a = mero_add(make_mero(const(2, 1), ((vec([1, 0]), 1),)),
                 make_mero(const(2, 1), ((vec([0, 1]), 1),)))
    b = make_mero(lin(1, 1), ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    assert germ_equal(a, b)
    assert not germ_equal(a, make_mero(const(2, 1)))


def test_structurally_equal_inputs_are_equal_without_a_sum(monkeypatch):
    space = AmbientSpace.standard(2)
    f = parse_germ("(x1+3*x2)/(x1^2*x2*(x1+x2))", 2)
    s, x = decompose(space, f), laurent_expand(space, f)
    t = s.terms[0]
    assert len(s.terms) > 1
    calls = []

    def counting(pairs, nvars):
        calls.append(pairs)
        return fraction_sum(pairs, nvars)

    monkeypatch.setattr(germs_module, "fraction_sum", counting)
    for a, b in ((s, GermSum(tuple(s.terms), s.poly)),
                 (t, PolarGerm(t.numerator, t.factors)),
                 (x, FormalExpansion(tuple(x.terms), x.polynomial_part))):
        assert a is not b
        assert germ_equal(a, b) and germ_equal(b, a)
    assert not calls
    # unequal inputs and mixed types are still summed
    assert germ_equal(s, x) and germ_equal(t, GermSum((t,), Polynomial.zero(2)))
    assert not germ_equal(s, GermSum(s.terms[1:], s.poly))
    assert len(calls) == 3
    with pytest.raises(TypeError, match="cannot interpret int as a germ"):
        germ_equal(3, 3)


def test_germ_equal_of_meromorphic_germs_is_structural_equality():
    # (x1+2x2)/(x1 x2 (x1+x2)) = 1/(x1 x2) + 1/(x1 (x1+x2)), built six ways
    f = parse_germ("(x1+2*x2)/(x1*x2*(x1+x2))", 2)
    a = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    b = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 1)))
    e = make_mero(lin(1, 1), ((vec([1, 0]), 1),))
    builds = [
        parse_germ("(x1+2*x2)/(x1^2*x2 + x1*x2^2)", 2),
        parse_germ("1/(x1*x2) + 1/(x1*(x1+x2))", 2),
        mero_add(b, a),
        mero_sub(mero_add(mero_add(b, e), a), e),
        mero_scale(-1, mero_scale(-1, f)),
        phi(laurent_expand(AmbientSpace.standard(2), f)),
    ]
    for x in builds:
        assert x == f
        assert germ_equal(x, f) and germ_equal(f, x)
    # unequal germs, some sharing a numerator or a denominator
    others = [a, b, e, mero_add(f, b), make_mero(const(2, 1), ((vec([0, 1]), 1),)),
              make_mero(const(2, 1), ((vec([1, 0]), 1),)), make_mero(lin(1, 2))]
    for x in others + [f]:
        for y in others + [f]:
            assert germ_equal(x, y) is (x == y) is mero_sub(x, y).is_zero()
    rng = random.Random(48)
    for k, h in round_trip_corpus()[:60]:
        e = random_germ(rng, k, max_forms=2, degree=2)
        for x in (mero_scale(-1, mero_scale(-1, h)),
                  mero_sub(mero_add(h, e), e),
                  phi(laurent_expand(AmbientSpace.standard(k), h))):
            assert x == h and germ_equal(x, h)


# ---------------------------------------------------------------------------
# polar canonicalization and orthogonality

def test_canonicalize_polar_accepts_orthogonal_numerators():
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(2, 3)
        sp = random_space(rng, k)
        n = rng.randint(1, k - 1)
        forms = []
        while len(forms) < n:
            v = random_vector(rng, k, -2, 2)
            if mat_rank(mat(forms + [v])) == len(forms) + 1:
                forms.append(v)
        # project a random numerator onto the orthogonal directions first
        images = orthogonal_projection_images(sp, forms)
        num = random_polynomial(rng, k, degree=2).substitute(images)
        if num.is_zero():
            continue
        factors = tuple((v, rng.randint(1, 2)) for v in forms)
        p = canonicalize_polar(sp, num, factors)
        assert numerator_is_orthogonal(sp, p.numerator,
                                       [v for v, _ in p.factors])
        assert germ_equal(p.as_mero(), make_mero(num, factors))


def test_canonicalize_polar_rejects_unorthogonal_numerator():
    sp = AmbientSpace.standard(2)
    with pytest.raises(NotPolar):
        canonicalize_polar(sp, lin(1, 0), ((vec([1, 0]), 2),))


def test_canonicalize_polar_rejects_dependent_factors():
    sp = AmbientSpace.standard(2)
    with pytest.raises((NotPolar, DependentInput)):
        canonicalize_polar(sp, const(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1),
                            (vec([1, 1]), 1)))


def test_canonicalize_polar_rejects_a_zero_or_unchecked_numerator():
    sp = AmbientSpace.standard(2)
    with pytest.raises(NotPolar, match="nonzero numerator"):
        canonicalize_polar(sp, const(2, 0), ((vec([1, 0]), 1),))
    # a nonconstant numerator needs the space to check its orthogonality
    with pytest.raises(NotPolar, match="ambient space required"):
        canonicalize_polar(None, lin(0, 1), ((vec([1, 0]), 1),))


def test_sums_of_germs_in_other_variables_are_refused():
    with pytest.raises(ValueError, match="in 2 and 3 variables"):
        mero_add(parse_germ("1/x1", 2), parse_germ("1/x1", 3))
    with pytest.raises(ValueError, match="in 3 and 2 variables"):
        mero_add(parse_germ("x2", 3), parse_germ("0", 2))


def test_projection_substitution_is_idempotent():
    # substituting the projection twice changes nothing: the image really
    # lands in the subalgebra generated by orthogonal directions
    rng = random.Random(24)
    sp = AmbientSpace.standard(3)
    for _ in range(10):
        forms = [random_vector(rng, 3, -2, 2)]
        images = orthogonal_projection_images(sp, forms)
        p = random_polynomial(rng, 3, degree=2)
        once = p.substitute(images)
        assert once.substitute(images) == once
        assert numerator_is_orthogonal(sp, once, forms)


def test_derivative_criterion_agrees_with_the_projection_reference():
    # numerator_is_orthogonal differentiates along Q v for each form v; the
    # reference projects onto the Q-orthogonal complement and compares
    rng = random.Random(25)
    raw_orthogonal = projected_constant = 0
    for trial in range(90):
        k = rng.randint(2, 4)
        sp = (AmbientSpace.standard(k), skew_space(k),
              random_space(rng, k))[trial % 3]
        n = rng.randint(1, k - 1)
        forms = []
        while len(forms) < n:
            v = random_vector(rng, k, -2, 2)
            if mat_rank(mat(forms + [v])) == len(forms) + 1:
                forms.append(v)
        images = orthogonal_projection_images(sp, forms)
        raw = random_polynomial(rng, k, degree=2)
        projected = raw.substitute(images)
        assert numerator_is_orthogonal(sp, projected, forms), trial
        projected_constant += projected.is_constant()
        fixed = raw.substitute(images) == raw
        assert numerator_is_orthogonal(sp, raw, forms) == fixed, trial
        raw_orthogonal += fixed
    # most projections keep a variable; few raw numerators are orthogonal
    assert projected_constant < 30 and raw_orthogonal < 30


def test_orthogonality_of_a_nonconstant_numerator_needs_a_space():
    with pytest.raises(ValueError, match="ambient space required"):
        numerator_is_orthogonal(None, lin(1, 0), [(0, 1)])
    assert numerator_is_orthogonal(None, const(2, 3), [(0, 1)])


# ---------------------------------------------------------------------------
# cancelling pole forms

def test_a_coordinate_pole_cancels_its_whole_power_at_once():
    # the whole power of x1 leaves in one exponent shift, so the time does
    # not grow with the square of the exponent
    x1 = make_mero(Polynomial.variable(2, 0))
    for text in ("x1^2000/x1^1999", "x1^20000/x1^19999",
                 "x1^20000*x2/(x1^19999*x2)"):
        start = time.perf_counter()
        g = parse_germ(text, 2)
        assert time.perf_counter() - start < 1.0, text
        assert g == x1, text


def test_mixed_poles_cancel_as_computed_by_hand():
    # (x1+x2)^3 x1^2 / x2
    num = Polynomial(2, {(5, 0): 1, (4, 1): 3, (3, 2): 3, (2, 3): 1})
    assert parse_germ("(x1+x2)^3*x1^7/(x1^5*x2)", 2) == MeromorphicGerm(
        num, (((0, 1), 1),))
    # (x1+x2) / x1^2
    assert parse_germ("x1^3*(x1+x2)^2/(x1^5*(x1+x2))", 2) == MeromorphicGerm(
        lin(1, 1), (((1, 0), 2),))
    # -x2^2 / (x1 (x3 - x1)), the form x3 - x1 stored pseudo-positive
    assert parse_germ("x1^2*x2^4*(x1-x3)/(x1^3*x2^2*(x3-x1)^2)",
                      3) == MeromorphicGerm(Polynomial(3, {(0, 2, 0): -1}),
                                            (((-1, 0, 1), 1), ((1, 0, 0), 1)))
    # x1 / 4: the scalar of the form 2 x1 moves into the numerator
    assert make_mero(Polynomial(2, {(3, 0): 1}),
                     [((2, 0), 2)]) == MeromorphicGerm(
        Polynomial(2, {(1, 0): F(1, 4)}), ())


# ---------------------------------------------------------------------------
# reduction to independent denominators

def _reassemble(k, parts):
    total = make_mero(Polynomial.zero(k))
    for coef, num, factors in parts:
        total = mero_add(total, make_mero(num.scale(coef), factors))
    return total


def test_reduce_simple_dependent_fraction():
    # 1/(x1 x2 (x1+x2)) = 1/(x2 (x1+x2)^2) + 1/(x1 (x1+x2)^2)
    from laurentgerms.exact import mat, mat_rank

    g = make_mero(const(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1), (vec([1, 1]), 1)))
    parts = reduce_to_independent(g)
    total = _reassemble(2, parts)
    assert total == g
    expected = mero_add(
        make_mero(const(2, 1), ((vec([0, 1]), 1), (vec([1, 1]), 2))),
        make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 2))))
    assert total == expected
    for _, _, factors in parts:
        forms = [v for v, _ in factors]
        assert mat_rank(mat(forms)) == len(forms)


def test_reduce_preserves_value_on_random_dependent_germs():
    from laurentgerms.exact import mat, mat_rank

    rng = random.Random(25)
    for _ in range(15):
        g = random_germ(rng, 2, max_forms=4, degree=2)
        parts = reduce_to_independent(g)
        assert _reassemble(2, parts) == g
        for _, _, factors in parts:
            forms = [v for v, _ in factors]
            assert mat_rank(mat(forms)) == len(forms)


def _reduce_by_greedy_rank_loop(f):
    """Reference for reduce_to_independent: the greedy independent subset
    by one rank test per form, and the dependent form's coordinates by a
    linear solve."""
    from laurentgerms.exact import mat_from_columns, mat_rank, solve

    out = {}

    def outer(coef, den):
        forms = sorted(v for v, e in den.items() if e)
        if mat_rank(tuple(forms)) == len(forms):
            key = tuple(sorted((v, e) for v, e in den.items() if e))
            out[key] = out.get(key, F(0)) + coef
            return
        basis, dep = [], None
        for v in forms:
            if mat_rank(tuple(basis + [v])) == len(basis) + 1:
                basis.append(v)
            elif dep is None:
                dep = v
        coords = solve(mat_from_columns(basis), dep)
        inner(coef, den, dep, [(b, c) for b, c in zip(basis, coords) if c])

    def inner(coef, den, dep, rel):
        for b, c in rel:
            child = dict(den)
            child[b] -= 1
            child[dep] = child.get(dep, 0) + 1
            if child[b] == 0:
                del child[b]
                outer(coef * c, child)
            else:
                inner(coef * c, child, dep, rel)

    if f.is_zero():
        return []
    outer(F(1), dict(f.den))
    return [(c, f.numerator, den) for den, c in sorted(out.items()) if c]


def _dependent_germ(rng, k, forms, order):
    """``forms`` pole forms of powers 1 to 3 and total order at most
    ``order``, drawn from a pool of k + 1 to k + 3 primitive vectors."""
    pool = set()
    size = rng.randint(k + 1, k + 3)
    while len(pool) < size:
        v = random_vector(rng, k, -2, 2)
        if any(v):
            pool.add(primitive_pseudo_positive(v)[1])
    powers = [order + 1]
    while sum(powers) > order:
        powers = [rng.randint(1, 3) for _ in range(forms)]
    return make_mero(Polynomial.constant(k, rng.randint(1, 5)),
                     list(zip(rng.sample(sorted(pool), forms), powers)))


def test_reduce_is_structurally_the_greedy_rank_loop():
    germs = [g for _, g in round_trip_corpus()]
    rng = random.Random(26)
    germs += [random_germ(rng, rng.randint(1, 4), max_forms=5, degree=2)
              for _ in range(100)]
    # six forms in k = 5, so always dependent; the reference recursion
    # grows steeply with the total order, which 12 keeps to about a second
    germs += [_dependent_germ(rng, 5, 6, 12) for _ in range(40)]
    for g in germs:
        assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)


def _forms_product(k, forms):
    return make_mero(Polynomial.constant(k, 1), tuple(forms))


def test_reduce_merges_equal_denominators():
    # the path recursion of the reference grows about 8x per form in 2D
    for n in range(3, 8):
        g = _forms_product(2, [(vec([1, i]), 1) for i in range(1, n + 1)])
        assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)
    g = _forms_product(3, [(vec(v), e) for v, e in [
        ([1, 0, 0], 2), ([0, 1, 0], 1), ([1, 1, 1], 2), ([1, 2, 1], 1),
        ([0, 1, 3], 1), ([2, -1, 1], 1)]])
    assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)
    g = _forms_product(2, [(vec([1, i]), 1) for i in range(1, 13)])
    start = time.perf_counter()
    parts = reduce_to_independent(g)
    assert time.perf_counter() - start < 1.0
    assert _reassemble(2, parts) == g


def test_independent_forms_need_no_exchange(monkeypatch):
    # independent forms, or none, come back as they are after one
    # elimination and no rref; a dependent germ makes that test, then one
    # reduction per pole set the nbc rewrite meets: three here
    independent = [parse_germ(text, 3) for text in (
        "(x1+x2^2)/(x1^2*(x1+x2))", "x1*x2+3", "1/(x1*x2*(x1+2*x2+x3))")]
    dependent = parse_germ("1/(x1*x2*(x1+x2))", 2)
    expected = _reduce_by_greedy_rank_loop(dependent)

    def refuse(*args):
        raise AssertionError("rref called")

    eliminations = []

    def counting(m):
        eliminations.append(m)
        return exact_module._reduced_rows(m)

    monkeypatch.setattr(exact_module, "rref", refuse)
    monkeypatch.setattr(germs_module, "rref", refuse, raising=False)
    monkeypatch.setattr(germs_module, "_reduced_rows", counting)
    for f in independent:
        del eliminations[:]
        assert reduce_to_independent(f) == [(1, f.numerator, f.den)]
        assert len(eliminations) == 1
    del eliminations[:]
    assert reduce_to_independent(dependent) == expected
    assert len(eliminations) == 4


# ---------------------------------------------------------------------------
# decomposition into polar + holomorphic

def test_reduce_makes_one_elimination_per_pole_set_it_meets(monkeypatch):
    # the growth germ 1/(x1...xk (x1+...+xk) (x1+2x2+...+kxk)): the
    # independence test, then one reduction per pole set nbc_step meets,
    # not one per member suffix of each (36, 67, 113, 177 and 262)
    eliminations = []

    def counting(m):
        eliminations.append(m)
        return exact_module._reduced_rows(m)

    monkeypatch.setattr(germs_module, "_reduced_rows", counting)
    for k, expected in zip(range(4, 9), (16, 22, 29, 37, 46)):
        xs = [f"x{i}" for i in range(1, k + 1)]
        f = parse_germ(f"1/({'*'.join(xs)}*({'+'.join(xs)})*("
                       + "+".join(f"{i}*{x}" for i, x in enumerate(xs, 1))
                       + "))", k)
        del eliminations[:]
        parts = reduce_to_independent(f)
        assert len(eliminations) == expected
        assert len(parts) == k * (k + 1) // 2
        assert all(len(m) == k for m in eliminations)
    # a pole set with no members, or none below its last, is final at once
    del eliminations[:]
    one = const(2, 1)
    fractions = {(): one, (((1, 0), 2),): one}
    assert _nbc_rewrite(fractions, [(1, 0), (0, 1), (1, 1)]) == fractions
    assert eliminations == []


def test_decompose_separates_polynomial_part():
    sp = AmbientSpace.standard(2)
    # (x1 + x2^2)/x1 = 1 + x2^2/x1
    g = make_mero(lin(1, 0) + lin(0, 1) * lin(0, 1), ((vec([1, 0]), 1),))
    s = decompose(sp, g)
    assert s.poly == const(2, 1)
    assert len(s.terms) == 1
    t = s.terms[0]
    assert t.factors == (((F(1), F(0)), 1),)
    assert t.numerator == lin(0, 1) * lin(0, 1)


def test_decompose_of_holomorphic_is_pure_polynomial():
    rng = random.Random(26)
    sp = AmbientSpace.standard(2)
    for _ in range(10):
        p = random_polynomial(rng, 2)
        s = decompose(sp, make_mero(p))
        assert s.terms == () and s.poly == p


def test_decompose_is_faithful():
    rng = random.Random(27)
    for _ in range(25):
        k = rng.randint(1, 3)
        sp = AmbientSpace.standard(k)
        g = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(sp, g)
        assert germ_equal(s, g)
        for t in s.terms:
            assert numerator_is_orthogonal(sp, t.numerator, [v for v, _ in t.factors])


def test_decompose_faithful_under_random_inner_products():
    rng = random.Random(28)
    for _ in range(15):
        k = rng.randint(2, 3)
        sp = random_space(rng, k)
        g = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(sp, g)
        assert germ_equal(s, g)
        for t in s.terms:
            assert numerator_is_orthogonal(sp, t.numerator, [v for v, _ in t.factors])


def test_the_polar_certificate_agrees_with_numerator_is_orthogonal():
    # sympy decides each term independently of the package: the decompose
    # terms of the first 40 corpus germs are polar under the identity and
    # the skew product, and a hand-built term is not where its numerator
    # varies along a pole direction or its forms depend
    pytest.importorskip("sympy")
    checked = 0
    for k, f in round_trip_corpus()[:40]:
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            for t in decompose(sp, f).terms:
                forms = [v for v, _ in t.factors]
                assert polar_certificate(sp, t)
                assert numerator_is_orthogonal(sp, t.numerator, forms)
                checked += 1
    assert checked > 40
    sp = skew_space(2)
    x2 = Polynomial.variable(2, 1)
    varying = PolarGerm(x2, (((1, 0), 1),))
    assert not polar_certificate(sp, varying)
    assert not numerator_is_orthogonal(sp, x2, [(1, 0)])
    # under the skew product, x1 - 2 x2 is constant along Q (1, 0) = (2, 1)
    orthogonal = PolarGerm(Polynomial.variable(2, 0) - x2.scale(2),
                           (((1, 0), 1),))
    assert polar_certificate(sp, orthogonal)
    assert numerator_is_orthogonal(sp, orthogonal.numerator, [(1, 0)])
    dependent = PolarGerm(Polynomial.constant(2, 1),
                          (((1, 1), 1), ((2, 2), 1)))
    assert not polar_certificate(sp, dependent)


def _reference_decompose(space, f):
    """The recursive decomposition: each fraction goes into the coordinates
    (pole forms | Q-orthogonal basis), every term free of the pole
    directions is polar, and every other term is routed through its first
    pole-direction variable, which it loses, and recursed on."""
    f = as_mero(f)
    k = space.dimension
    polar = []
    poly = Polynomial.zero(k)
    caches = {}

    def coordinate_maps(forms):
        if forms not in caches:
            ortho = q_orthogonal_complement(space, list(forms))
            bt = mat_transpose(mat_from_columns(list(forms) + ortho))
            bt_inv = mat_inverse(bt)
            caches[forms] = ([Polynomial.linear_form(bt_inv[i]) for i in range(k)],
                             [Polynomial.linear_form(bt[i]) for i in range(k)])
        return caches[forms]

    def peel(p, m):
        h, parts = {}, [{} for _ in range(m)]
        for e, c in p.coeffs.items():
            i = next((j for j in range(m) if e[j]), None)
            if i is None:
                h[e] = c
            else:
                parts[i][e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        return (Polynomial.from_ints(p.nvars, h, p.den),
                [Polynomial.from_ints(p.nvars, q, p.den) for q in parts])

    def rec(num, den):
        nonlocal poly
        if num.is_zero():
            return
        if not den:
            poly = poly + num
            return
        if num.is_constant():
            polar.append(PolarGerm(num, den))
            return
        forms = tuple(v for v, _ in den)
        to_u, to_eps = coordinate_maps(forms)
        h0, parts = peel(num.substitute(to_u), len(forms))
        if not h0.is_zero():
            polar.append(PolarGerm(h0.substitute(to_eps), den))
        for i, part in enumerate(parts):
            if part.is_zero():
                continue
            child = tuple((v, e - 1 if j == i else e)
                          for j, (v, e) in enumerate(den) if e - (j == i) > 0)
            rec(part.substitute(to_eps), child)

    for coef, num, den in reduce_to_independent(f):
        rec(num.scale(coef), den)
    return make_germ_sum(polar, poly)


def _digest_space(k):
    """The Gram matrix of ``test_digest.py``, padded by the identity."""
    gram = ((3, 1, 0), (1, 2, -1), (0, -1, 4))
    return AmbientSpace(k, mat([[gram[i][j] if i < 3 and j < 3 else int(i == j)
                                 for j in range(k)] for i in range(k)]))


def _pooled_germ(rng, k):
    """A germ over factors drawn with repetition from a few forms, so that
    repeated and dependent forms are common; numerator degree <= 3."""
    pool = [random_vector(rng, k, -2, 2) for _ in range(rng.randint(1, 4))]
    factors = [(rng.choice(pool), 1) for _ in range(rng.randint(0, 4))]
    return make_mero(random_polynomial(rng, k, degree=3), factors)


def test_decompose_is_structurally_the_recursive_split():
    rng = random.Random(15)
    germs = list(round_trip_corpus())
    germs += [(k, _pooled_germ(rng, k))
              for k in (rng.randint(1, 4) for _ in range(300))]
    for k, f in germs:
        for space in (AmbientSpace.standard(k), skew_space(k), _digest_space(k),
                      half_space(k)):
            assert decompose(space, f) == _reference_decompose(space, f)


def test_decompose_is_the_recursive_split_where_quotients_span_again():
    # pole powers up to 3 over forms from a small pool and numerators up to
    # degree 6: quotients reach spanning pole sets again with nonconstant
    # numerators; each germ is split under its own random Gram matrix
    rng = random.Random(77)
    for _ in range(400):
        k = rng.randint(1, 4)
        pool = [random_vector(rng, k, -2, 2) for _ in range(rng.randint(k, k + 2))]
        factors = [(rng.choice(pool), rng.randint(1, 3))
                   for _ in range(rng.randint(1, k + 1))]
        f = make_mero(random_polynomial(rng, k, degree=rng.randint(0, 6)),
                      factors)
        space = random_space(rng, k)
        assert decompose(space, f) == _reference_decompose(space, f)


def test_polar_split_projects_and_divides_in_eps(monkeypatch):
    # decompose looks for no complement basis; a pole set whose forms span
    # the space keeps the constant term and sends each monomial to its
    # highest-index variable, so it substitutes and divides nothing; a
    # one-form pole set projects with the scalar Q(L, L) and is its own
    # division basis, so it runs no elimination.  The numerators of the
    # full-rank germs have lower degree than every pole power: each face
    # they reach with a nonconstant numerator still spans the space.
    full = [(2, "(x1+x2)^2*x2/(x1^3*(x1+x2)^3)"),
            (3, "(x1*x2+x3^2)/(x1^2*x2^2*(x1+x3)^2)")]
    one = [(2, "(x1+x2)^3/(x1+2*x2)^2"), (3, "(x1*x2+x3^2)/(x2+x3)^3")]
    cases = [(names, space_of(k), parse_germ(text, k))
             for names, texts in ((("substitute", "divmod_linear"), full),
                                  (("_reduced_rows",), one))
             for k, text in texts
             for space_of in (AmbientSpace.standard, _digest_space, half_space)]
    expected = [(decompose(sp, f), polar_split(sp, [(f.numerator, f.den)]))
                for _, sp, f in cases]
    counts = dict.fromkeys(
        ("nullspace", "substitute", "divmod_linear", "_reduced_rows"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for owner, name in ((exact_module, "nullspace"), (Polynomial, "substitute"),
                        (Polynomial, "divmod_linear"),
                        (germs_module, "_reduced_rows")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for (names, sp, f), (whole, split) in zip(cases, expected):
        before = [counts[name] for name in names]
        assert polar_split(sp, [(f.numerator, f.den)]) == split
        assert decompose(sp, f) == whole
        assert [counts[name] for name in names] == before
    assert counts["nullspace"] == 0
    assert counts["substitute"] > 0 and counts["_reduced_rows"] > 0
    assert counts["divmod_linear"] > 0


def test_a_rank_one_projector_composes_through_one_linear_form(monkeypatch):
    # with k - 1 forms the projector has rank one: the polar part is a
    # polynomial in one linear form, built without substitute; with fewer
    # forms the numerator is composed with the images of the projector.
    # Both are the reference projection of conftest on numerators of
    # degree up to 9, under the identity, the skew and random products
    rng = random.Random(5101)
    calls = []
    substitute = Polynomial.substitute
    monkeypatch.setattr(Polynomial, "substitute", lambda p, images: (
        calls.append(1), substitute(p, images))[1])
    ranks = Counter()
    for trial in range(90):
        k = 2 + trial % 2
        space = (AmbientSpace.standard(k), skew_space(k),
                 random_space(rng, k))[trial // 2 % 3]
        m = rng.randint(1, k - 1)
        forms = []
        while len(forms) < m:
            v = primitive_pseudo_positive(random_vector(rng, k))[1]
            if mat_rank(mat(forms + [v])) == len(forms) + 1:
                forms.append(v)
        scale = math.lcm(*(a.denominator for row in space.gram for a in row))
        gram = tuple(tuple(int(a * scale) for a in row) for row in space.gram)
        project, _ = germs_module._face_split(gram, tuple(forms))
        num = random_polynomial(rng, k, degree=rng.randint(0, 9), terms=8)
        expected = num.substitute(orthogonal_projection_images(space, forms))
        calls.clear()
        assert project(num) == expected, (trial, forms)
        assert len(calls) == (m < k - 1)
        ranks[k - m] += 1
    assert ranks[1] > 50 and ranks[2] > 10


def test_the_projection_of_a_high_degree_numerator_grows_with_its_output(
        monkeypatch):
    # decompose((x1+x2)^n/(x1+2*x2)) has n + 1 numerator terms in its one
    # polar term; the rank-one projector takes them through one linear form,
    # so the monomial pairs multiplied grow about x4 per doubling of n, not
    # the x7 of composing a degree-n numerator with two images
    germs = {n: parse_germ(f"(x1+x2)^{n}/(x1+2*x2)", 2)
             for n in (25, 50, 100, 200)}
    pairs = [0]
    mul_terms = exact_module._mul_terms

    def counted(a, b):
        pairs[0] += len(a) * len(b)
        return mul_terms(a, b)

    for module in (exact_module, germs_module):
        monkeypatch.setattr(module, "_mul_terms", counted)
    ladder = []
    for n, f in germs.items():
        pairs[0] = 0
        s = decompose(AmbientSpace.standard(2), f)
        assert len(s.terms) == 1 and len(s.terms[0].numerator.coeffs) == n + 1
        ladder.append(pairs[0])
    assert all(0 < b <= 4.5 * a for a, b in zip(ladder, ladder[1:])), ladder


def test_decompose_and_residues_refuse_a_germ_in_other_variables():
    cases = [(2, "1/(x1*(x1+x2+x3))", 3), (3, "x2/(x1*(x1+x2))", 2),
             (2, "(x1+x3)/(x1*(x1+x2+x3))", 3), (4, "1/(x1*(x1+x2+x3))", 3)]
    for k, text, nvars in cases:
        space = AmbientSpace.standard(k)
        f = parse_germ(text, nvars)
        for run in (decompose, laurent_expand, graded_split, pi_plus, pi_minus,
                    jk_residue, p_order, p_res, coproduct):
            with pytest.raises(ValueError, match=f"{nvars} variables.*{k}"):
                run(space, f)
        x = laurent_expand(AmbientSpace.standard(nvars), f)
        for run in (graded_split, pi_plus, pi_minus, p_order, p_res, coproduct):
            with pytest.raises(ValueError, match=f"{nvars} variables.*{k}"):
                run(space, x)


def test_germ_sum_merges_and_drops_zeros():
    fac = ((vec([1, 0]), 1),)
    a = PolarGerm(const(2, 1), fac)
    b = PolarGerm(const(2, -1), fac)
    s = make_germ_sum([a, b], Polynomial.zero(2))
    assert s.is_zero()


def test_as_mero_on_germ_sum_adds_everything():
    fac1 = ((vec([1, 0]), 1),)
    fac2 = ((vec([0, 1]), 1),)
    s = make_germ_sum([PolarGerm(const(2, 1), fac1),
                       PolarGerm(const(2, 1), fac2)], const(2, 3))
    expected = mero_add(
        mero_add(make_mero(const(2, 1), fac1), make_mero(const(2, 1), fac2)),
        make_mero(const(2, 3)))
    assert as_mero(s) == expected


def test_formal_expansions_are_read_as_germs():
    sp = AmbientSpace.standard(2)
    f = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 1)))
    x = laurent_expand(sp, f)
    assert as_mero(x) == f == phi(x)
    assert germ_equal(x, f) and germ_equal(f, x)
    assert not germ_equal(x, mero_scale(2, f))
    assert evaluate(x, [1, 2]) == F(1, 3)
    with pytest.raises(PoleHit):
        evaluate(x, [0, 1])
    rng = random.Random(54)
    for k, g in round_trip_corpus()[:25]:
        sp = random_space(rng, k)
        y = laurent_expand(sp, g)
        assert as_mero(y) == g and germ_equal(y, g)
        pt = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
        if all(vec_dot(v, vec(pt)) != 0 for v, _ in g.den):
            assert evaluate(y, pt) == evaluate(g, pt)


# ---------------------------------------------------------------------------
# exact sums: the nbc rewrite against independent references

def left_fold(x, k):
    """Reference sum: the summands of x added one by one with mero_add."""
    if isinstance(x, GermSum):
        summands = [make_mero(x.poly)] + [t.as_mero() for t in x.terms]
    else:
        summands = [x]
    total = make_mero(Polynomial.zero(k))
    for g in summands:
        total = mero_add(total, g)
    return total


def cross_multiplied_equal(f, g, k) -> bool:
    """Reference equality: one cross-multiplication of the folded sides."""
    return mero_sub(left_fold(f, k), left_fold(g, k)).is_zero()


def perturbed(rng, s: GermSum, k: int) -> GermSum:
    """s plus a nonzero germ, so never equal to s."""
    choice = rng.randrange(3) if s.terms else 2
    if choice == 0:
        i = rng.randrange(len(s.terms))
        t = s.terms[i]
        c = rng.choice([F(-1), F(2), F(1, 3)])
        terms = list(s.terms)
        terms[i] = PolarGerm(t.numerator.scale(c), t.factors)
        return make_germ_sum(terms, s.poly)
    if choice == 1:
        extra = canonicalize_polar(None, const(k, random_fraction(rng, 1, 3)),
                                   ((random_vector(rng, k, -2, 2), rng.randint(1, 2)),))
        return make_germ_sum(list(s.terms) + [extra], s.poly)
    return make_germ_sum(list(s.terms), s.poly + const(k, 1))


def test_germ_equal_agrees_with_cross_multiplication():
    rng = random.Random(49)
    pairs = equal = 0
    while pairs < 2000:
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(AmbientSpace.standard(k), f)
        t = decompose(random_space(rng, k), f)
        cases = [(s, t, True), (t, f, True), (f, s, True),
                 (perturbed(rng, t, k), s, False),
                 (f, perturbed(rng, s, k), False),
                 (f, mero_add(f, make_mero(const(k, 1), ((random_vector(rng, k), 1),))),
                  False)]
        for x, y, expected in cases:
            assert germ_equal(x, y) is expected
            assert cross_multiplied_equal(x, y, k) is expected
            pairs += 1
            equal += expected
    assert equal == pairs // 2


def pooled_fractions(rng, k):
    """Fractions over a few shared, dependent forms, as subdivisions make."""
    pool = [random_vector(rng, k, -2, 2) for _ in range(k + 2)]
    out = []
    for _ in range(rng.randint(3, 10)):
        forms = rng.sample(pool, rng.randint(1, k))
        out.append(make_mero(random_polynomial(rng, k, degree=1, terms=2),
                             tuple((v, rng.randint(1, 2)) for v in forms)))
    return out


def is_nbc(forms, arrangement) -> bool:
    """No broken circuit (a circuit minus its least form) inside ``forms``."""
    for size in range(2, len(arrangement) + 1):
        for circuit in itertools.combinations(arrangement, size):
            if (mat_rank(circuit) == size - 1
                    and all(mat_rank(circuit[:i] + circuit[i + 1:]) == size - 1
                            for i in range(size))
                    and set(circuit[1:]) <= set(forms)):
                return False
    return True


def test_nbc_rewrite_keeps_the_sum_and_leaves_only_nbc_pole_sets():
    rng = random.Random(50)
    # any order of the arrangement will do, drawn from a second generator
    # so the sums stay those of the sorted order
    orders = random.Random(54)
    rewrites = [0, 0]
    for _ in range(80):
        k = rng.randint(2, 3)
        summands = pooled_fractions(rng, k)
        merged = {}
        for g in summands:
            merged[g.den] = merged.get(g.den, Polynomial.zero(k)) + g.numerator
        arrangement = sorted({v for den in merged for v, _ in den})
        shuffled = orders.sample(arrangement, len(arrangement))
        for i, (order, draw) in enumerate(((arrangement, rng),
                                           (shuffled, orders))):
            out = _nbc_rewrite(merged, order)
            for den in out:
                forms = [v for v, _ in den]
                assert forms == sorted(set(forms))
                assert is_nbc(forms, order)
            # the same rational function: exact values at points off the poles
            for _ in range(3):
                point = [random_fraction(draw, -9, 9, 7) for _ in range(k)]
                if any(vec_dot(v, point) == 0 for v in arrangement):
                    continue
                assert (sum(evaluate(make_mero(num, den), point)
                            for den, num in out.items())
                        == sum(evaluate(g, point) for g in summands))
            rewrites[i] += out != merged
    assert rewrites[0] > 60 and rewrites[1] > 50


def test_nbc_rewrite_is_the_per_suffix_search_key_order_included():
    # one elimination per pole set finds the same earliest broken circuit
    # as the search one member suffix at a time; where the members are
    # dependent its basis differs, but the nbc expansion it ends in is the
    # same, in the same order, and it stops at the same ``limit``
    rng = random.Random(43)
    rewritten = stopped = 0
    for _ in range(300):
        k = rng.randint(1, 5)
        pool = list({primitive_pseudo_positive(random_vector(rng, k))[1]
                     for _ in range(rng.randint(k, k + 5))})
        fractions = []
        for _ in range(rng.randint(1, 5)):
            forms = rng.sample(pool, rng.randint(1, min(k + 2, len(pool))))
            fractions.append((random_polynomial(rng, k, degree=1, terms=2),
                              tuple(sorted((v, rng.randint(1, 3))
                                           for v in forms))))
        merged = sum_by_factors(fractions)
        arrangement = list({v for den in merged for v, _ in den})
        rng.shuffle(arrangement)
        limit = rng.choice((None, len(merged)))
        got = _nbc_rewrite(merged, arrangement, limit)
        expected = _per_suffix_nbc_rewrite(merged, arrangement, limit)
        assert got == expected
        assert got is None or list(got) == list(expected)
        rewritten += got is not None and got != merged
        stopped += got is None
    assert rewritten > 50 and stopped > 100


def test_nbc_rewrite_stops_once_it_cannot_shrink_the_sum():
    # a final denominator is never reached again, so once ``limit`` of them
    # are out the rewrite cannot end with fewer fractions; expansions
    # shrink, sums of unrelated germs do not
    rng = random.Random(53)
    sums = [laurent_expand(sp, g).fractions()[1:]
            for k, g in round_trip_corpus()
            for sp in (AmbientSpace.standard(k), skew_space(k))]
    for _ in range(60):
        k = rng.randint(2, 3)
        sums.append([(g.numerator, g.den) for g in (
            random_germ(rng, k, max_forms=4, degree=1)
            for _ in range(rng.randint(2, 6)))])
    stopped = shrunk = 0
    for pairs in sums:
        merged = {}
        for num, den in pairs:
            merged[den] = merged[den] + num if den in merged else num
        merged = {d: n for d, n in merged.items() if not n.is_zero()}
        arrangement = sorted({v for den in merged for v, _ in den})
        if len(merged) < 2 or mat_rank(arrangement) == len(arrangement):
            continue
        full = _nbc_rewrite(merged, arrangement)
        got = _nbc_rewrite(merged, arrangement, len(merged))
        if len(full) < len(merged):
            assert got == full
            shrunk += 1
        else:
            assert got is None
            stopped += 1
    assert stopped > 15 and shrunk > 15


def test_fraction_sum_is_structurally_the_reference_on_corpus_expansions():
    for k, f in round_trip_corpus():
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            pairs = laurent_expand(sp, f).fractions()
            assert fraction_sum(pairs, k) == fraction_sum_reference(pairs, k) == f


def test_fraction_sum_is_structurally_the_reference_on_dependent_pole_sets():
    # a cone's integral against its other pulling triangulation, summed into
    # one germ whose den holds more forms than its rank, as the lattice
    # workload checks it: member sets of the nbc steps are dependent
    rng = random.Random(56)
    dependent = 0
    for _ in range(12):
        ts = sorted(rng.sample(range(-4, 5), rng.randint(4, 6)))
        shear = rng.randint(-2, 2)
        lc = make_lattice_cone(make_poly_cone(
            [(t + shear * t * t, t * t, 1) for t in ts]))
        total = make_mero(Polynomial.zero(3))
        for piece in triangulate_cone(lc.cone, reverse_order=True):
            total = mero_add(total, make_mero(
                Polynomial.constant(3, -abs(det(piece.generators))),
                [(g, 1) for g in piece.generators]))
        dependent += len(total.den) > 3
        integral = exp_integral(lc)
        pairs = [(t.numerator, t.factors) for t in integral.terms]
        pairs += [(-total.numerator, total.den)]
        assert (fraction_sum(pairs, 3) == fraction_sum_reference(pairs, 3)
                == make_mero(Polynomial.zero(3)))
        assert germ_equal(integral, total)
    assert dependent > 6


def test_mero_sum_is_structurally_the_left_fold_on_random_dependent_sums():
    rng = random.Random(52)
    for _ in range(50):
        k = rng.randint(2, 3)
        summands = pooled_fractions(rng, k) + [
            random_germ(rng, k, max_forms=3, degree=1)]
        # a sum that cancels to zero must come out structurally zero
        cancel = summands + [mero_neg(g) for g in summands]
        rng.shuffle(cancel)
        assert mero_sum(cancel, k) == make_mero(Polynomial.zero(k))
        expected = make_mero(Polynomial.zero(k))
        for g in summands:
            expected = mero_add(expected, g)
        rng.shuffle(summands)
        assert mero_sum(summands, k) == expected
        for terms in (cancel, summands):
            pairs = [(g.numerator, g.den) for g in terms]
            assert fraction_sum(pairs, k) == fraction_sum_reference(pairs, k)


def test_sums_agree_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(51)

    def to_sympy(g, xs):
        g = as_mero(g)
        num = sum(sympy.Rational(c.numerator, c.denominator)
                  * sympy.Mul(*(x ** p for x, p in zip(xs, e)))
                  for e, c in g.numerator.terms.items())
        den = sympy.Mul(*(sum(int(a) * x for a, x in zip(v, xs)) ** p
                          for v, p in g.den))
        return num / den

    checked = 0
    for k in (1, 2, 3, 4):
        xs = sympy.symbols(f"x1:{k + 1}")
        for _ in range(12 if k < 4 else 6):
            num = random_polynomial(rng, k, degree=2)
            forms = [random_vector(rng, k, -2, 2)
                     for _ in range(rng.randint(0, 4 if k < 4 else 3))]
            source = to_sympy(num, xs) / sympy.Mul(
                *(sum(a * x for a, x in zip(v, xs)) for v in forms))
            reduced = sympy.cancel(source)
            f = make_mero(num, tuple((v, 1) for v in forms))
            # our reduced germ has the reduced denominator's degree
            den = sympy.fraction(reduced)[1]
            assert sum(p for _, p in f.den) == sympy.Poly(den, *xs).total_degree()
            s = decompose(random_space(rng, k), f)
            # the decomposition, summed by sympy, and its sum by as_mero
            pieces = [to_sympy(s.poly, xs)] + [to_sympy(t, xs) for t in s.terms]
            n1, d1 = sympy.fraction(sympy.together(sympy.Add(*pieces)))
            n2, d2 = sympy.fraction(source)
            assert sympy.expand(n1 * d2 - n2 * d1) == 0
            assert sympy.cancel(to_sympy(as_mero(s), xs) - source) == 0
            x = laurent_expand(AmbientSpace.standard(k), f)
            assert sympy.cancel(to_sympy(phi(x), xs) - source) == 0
            bad = perturbed(rng, s, k)
            for g in (s, bad):
                oracle = sympy.cancel(to_sympy(g, xs) - source) == 0
                assert germ_equal(f, g) is oracle is (g is s)
            checked += 1
    assert checked == 42


def test_canonical_fraction_drops_zero_and_refuses_negative_multiplicities():
    one = Polynomial.constant(2, 1)
    assert canonical_fraction(one, ((vec([2, 0]), 1), (vec([0, 1]), 0))) == (
        Polynomial.constant(2, F(1, 2)), ((vec([1, 0]), 1),))
    with pytest.raises(ValueError, match="negative pole multiplicity"):
        canonical_fraction(one, ((vec([1, 0]), -1),))


def test_canonical_fraction_takes_an_int_scale_out_of_int_forms(monkeypatch):
    # every form goes through primitive_pseudo_positive, whose scale is an
    # int on a form of ints (its signed gcd); both kinds of form give the
    # value-preserving canonical fraction, also beyond float precision
    seen_forms = []
    monkeypatch.setattr(germs_module, "primitive_pseudo_positive", lambda v: (
        seen_forms.append(v), primitive_pseudo_positive(v))[1])
    big = 2 ** 60 + 1
    num = Polynomial(2, {(1, 0): F(3, 7), (0, 2): F(-2)})
    cases = [
        [((4, -6), 1)],
        [((-3, 0), 2), ((0, 5), 1)],
        [((F(1, 2), F(-3, 4)), 1)],
        [((1, F(1, 3)), 1), ((2, -4), 3)],
        [((6 * big, -9 * big), 1), ((-big, 0), 2)],
        [((3 * 2 ** 55, 2 ** 54 + 1), 1)],
        [((2, 2), 1), ((F(-1), F(-1)), 1), ((0, 1), 0)],
    ]
    point = (F(5, 3), F(-7, 2))
    for raw in cases:
        expected_num, expected = num, {}
        for v, e in raw:
            if e:
                c, w = primitive_pseudo_positive(tuple(v))
                expected_num = expected_num.scale(F(1) / c ** e)
                expected[w] = expected.get(w, 0) + e
        seen_forms.clear()
        got_num, got = canonical_fraction(num, raw)
        assert (got_num, got) == (expected_num, tuple(sorted(expected.items())))
        assert seen_forms == [tuple(v) for v, e in raw if e]
        assert all(type(a) is int for v, _ in got for a in v)
        value = num.evaluate(point)
        for v, e in raw:
            value /= vec_dot(v, point) ** e
        assert evaluate(make_mero(got_num, got), point) == value
    # an int form and the equal Fraction form give the same fraction
    assert canonical_fraction(num, [((4, -6), 2)]) == canonical_fraction(
        num, [((F(4), F(-6)), 2)])
    # the gcd beyond 2^53 is exact: the form keeps its primitive entries
    assert canonical_fraction(num, [((6 * big, -9 * big), 1)]) == (
        num.scale(F(-1, 3 * big)), (((-2, 3), 1),))
    for zero in ((0, 0), (F(0), F(0))):
        with pytest.raises(ValueError, match="zero vector"):
            canonical_fraction(num, [(zero, 1)])


def test_as_mero_refuses_what_is_not_a_germ():
    with pytest.raises(TypeError, match="cannot interpret object as a germ"):
        as_mero(object())
